"""The package's public surface: ``__all__`` is every public name the package binds, every count
it takes is an integer, and its records that hold arrays compare by identity."""
import re
import types

import numpy as np
import pytest

import gatesafe
from gatesafe import (
    BarrierConstraint, BarrierEval, DistanceField, FilterDecision, FilterStatus, GateGeometry, GridSpec,
    PlaneActionField, Pose, SafetyParams, SimEnv, SimState, StepLog, TrackSpec, TrialRecord, TrialResult, build_field,
    generate_track, parse_config, run_experiment, run_trial, safest_action_field,
)


def test_all_lists_every_public_name_the_package_binds():
    bound = sorted(
        name for name, value in vars(gatesafe).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert sorted(gatesafe.__all__) == bound
    assert "world_to_gate" in gatesafe.__all__ and "gate_to_world" in gatesafe.__all__


def test_star_import_binds_the_public_names_and_no_submodule():
    namespace = {}
    exec("from gatesafe import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(gatesafe.__all__)
    assert not [name for name, value in namespace.items() if isinstance(value, types.ModuleType)]


GRID = GridSpec(np.full(3, -1.5), 0.25, (13, 13, 13))


def _config_count(path: str, n) -> int:
    section, key = path.split(".")
    return getattr(getattr(parse_config({section: {key: n}}), section), key)


# Every count the library takes: (the name its error gives, a call that passes n and returns what it made).
COUNT_ENTRY_POINTS = {
    "GridSpec.dims": ("dims[1]", lambda n: GridSpec(np.zeros(3), 0.1, (3, n, 3)).dims[1]),
    "SimEnv.max_steps": ("max_steps", lambda n: SimEnv(GateGeometry(), None, None, SafetyParams(), max_steps=n).max_steps),
    "generate_track.num_gates": ("num_gates", lambda n: generate_track(num_gates=n, laps=1).num_gates),
    "generate_track.laps": ("laps", lambda n: generate_track(laps=n).laps),
    "generate_track.seed": ("seed", lambda n: generate_track(seed=n)),
    "run_trial.seed": ("seed", lambda n: run_trial(
        SimEnv(GateGeometry(), None, None, SafetyParams()), generate_track(num_gates=2, laps=1), "baseline", seed=n)),
    # No levels: the counts are checked, and no trial flies.
    "run_experiment.tracks_per_level": ("tracks_per_level", lambda n: run_experiment(None, (), tracks_per_level=n)),
    "run_experiment.seed_base": ("seed_base", lambda n: run_experiment(None, (), seed_base=n)),
    "safest_action_field.angular_samples": ("angular_samples", lambda n: safest_action_field(
        build_field(GateGeometry(), GRID), SafetyParams(), 1.0, "yz", 0.0, angular_samples=n)),
    **{
        f"config.{path}": (path, lambda n, path=path: _config_count(path, n))
        for path in ("sim.laps", "sim.max_steps", "track.num_gates", "run.tracks", "run.seed_base")
    },
}


@pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
def test_every_count_must_be_an_integer(entry):
    name, call = COUNT_ENTRY_POINTS[entry]
    for bad in (2.5, True, np.float64(3.0)):
        with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be an integer >= \d, got "):
            call(bad)
    kept = call(np.int64(3))
    if isinstance(kept, (int, np.integer)):  # a record keeps the count, as an int
        assert type(kept) is int and kept == 3


def _record_builders() -> dict:
    """A builder per record type that holds an array, directly or through another record."""
    field = DistanceField(GRID, np.zeros(GRID.dims, dtype=np.float32))

    def log():
        return StepLog(*(np.zeros(2) for _ in range(6)))

    def result():
        return TrialResult("baseline", True, 100.0, 1.0, 1, 1, 2, False, True, 0, 0, 0, log())

    return {
        Pose: Pose,
        GridSpec: lambda: GridSpec(np.zeros(3), 0.1, (3, 3, 3)),
        DistanceField: lambda: DistanceField(GRID, np.zeros(GRID.dims, dtype=np.float32)),
        SafetyParams: SafetyParams,
        BarrierEval: lambda: BarrierEval(d=1.0, grad=np.array([1.0, 0.0, 0.0]), h=0.91),
        BarrierConstraint: lambda: BarrierConstraint(a=np.ones(3), b=0.0),
        FilterDecision: lambda: FilterDecision(np.zeros(3), FilterStatus.UNCHANGED, 0.0, 0.0),
        PlaneActionField: lambda: PlaneActionField(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), np.zeros((2, 2), bool)),
        SimState: lambda: SimState(x=np.zeros(3)),
        StepLog: log,
        TrialResult: result,
        TrackSpec: lambda: generate_track(seed=1),
        TrialRecord: lambda: TrialRecord(0.0, 0, "baseline", 1, result()),
        SimEnv: lambda: SimEnv(GateGeometry(), field, None, SafetyParams()),
    }


@pytest.mark.parametrize("kind", _record_builders(), ids=lambda kind: kind.__name__)
def test_records_that_hold_arrays_compare_and_hash_by_identity(kind):
    build = _record_builders()[kind]
    x, y = build(), build()  # equal contents, built apart
    assert type(x) is kind
    assert x == x and not x == y and x != y
    assert x in [x] and x not in [y]
    assert hash(x) == hash(x)
