"""Strict-config loading: defaults, dotted-path rejection, manifests."""
import dataclasses
import inspect
import math
import pathlib
import re
import sys

import numpy as np
import pytest
import yaml

from gatesafe.barrier import SafetyParams, _noise_bounds
from gatesafe.config import Config, ConfigError, dump_manifest, load_config, parse_config
from gatesafe.field import DistanceField, _check_map_axis
from gatesafe.geometry import GateGeometry, _positive
from gatesafe.sim import (
    MAX_LEVEL, SimEnv, _check_count, _check_dt, _check_level, _check_non_negative, generate_track,
    nominal_policy, run_experiment,
)


def write(tmp_path, text, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_empty_file_gives_all_defaults(tmp_path):
    cfg = load_config(write(tmp_path, ""))
    assert cfg == Config(), "an empty config file must mean pure defaults"


def test_defaults_match_documented_values():
    cfg = Config()
    assert cfg.geometry.inner_size == 1.5 and cfg.geometry.bar_thickness == 0.25
    assert cfg.map.resolution == 0.1 and cfg.map.z == (-4.0, 4.0)
    assert (cfg.safety.R, cfg.safety.gamma, cfg.safety.alpha) == (0.3, 4.0, 3.0)
    assert cfg.noise.dw == (0.1, 0.1, 0.1) and cfg.noise.dv == (0.25, 0.25, 0.25)
    assert (cfg.sim.dt, cfg.sim.laps, cfg.sim.max_steps) == (0.02, 3, 12000)
    assert (cfg.track.num_gates, cfg.track.spacing) == (8, 6.25)
    assert (cfg.policy.gain, cfg.policy.pass_offset) == (2.0, 3.0)
    assert cfg.run.levels == (0.0, 0.5, 1.0, 1.5) and cfg.run.tracks == 10


def test_partial_override_keeps_other_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "safety:\n  R: 0.45\n"))
    assert cfg.safety.R == 0.45
    assert cfg.safety.gamma == 4.0, "untouched keys must keep their defaults"
    assert cfg.map == Config().map


def test_negative_gamma_rejected_naming_key(tmp_path):
    with pytest.raises(ConfigError, match=r"safety\.gamma"):
        load_config(write(tmp_path, "safety:\n  gamma: -1\n"))


def test_unknown_key_rejected_naming_dotted_path(tmp_path):
    with pytest.raises(ConfigError, match=r"safety\.gama"):
        load_config(write(tmp_path, "safety:\n  gama: 2.0\n"))


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="saftey"):
        parse_config({"saftey": {"R": 0.3}})


@pytest.mark.parametrize("value", [".inf", "-.inf", ".nan"])
def test_non_finite_value_rejected_naming_key(tmp_path, value):
    with pytest.raises(ConfigError, match=r"^safety\.R must be finite"):
        load_config(write(tmp_path, f"safety:\n  R: {value}\n"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("safety: {R: 0.5}\nnoise: {dw: [0.1, 0.1, 0.1]}\nsafety: {gamma: 2.0}\n", r"^safety is given twice \(again on line 3\)"),
        ("safety:\n  R: 0.5\n  R: 0.2\n", r"^safety\.R is given twice \(again on line 3\)"),
    ],
    ids=["section-twice", "key-twice"],
)
def test_repeated_key_rejected_naming_path_and_line(tmp_path, text, message):
    # YAML keeps the last copy: the first would load R = 0.3 (the default), the second R = 0.2.
    with pytest.raises(ConfigError, match=message):
        load_config(write(tmp_path, text))


def test_recursive_alias_is_walked_once(tmp_path):
    with pytest.raises(ConfigError, match="unknown section 'a'"):
        load_config(write(tmp_path, "a: &x {b: *x}\n"))


def test_non_mapping_root_rejected():
    with pytest.raises(ConfigError, match="mapping"):
        parse_config(["safety"])


def test_non_mapping_section_rejected():
    with pytest.raises(ConfigError, match="safety"):
        parse_config({"safety": [1, 2]})


def test_invalid_yaml_rejected(tmp_path):
    with pytest.raises(ConfigError, match="YAML"):
        load_config(write(tmp_path, "safety: [unclosed\n"))


def test_non_scalar_key_rejected_as_invalid_yaml(tmp_path):
    # The repeated-key walk skips a key it cannot name; building the mapping refuses it.
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(write(tmp_path, "? [a, b]\n: 1\n"))


def test_empty_section_body_gives_its_defaults(tmp_path):
    assert load_config(write(tmp_path, "geometry:\nsafety: {R: 0.45}\n")) == parse_config({"safety": {"R": 0.45}})


def test_missing_file_rejected():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/path/cfg.yaml")


def test_bool_is_not_a_number():
    with pytest.raises(ConfigError, match=r"safety\.R"):
        parse_config({"safety": {"R": True}})


def test_extent_must_be_ordered_pair():
    with pytest.raises(ConfigError, match=r"map\.x"):
        parse_config({"map": {"x": [6.0, -6.0]}})
    with pytest.raises(ConfigError, match=r"map\.y"):
        parse_config({"map": {"y": [0.0]}})


def test_extent_must_be_whole_cells():
    with pytest.raises(ConfigError, match=r"map\.x"):
        parse_config({"map": {"x": [-6.0, 6.05]}})
    # Zero cells and a cell count that overflows.
    for body, axis in (
        ({"z": [0.0, 1e-9]}, "z"),
        ({"x": [0.0, 1e-9]}, "x"),
        ({"resolution": 1e-308}, "x"),
    ):
        with pytest.raises(ConfigError, match=rf"^map\.{axis} extent .* whole number"):
            parse_config({"map": body})
    # An extent that would overflow lies past the map bound, which is checked first.
    with pytest.raises(ConfigError, match=r"^map\.x must lie in \[-1e\+37, 1e\+37\] m"):
        parse_config({"map": {"x": [-1e308, 1e308]}})


def test_boundary_values_that_the_config_accepts_build_every_library_object():
    # Each range rule is the library's own, so what can still come apart is
    # what the config adds: the types it hands on (an integer 0 read as a
    # float or kept as a count) and the whole-cell map rule. At the edge of
    # every range, the values it accepts must build every library object.
    tiny = 5e-324
    cfg = parse_config({
        "geometry": {"inner_size": tiny, "bar_thickness": tiny},
        "map": {"resolution": tiny, "x": [0.0, tiny], "y": [-tiny, 0.0], "z": [0.0, tiny]},
        "safety": {"R": tiny, "gamma": tiny, "alpha": tiny},
        "noise": {"dw": [0.0, 0.0, 0.0], "dv": [0, 0, 0]},
        "sim": {"dt": tiny, "laps": 1, "max_steps": 1},
        "track": {"num_gates": 1, "spacing": tiny},
        "policy": {"gain": tiny, "pass_offset": 0},
        "run": {"levels": [0, MAX_LEVEL], "tracks": 1, "seed_base": 0},
    })
    gate, params, spec = cfg.gate(), cfg.safety_params(), cfg.grid_spec()
    assert (gate.inner_size, params.R, params.dv.tolist()) == (tiny, tiny, [0.0, 0.0, 0.0])
    assert spec.dims == (2, 2, 2) and spec.resolution == tiny
    field = DistanceField(spec, np.zeros(spec.dims, np.float32))
    env = cfg.sim_env(field, field)
    assert (env.dt, env.max_steps, env.pass_offset) == (tiny, 1, 0.0)
    for level in cfg.run.levels:
        generate_track(cfg.track.num_gates, cfg.track.spacing, level, cfg.sim.laps, cfg.run.seed_base)
        generate_track(2, cfg.track.spacing, level, cfg.sim.laps, cfg.run.seed_base)  # one draw over the range


# Each key whose range a library rule checks, a value outside that range, and
# the rule of the object the key feeds. Values are floats where the key is read
# as a float, so that the rule sees what the config hands it.
LIBRARY_RULES = [
    ("geometry.inner_size", 0.0, _positive),
    ("geometry.bar_thickness", -0.25, _positive),
    ("map.resolution", math.inf, _positive),
    ("map.x", [-1e38, 1.0], _check_map_axis),
    ("safety.R", -1.0, _positive),
    ("safety.gamma", 0.0, _positive),
    ("safety.alpha", math.nan, _positive),
    ("noise.dw", [0.1, 0.1, -0.1], _noise_bounds),
    ("noise.dv", [0.25, math.inf, 0.25], _noise_bounds),
    ("sim.dt", 1.5, _check_dt),
    ("sim.laps", 0, _check_count),
    ("sim.max_steps", -1, _check_count),
    ("track.num_gates", 0, _check_count),
    ("track.spacing", 0.0, _positive),
    ("policy.gain", -2.0, _positive),
    ("policy.pass_offset", -0.5, _check_level),
    ("run.levels", [0.0, -1.0], _check_level),  # the rule checks one entry
    ("run.tracks", 0, _check_count),
    ("run.seed_base", -1, _check_non_negative),
]


@pytest.mark.parametrize("path, value, rule", LIBRARY_RULES, ids=[p for p, _, _ in LIBRARY_RULES])
def test_out_of_range_value_is_rejected_in_the_words_of_the_library_rule(path, value, rule):
    with pytest.raises(ValueError) as want:
        rule(value[-1] if path == "run.levels" else value, path)
    assert type(want.value) is ValueError
    section, key = path.split(".")
    with pytest.raises(ConfigError) as got:
        parse_config({section: {key: value}})
    assert str(got.value) == str(want.value)


HUGE = 10**400  # a YAML integer that no float can hold


@pytest.mark.parametrize(
    "text, path",
    [(f"safety: {{R: {HUGE}}}", "safety.R"), (f"run: {{levels: [0, {HUGE}]}}", "run.levels")],
    ids=["number", "list-entry"],
)
def test_integer_too_large_for_a_float_is_rejected_naming_its_path(tmp_path, text, path):
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)} must be a number"):
        load_config(write(tmp_path, text + "\n"))


def test_noise_needs_three_components():
    with pytest.raises(ConfigError, match=r"noise\.dw"):
        parse_config({"noise": {"dw": [0.1, 0.1]}})
    with pytest.raises(ConfigError, match=r"noise\.dv"):
        parse_config({"noise": {"dv": [0.1, 0.1, -0.1]}})


@pytest.mark.parametrize(
    "path, axis", [("noise.dw", 0), ("noise.dv", 2), ("policy.pass_offset", None)], ids=["dw", "dv", "pass_offset"]
)
def test_noise_and_pass_offset_are_held_to_the_level_bound(path, axis):
    # Past MAX_LEVEL the robot's distance to its target could square to inf.
    section, key = path.split(".")

    def value(v):  # v on one axis of a noise bound, or the pass_offset itself
        return v if axis is None else tuple(v if k == axis else 0.1 for k in range(3))

    for v in (1e200, math.nextafter(MAX_LEVEL, math.inf)):
        with pytest.raises(ConfigError, match=rf"^{re.escape(path)} must lie in \[0, 1e\+150\] m"):
            parse_config({section: {key: value(v)}})
    cfg = parse_config({section: {key: value(MAX_LEVEL)}})
    assert getattr(getattr(cfg, section), key) == value(MAX_LEVEL)


def test_run_modes_validated():
    with pytest.raises(ConfigError, match="warp_drive"):
        parse_config({"run": {"modes": ["baseline", "warp_drive"]}})
    with pytest.raises(ConfigError, match=r"run\.levels"):
        parse_config({"run": {"levels": []}})


@pytest.mark.parametrize(
    "run, path",
    [
        ({"levels": [0, 0]}, "run.levels"),
        ({"levels": [0.5, 1.0, 0.5]}, "run.levels"),
        ({"levels": [0.1, 0.10000000001]}, "run.levels"),  # equal in the trajectory file name
        ({"modes": ["baseline", "filtered", "baseline"]}, "run.modes"),
    ],
    ids=["level-twice", "level-apart", "level-same-name", "mode-twice"],
)
def test_run_rejects_entries_whose_trajectory_files_collide(run, path):
    with pytest.raises(ConfigError, match=rf"^{re.escape(path)} repeats"):
        parse_config({"run": run})


def test_run_levels_keep_the_track_draw_range_finite():
    # MAX_LEVEL is accepted: see the boundary-values test above.
    too_wide = math.nextafter(MAX_LEVEL, math.inf)
    for level in (-1.0, too_wide, 1e160, 1e300, 8e307, sys.float_info.max):
        with pytest.raises(ConfigError, match=r"^run\.levels must lie in \[0, 1e\+150\] m"):
            parse_config({"run": {"levels": [0.0, level]}})


def test_track_length_is_bounded_naming_the_spacing():
    # spacing x num_gates x laps is the unrolled track's length; MAX_LEVEL itself is accepted.
    parse_config({"track": {"num_gates": 1, "spacing": MAX_LEVEL}, "sim": {"laps": 1}})
    for track, laps in (({"spacing": 1e200}, 3), ({"num_gates": 1, "spacing": math.nextafter(MAX_LEVEL, math.inf)}, 1),
                        ({"spacing": 1e149}, 2)):
        with pytest.raises(ConfigError, match=r"^track\.spacing .* longer than 1e\+150 m"):
            parse_config({"track": track, "sim": {"laps": laps}})


def _signature_defaults(fn, *names):
    params = inspect.signature(fn).parameters
    return tuple(params[name].default for name in names)


def test_section_defaults_equal_the_library_defaults_they_feed():
    # Each default is written once, in the library object it feeds, and the
    # config section reads it from there: each key must read the right one.
    cfg = Config()
    gate = GateGeometry()
    assert (cfg.geometry.inner_size, cfg.geometry.bar_thickness) == (gate.inner_size, gate.bar_thickness)
    params = SafetyParams()
    assert (cfg.safety.R, cfg.safety.gamma, cfg.safety.alpha) == (params.R, params.gamma, params.alpha)
    assert cfg.noise.dw == tuple(params.dw.tolist()) and cfg.noise.dv == tuple(params.dv.tolist())

    env_defaults = {f.name: f.default for f in dataclasses.fields(SimEnv) if f.default is not dataclasses.MISSING}
    assert env_defaults == {
        "dt": cfg.sim.dt,
        "max_steps": cfg.sim.max_steps,
        "gain": cfg.policy.gain,
        "pass_offset": cfg.policy.pass_offset,
    }

    assert _signature_defaults(generate_track, "num_gates", "spacing", "laps") == (
        cfg.track.num_gates, cfg.track.spacing, cfg.sim.laps,
    )
    assert _signature_defaults(run_experiment, "levels", "tracks_per_level", "modes", "seed_base") == (
        cfg.run.levels, cfg.run.tracks, cfg.run.modes, cfg.run.seed_base,
    )
    # run_experiment hands its track keywords to generate_track, and every
    # caller gives nominal_policy its pass_offset: neither states a default.
    assert not {"num_gates", "spacing", "laps"} & set(inspect.signature(run_experiment).parameters)
    assert _signature_defaults(nominal_policy, "pass_offset") == (inspect.Parameter.empty,)


def test_readme_configuration_block_states_the_defaults():
    # The README's YAML block is a third copy of every key and default.
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    data = yaml.safe_load(section.split("```yaml\n", 1)[1].split("\n```", 1)[0])
    defaults = Config().to_dict()
    keys = {name: sorted(body) for name, body in defaults.items()}
    assert {name: sorted(body) for name, body in data.items()} == keys, "every key, none missing"
    assert parse_config(data).to_dict() == defaults


def test_sim_dt_range():
    with pytest.raises(ConfigError, match=r"sim\.dt"):
        parse_config({"sim": {"dt": 1.5}})
    with pytest.raises(ConfigError, match=r"sim\.dt"):
        parse_config({"sim": {"dt": 0}})


def test_grid_spec_from_defaults():
    spec = Config().grid_spec()
    assert spec.dims == (121, 121, 81)
    np.testing.assert_allclose(spec.origin, [-6.0, -6.0, -4.0])
    assert spec.resolution == 0.1


def test_safety_params_carries_noise_bounds():
    params = Config().safety_params()
    np.testing.assert_allclose(params.dw, [0.1, 0.1, 0.1])
    np.testing.assert_allclose(params.dv, [0.25, 0.25, 0.25])


def test_full_override_round_trip(tmp_path):
    text = """
geometry: {inner_size: 2.0, bar_thickness: 0.3}
map:
  resolution: 0.2
  x: [-8, 8]
  y: [-8, 8]
  z: [-4, 4]
safety: {R: 0.5, gamma: 2.0, alpha: 4.0}
noise:
  dw: [0.05, 0.05, 0.05]
  dv: [0.1, 0.2, 0.3]
sim: {dt: 0.01, laps: 2, max_steps: 500}
track: {num_gates: 4, spacing: 5.0}
policy: {gain: 1.5, pass_offset: 2.0}
run:
  levels: [0.0, 1.0]
  tracks: 3
  modes: [baseline, filtered]
  seed_base: 7
"""
    cfg = load_config(write(tmp_path, text))
    assert cfg.geometry.inner_size == 2.0
    assert cfg.map.x == (-8.0, 8.0) and cfg.map.resolution == 0.2
    assert cfg.noise.dv == (0.1, 0.2, 0.3)
    assert cfg.run == type(cfg.run)(levels=(0.0, 1.0), tracks=3, modes=("baseline", "filtered"), seed_base=7)

    manifest = tmp_path / "manifest.yaml"
    dump_manifest(cfg, str(manifest))
    again = load_config(str(manifest))
    assert again == cfg, "a dumped manifest must load back to the identical config"


def test_manifest_lists_every_effective_value(tmp_path):
    path = tmp_path / "m.yaml"
    dump_manifest(Config(), str(path))
    text = path.read_text()
    for key in ("geometry", "map", "safety", "noise", "sim", "track", "policy", "run",
                "R", "gamma", "alpha", "dw", "dv", "dt", "laps", "levels", "seed_base"):
        assert key in text, f"manifest must record {key} even when it is a default"


# Written out by hand, not derived from the schema, so that a field that
# loses its check (or a check that names the wrong path) shows up here.
SETTABLE_PATHS = [
    "geometry.inner_size", "geometry.bar_thickness",
    "map.resolution", "map.x", "map.y", "map.z",
    "safety.R", "safety.gamma", "safety.alpha",
    "noise.dw", "noise.dv",
    "sim.dt", "sim.laps", "sim.max_steps",
    "track.num_gates", "track.spacing",
    "policy.gain", "policy.pass_offset",
    "run.levels", "run.tracks", "run.modes", "run.seed_base",
]


@pytest.mark.parametrize("path", SETTABLE_PATHS)
def test_every_setting_rejects_a_bool_naming_its_path(path):
    section, key = path.split(".")
    with pytest.raises(ConfigError, match=rf"^{section}\.{key} "):
        parse_config({section: {key: True}})


DEFAULT_MANIFEST = """\
geometry: {bar_thickness: 0.25, inner_size: 1.5}
map:
  resolution: 0.1
  x: [-6.0, 6.0]
  y: [-6.0, 6.0]
  z: [-4.0, 4.0]
noise:
  dv: [0.25, 0.25, 0.25]
  dw: [0.1, 0.1, 0.1]
policy: {gain: 2.0, pass_offset: 3.0}
run:
  levels: [0.0, 0.5, 1.0, 1.5]
  modes: [baseline, filtered, filtered_uncertainty]
  seed_base: 1000
  tracks: 10
safety: {R: 0.3, alpha: 3.0, gamma: 4.0}
sim: {dt: 0.02, laps: 3, max_steps: 12000}
track: {num_gates: 8, spacing: 6.25}
"""


def test_default_manifest_text_is_pinned(tmp_path):
    path = tmp_path / "m.yaml"
    dump_manifest(Config(), str(path))
    assert path.read_text() == DEFAULT_MANIFEST
