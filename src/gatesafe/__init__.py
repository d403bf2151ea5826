"""Runtime safety filtering for drone gate racing.

The package precomputes an uncertainty-inflated clearance map around a race
gate, turns it into a linear safety constraint on the commanded velocity,
and projects unsafe commands onto the constraint with a minimal-deviation
QP. A closed-loop simulator flies multi-lap races over randomized tracks to
measure how the filter trades task success against collision avoidance.

Modules
-------
geometry   Gate frame solid, exact point clearance, segment collision tests.
field      Precomputed clearance grids: build, inflate, sample, save/load.
barrier    Safety margin h = d^2 - R^2 and its robust linear constraint.
qp         Minimal-deviation projection, optimality checks, action fields.
sim        Tracks, noisy closed-loop trials, and the experiment grid.
config     Strict YAML configuration and run manifests.
report     Run tables: metrics, trajectories and per-(level, mode) summaries.
cli        Command-line entry points (build-map, field, run, report).
"""

from types import ModuleType as _ModuleType

from .barrier import (
    ADMISSIBLE_TOL,
    BarrierConstraint,
    BarrierEval,
    SafetyParams,
    admissible,
    assemble_constraint,
    eval_barrier_world,
)
from .field import (
    DistanceField,
    GridSpec,
    InsideObstacleError,
    MapFormatError,
    OutOfBoundsError,
    build_field,
    inflate_field,
    load_field,
    quantize_inflation,
    sample,
    sample_batch,
    save_field,
)
from .geometry import (
    GateGeometry,
    Pose,
    exact_distance,
    exact_distance_batch,
    gate_to_world,
    segment_hits_frame,
    world_to_gate,
)
from .qp import (
    FILTER_STATUS_ORDER,
    FilterDecision,
    FilterStatus,
    PlaneActionField,
    SafetyFilter,
    filter_action,
    filter_action_batch,
    safest_action_field,
    verify_kkt,
)
from .sim import (
    MODES,
    SetupError,
    SimEnv,
    SimState,
    StepLog,
    TrackSpec,
    TrialRecord,
    TrialResult,
    generate_track,
    nominal_policy,
    run_experiment,
    run_trial,
    virtual_gate_pose,
)
from .config import Config, ConfigError, dump_manifest, load_config, parse_config
from .report import (
    BoxStats,
    GroupSummary,
    ReportError,
    box_stats,
    load_metrics,
    summarize,
    write_report,
)

__version__ = "0.1.0"

# The import block above is the one list of the public names: ``__all__`` is
# every name it binds, less the private ones and the submodules it loads.
__all__ = sorted(
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
)
