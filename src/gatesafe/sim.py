"""Closed-loop gate-track simulation with noisy perception and a safety filter.

World model: a single-integrator robot x' = x + (u + w) dt flies a straight
"unrolled" track of square gates spaced along +x. Gate lateral offsets are
drawn per difficulty level; each lap repeats the same gate row shifted one
track length further along +x (so lap closure never invents turn geometry).

Perception: the policy sees each gate through a noisy pose estimate whose
position error is drawn uniformly per axis once per gate approach and held
until the gate is passed (a persistent miscalibration, the failure mode a
worst-case-inflated filter is built to absorb; redrawing per step would
average the error away and hide it).

Modes:
- "baseline": the nominal proportional policy acts unfiltered;
- "filtered": actions are projected through the barrier constraint sampled
  from the nominal distance field at the *estimated* gate pose;
- "filtered_uncertainty": same, but on the field inflated by the observation
  error bound. The inflation covers gate translations within +/-dv along the
  gate's own axes, but the error is drawn per world axis: on a yawed gate its
  gate-frame x and y parts reach dv (|cos yaw| + |sin yaw|), so the
  certificate does not cover every pose consistent with the estimate.

Far from the current gate the robot may leave the gate-local grid; those
steps fly the nominal action unfiltered and are logged with their own status
code. The filter sees only the current gate, so right after a crossing these
steps are unprotected from the gate just passed: on the default grid they
come as close as 0.42 m to it (level 1.5, filtered_uncertainty).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barrier import SafetyParams, assemble_constraint, eval_barrier_world
from .field import DistanceField, InsideObstacleError, OutOfBoundsError
from .geometry import (
    GateGeometry, Pose, _norm, exact_distance_batch, segment_hits_frame, world_to_gate,
)
from .qp import _STATUS_CODE, FILTER_STATUS_ORDER, FilterStatus, filter_action

MODES = ("baseline", "filtered", "filtered_uncertainty")

# Per-step status codes: the filter's own codes, then the two pass-through
# conditions where the filter could not run.
STEP_UNCHANGED = _STATUS_CODE[FilterStatus.UNCHANGED]
STEP_PROJECTED = _STATUS_CODE[FilterStatus.PROJECTED]
STEP_FALLBACK = _STATUS_CODE[FilterStatus.INFEASIBLE_FALLBACK]
STEP_DEGENERATE = _STATUS_CODE[FilterStatus.DEGENERATE_SAFE]
STEP_OFF_MAP = len(FilterStatus)
STEP_IN_OBSTACLE = len(FilterStatus) + 1
STEP_LABELS = tuple(s.value for s in FILTER_STATUS_ORDER) + ("off_map", "in_obstacle")

PASS_MARGIN = 0.01  # [m] crossing must clear the opening edge by this much


class SetupError(RuntimeError):
    """Trial precondition violated (bad spawn state)."""


@dataclass
class TrackSpec:
    """One lap of gates; laps repeat the row shifted a track length along +x.

    gate_poses holds the lap's num_gates poses, gate k at x = k * spacing.
    """

    num_gates: int
    spacing: float
    laps: int
    gate_poses: list[Pose]

    @property
    def total_gates(self) -> int:
        return self.laps * self.num_gates

    @property
    def lap_length(self) -> float:
        return self.num_gates * self.spacing


@dataclass
class SimState:
    """Mutable loop state: position, clock, and gate progress."""

    x: np.ndarray
    t: float = 0.0
    gate_index: int = 0
    gates_passed: int = 0


@dataclass
class StepLog:
    """Column arrays, one row per executed step (values at step start)."""

    t: np.ndarray
    x: np.ndarray
    d_true: np.ndarray
    h: np.ndarray
    status: np.ndarray
    deviation: np.ndarray


@dataclass
class TrialResult:
    """Outcome of one trial: safety, task success, and the step log.

    min_distance is the smallest true clearance to the current gate over the
    trajectory, exactly 0.0 when the trial ended in a collision. clean means
    the filter never fell back and never sampled inside an obstacle, so the
    invariance guarantee applied on every filtered step.
    """

    mode: str
    safe: bool
    success_rate: float
    min_distance: float
    gates_passed: int
    total_gates: int
    steps: int
    timed_out: bool
    clean: bool
    fallback_steps: int
    off_map_steps: int
    in_obstacle_steps: int
    log: StepLog


@dataclass
class SimEnv:
    """Everything a trial needs besides the track: geometry, fields, knobs."""

    gate: GateGeometry
    nominal_field: DistanceField
    inflated_field: DistanceField | None
    params: SafetyParams
    dt: float = 0.02
    max_steps: int = 12000
    gain: float = 2.0
    pass_offset: float = 3.0

    def __post_init__(self) -> None:
        if not (0.0 < self.dt < 1.0):
            raise ValueError(f"dt must lie in (0, 1), got {self.dt}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be positive, got {self.max_steps}")
        if not (math.isfinite(self.gain) and self.gain > 0.0):
            raise ValueError(f"gain must be positive, got {self.gain}")
        if not (math.isfinite(self.pass_offset) and self.pass_offset >= 0.0):
            raise ValueError(f"pass_offset must be finite and >= 0, got {self.pass_offset}")


def generate_track(
    num_gates: int = 8,
    spacing: float = 6.25,
    difficulty: float = 0.0,
    laps: int = 3,
    seed: int = 0,
) -> TrackSpec:
    """Random gate row: gate k at x = k*spacing, lateral offsets accumulated.

    Gate 0 sits at the origin facing +x; every later gate offsets from its
    predecessor by uniform draws in [-difficulty, difficulty] on y and z and
    yaws to face the incoming segment. The lap seam may exceed that bound:
    the next lap's first gate returns to gate 0's lateral position.
    """
    if num_gates < 1:
        raise ValueError(f"num_gates must be positive, got {num_gates}")
    if not (math.isfinite(spacing) and spacing > 0.0):
        raise ValueError(f"spacing must be finite and positive, got {spacing}")
    if not (math.isfinite(2.0 * difficulty) and difficulty >= 0.0):
        raise ValueError(f"difficulty must be non-negative with 2 * difficulty finite, got {difficulty}")
    if laps < 1:
        raise ValueError(f"laps must be positive, got {laps}")
    rng = np.random.default_rng(seed)
    poses = [Pose(position=np.zeros(3), yaw=0.0)]
    y = z = 0.0
    for k in range(1, num_gates):
        dy, dz = rng.uniform(-difficulty, difficulty, size=2)
        y += dy
        z += dz
        yaw = math.atan2(dy, spacing)
        poses.append(Pose(position=np.array([k * spacing, y, z]), yaw=yaw))
    return TrackSpec(num_gates=num_gates, spacing=spacing, laps=laps, gate_poses=poses)


def virtual_gate_pose(track: TrackSpec, index: int) -> Pose:
    """Pose of the index-th gate of the unrolled multi-lap sequence."""
    if not (0 <= index < track.total_gates):
        raise IndexError(f"gate index {index} outside [0, {track.total_gates})")
    lap, k = divmod(index, track.num_gates)
    base = track.gate_poses[k]
    shift = np.array([lap * track.lap_length, 0.0, 0.0])
    return Pose(position=base.position + shift, yaw=base.yaw)


def _estimate(true: Pose, draw: np.ndarray, dv: np.ndarray) -> Pose:
    """The estimate of a gate pose for one uniform(-1, 1) draw per axis."""
    return Pose(position=true.position + draw * np.asarray(dv, dtype=float), yaw=true.yaw)


def _uniform_rows(rng: np.random.Generator):
    """Rows of rng.uniform(-1, 1, size=3), drawn 1024 rows at a time.

    A (K, 3) draw holds the same doubles, in the same order, as K draws of
    size 3, so taking the rows one by one reproduces the stream.
    """
    while True:
        yield from rng.uniform(-1.0, 1.0, size=(1024, 3))


def nominal_policy(
    state: SimState, estimate: Pose, gain: float, alpha: float, pass_offset: float = 3.0
) -> np.ndarray:
    """Proportional pursuit of a point pass_offset beyond the estimated gate.

    Aiming past the plane (rather than at the center) keeps the commanded
    speed up through the crossing; the action is clipped to the norm bound.
    """
    c, s = math.cos(estimate.yaw), math.sin(estimate.yaw)
    ex, ey, ez = estimate.position.tolist()
    x, y, z = np.asarray(state.x, dtype=float).tolist()
    # Elementwise, as target = position + pass_offset * (c, s, 0) and
    # u = gain * (target - x) on arrays; the 0 term keeps the sign of zeros.
    u = np.array([
        gain * (ex + pass_offset * c - x),
        gain * (ey + pass_offset * s - y),
        gain * (ez + pass_offset * 0.0 - z),
    ])
    n = _norm(u)
    if n > alpha:
        u *= alpha / n
    return u


def step_dynamics(x: np.ndarray, u: np.ndarray, w: np.ndarray, dt: float) -> np.ndarray:
    """Single-integrator Euler step under action u and disturbance w."""
    return x + (u + w) * dt


def _validate_spawn(x: np.ndarray, env: SimEnv, track: TrackSpec) -> None:
    # The spawn in every gate's frame; row 0 is gate 0 of the first lap.
    q = np.array([world_to_gate(x, virtual_gate_pose(track, m)) for m in range(track.total_gates)])
    d = exact_distance_batch(q, env.gate)
    inside = np.flatnonzero(d < 0.0)
    if inside.size:
        raise SetupError(f"spawn {x} lies inside the gate-{inside[0]} frame")
    if q[0, 0] >= -env.gate.half_depth:
        raise SetupError(f"spawn {x} must lie before gate 0 (local x = {q[0, 0]:.3f})")
    if d[0] < env.params.R:
        raise SetupError(f"spawn {x} starts unsafe: clearance {d[0]:.3f} < R = {env.params.R}")


def run_trial(
    env: SimEnv,
    track: TrackSpec,
    mode: str,
    seed: int,
    spawn: np.ndarray | None = None,
) -> TrialResult:
    """Fly one trial of the full unrolled track and record every step.

    The per-trial random stream is consumed in a fixed order (gate estimate
    error at start and after each gate advance; process noise each step), so
    results are bitwise reproducible given (track, mode, seed). The draws are
    made in blocks of rows and the rows are taken in that same order, which
    gives the same doubles as one draw per estimate and per step.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "filtered":
        fld = env.nominal_field
    elif mode == "filtered_uncertainty":
        if env.inflated_field is None:
            raise ValueError("filtered_uncertainty mode requires an inflated field")
        fld = env.inflated_field
    else:
        fld = None

    params = env.params
    if spawn is None:
        spawn = track.gate_poses[0].position - np.array([track.spacing, 0.0, 0.0])
    x = np.asarray(spawn, dtype=float).copy()
    _validate_spawn(x, env, track)

    draws = _uniform_rows(np.random.default_rng(seed))
    state = SimState(x=x)
    total = track.total_gates
    cap = env.max_steps

    t_log = np.empty(cap)
    x_log = np.empty((cap, 3))
    q_log = np.empty((cap + 1, 3))  # gate-frame position; one extra row for the final one
    h_log = np.full(cap, np.nan)
    st_log = np.zeros(cap, dtype=np.int8)
    dev_log = np.zeros(cap)

    pose = virtual_gate_pose(track, 0)
    q = world_to_gate(x, pose)
    estimate = _estimate(pose, next(draws), params.dv)
    prev_pose: Pose | None = None  # last passed gate, checked during slab exit
    exit_window = env.gate.half_depth + (params.alpha + float(np.max(params.dw))) * env.dt * 2.0

    safe = True
    steps = 0
    while steps < cap and state.gate_index < total:
        u = nominal_policy(state, estimate, env.gain, params.alpha, env.pass_offset)
        status = STEP_UNCHANGED
        h_val = math.nan
        dev = 0.0
        if fld is not None:
            try:
                ev = eval_barrier_world(fld, state.x, estimate, params)
            except OutOfBoundsError:
                status = STEP_OFF_MAP
            except InsideObstacleError:
                status = STEP_IN_OBSTACLE
            else:
                h_val = ev.h
                dec = filter_action(u, assemble_constraint(ev, params), params)
                u = dec.u_star
                dev = dec.deviation
                status = _STATUS_CODE[dec.status]

        w = next(draws) * params.dw
        x_new = step_dynamics(state.x, u, w, env.dt)

        t_log[steps] = state.t
        x_log[steps] = state.x
        q_log[steps] = q
        h_log[steps] = h_val
        st_log[steps] = status
        dev_log[steps] = dev
        steps += 1

        # Closed boxes: a start point inside the solid is a hit too.
        q_new = world_to_gate(x_new, pose)
        hit = segment_hits_frame(q, q_new, env.gate)
        if not hit and prev_pose is not None:
            qp0 = world_to_gate(state.x, prev_pose)
            if qp0[0] <= exit_window:
                hit = segment_hits_frame(qp0, world_to_gate(x_new, prev_pose), env.gate)
            else:
                prev_pose = None
        if hit:
            safe = False
            break

        if q[0] < 0.0 <= q_new[0]:
            frac = -q[0] / (q_new[0] - q[0])
            cross = q + frac * (q_new - q)
            if max(abs(cross[1]), abs(cross[2])) < env.gate.inner_half - PASS_MARGIN:
                state.gates_passed += 1
            prev_pose = pose
            state.gate_index += 1
            if state.gate_index < total:
                pose = virtual_gate_pose(track, state.gate_index)
                q_new = world_to_gate(x_new, pose)
                estimate = _estimate(pose, next(draws), params.dv)

        state.x = x_new
        state.t += env.dt
        q = q_new

    # Clearance to the current gate at every step start, plus the final
    # position when the trial ended safely; a collision scores 0.0.
    q_log[steps] = q
    d = exact_distance_batch(q_log[: steps + 1 if safe else steps], env.gate)
    counts = np.bincount(st_log[:steps], minlength=len(STEP_LABELS))
    fallback = int(counts[STEP_FALLBACK])
    in_obstacle = int(counts[STEP_IN_OBSTACLE])

    sl = slice(0, steps)
    return TrialResult(
        mode=mode,
        safe=safe,
        success_rate=state.gates_passed / total,
        min_distance=float(d.min()) if safe else 0.0,
        gates_passed=state.gates_passed,
        total_gates=total,
        steps=steps,
        timed_out=safe and state.gate_index < total,
        clean=fallback == 0 and in_obstacle == 0,
        fallback_steps=fallback,
        off_map_steps=int(counts[STEP_OFF_MAP]),
        in_obstacle_steps=in_obstacle,
        log=StepLog(
            t=t_log[sl].copy(),
            x=x_log[sl].copy(),
            d_true=d[:steps],
            h=h_log[sl].copy(),
            status=st_log[sl].copy(),
            deviation=dev_log[sl].copy(),
        ),
    )


@dataclass
class TrialRecord:
    """One grid cell of an experiment: which trial, and its result."""

    level: float
    track_index: int
    mode: str
    seed: int
    result: TrialResult


def run_experiment(
    env: SimEnv,
    levels: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5),
    tracks_per_level: int = 10,
    modes: tuple[str, ...] = MODES,
    num_gates: int = 8,
    spacing: float = 6.25,
    laps: int = 3,
    seed_base: int = 1000,
) -> list[TrialRecord]:
    """Seeded grid of trials: every mode flies the same tracks per level.

    Track seeds are seed_base + 1000*level_index + track_index; the per-trial
    noise stream is seeded from the track seed, so the whole grid is
    reproducible from seed_base alone.
    """
    records: list[TrialRecord] = []
    for li, level in enumerate(levels):
        for ti in range(tracks_per_level):
            track_seed = seed_base + 1000 * li + ti
            track = generate_track(
                num_gates=num_gates,
                spacing=spacing,
                difficulty=level,
                laps=laps,
                seed=track_seed,
            )
            for mode in modes:
                result = run_trial(env, track, mode, seed=track_seed + 500_000)
                records.append(
                    TrialRecord(level=level, track_index=ti, mode=mode, seed=track_seed, result=result)
                )
    return records
