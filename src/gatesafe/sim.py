"""Closed-loop gate-track simulation with noisy perception and a safety filter.

World model: a single-integrator robot x' = x + (u + w) dt flies a straight
"unrolled" track of square gates spaced along +x. Gate lateral offsets are
drawn per difficulty level; each lap repeats the same gate row shifted one
track length further along +x (so lap closure never invents turn geometry).

Perception: the policy sees each gate through a noisy pose estimate whose
position error is drawn uniformly per axis once per gate, from its own
stream, and held until the gate is passed (a persistent miscalibration, the
failure mode a worst-case-inflated filter is built to absorb; redrawing per
step would average the error away and hide it).

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
steps are unprotected from the gate just passed. On the default grid at
level 1.5 they come within 0.209 m of it in "filtered" mode, inside R = 0.3,
and within 0.439 m in "filtered_uncertainty" (ROADMAP item 12).

The trial loop keeps its state, actions and gate frames as Python floats,
made once, and corrects a filtered mode's action with one
:class:`~gatesafe.qp.SafetyFilter` call, which gives the bits of the public
filter chain. Every step is plain float arithmetic, every dot product, norm
and rotation included: sums run left to right and ``math.sqrt`` takes the
roots, so no BLAS kernel sets a bit and a run's outputs do not depend on the
BLAS build or the CPU it picks. The step calls numpy only on a map block's
first query, which derives the block's gradients: the field reads a cell's
corners with ``struct`` from its arrays' buffers, and an off-map or
in-obstacle error names its three-float query as it is.
Noise rows are drawn 1024 at a time, the gate estimates once per trial;
``test_sim`` counts the numpy calls.

What a step keeps past its end holds no container: its log row is one flat
tuple of floats and ints, turned into the log's columns by one ``np.array``
after the loop, and its noise row a 3-tuple cut from a block drawn as one
flat list. CPython's cyclic garbage collector untracks a tuple of atoms the
first time it sees it, so a trial leaves about one tracked object per step
to the youngest generation and none reach the older ones, whose full
collections would otherwise run inside whichever trial set them off
(``test_sim`` counts the objects).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .barrier import SafetyParams
from .field import DistanceField, InsideObstacleError, OutOfBoundsError
from .geometry import (
    MAX_LEVEL, GateGeometry, Pose, _check_level, _finite_point, _norm, _positive, _segment_hits, _slab_boxes,
    _to_gate, exact_distance_batch,
)
from .qp import _DEGENERATE, _FALLBACK, _PROJECTED, _UNCHANGED, FILTER_STATUS_ORDER, SafetyFilter

MODES = ("baseline", "filtered", "filtered_uncertainty")

# Per-step status codes: the filter's own codes, then the two pass-through
# conditions where the filter could not run.
STEP_UNCHANGED = _UNCHANGED
STEP_PROJECTED = _PROJECTED
STEP_FALLBACK = _FALLBACK
STEP_DEGENERATE = _DEGENERATE
STEP_OFF_MAP = len(FILTER_STATUS_ORDER)
STEP_IN_OBSTACLE = len(FILTER_STATUS_ORDER) + 1
STEP_LABELS = tuple(s.value for s in FILTER_STATUS_ORDER) + ("off_map", "in_obstacle")

PASS_MARGIN = 0.01  # [m] crossing must clear the opening edge by this much
TRACK_SEED_STRIDE = 1000  # track seeds of one level start this far after the last level's


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
    """The input of :func:`nominal_policy`: the robot's world position ``x``, all the policy reads."""

    x: np.ndarray


@dataclass
class StepLog:
    """Column arrays, one row per executed step (values at step start).

    :func:`run_trial` logs each step as one flat tuple of floats and ints,
    which the garbage collector untracks (a row holding the step's position
    lists would keep three containers tracked), and copies each column out
    of one array of those rows, so the log holds no view of the gate-frame
    columns it does not keep.
    """

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
        _check_dt(self.dt, "dt")
        _check_count(self.max_steps, "max_steps")
        self.gain = _positive(self.gain, "gain")
        _check_level(self.pass_offset, "pass_offset")


def _check_dt(dt: float, name: str) -> None:
    if not 0.0 < dt < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {dt}")


def _check_count(n: int, name: str) -> None:
    if n < 1:
        raise ValueError(f"{name} must be positive, got {n}")


def _check_tracks(n: int, name: str) -> None:
    """Raise ValueError naming ``name`` unless 1 <= n <= TRACK_SEED_STRIDE.

    More tracks per level would give a track the seed of the next level's
    first tracks, and with it their noise and gate-estimate streams.
    """
    _check_count(n, name)
    if n > TRACK_SEED_STRIDE:
        raise ValueError(
            f"{name} must be at most {TRACK_SEED_STRIDE}, the track-seed stride between levels, got {n}"
        )


def _check_non_negative(v: float, name: str) -> None:
    if not 0.0 <= v < math.inf:  # an integer too large for a float compares too
        raise ValueError(f"{name} must be finite and >= 0, got {v}")


def _check_track_length(spacing: float, num_gates: int, laps: int, name: str) -> None:
    """Raise ValueError naming ``name`` unless spacing * num_gates * laps <= MAX_LEVEL."""
    gates = num_gates * laps
    # A gate count past MAX_LEVEL is rejected before the product could overflow.
    if gates > MAX_LEVEL or spacing * gates > MAX_LEVEL:
        raise ValueError(
            f"{name} {spacing:g} unrolls {num_gates} gates x {laps} laps into a track longer than "
            f"{MAX_LEVEL:g} m, where squared clearances stay finite"
        )


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
    _check_count(num_gates, "num_gates")
    _positive(spacing, "spacing")
    _check_level(difficulty, "difficulty")
    _check_count(laps, "laps")
    _check_track_length(spacing, num_gates, laps, "spacing")
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


def _uniform_rows(rng: np.random.Generator):
    """Rows of rng.uniform(-1, 1, size=3) as float 3-tuples, drawn 1024 rows at a time.

    A draw of 3K values holds the same doubles, in the same order, as K draws
    of size 3, so taking them three by three reproduces the stream. A block
    is one flat list, and each row a tuple of floats, which the garbage
    collector untracks the first time it sees it: 1,024 nested lists per
    block would stay tracked until the block is spent.
    """
    while True:
        block = iter(rng.uniform(-1.0, 1.0, size=3072).tolist())
        yield from zip(block, block, block)


def nominal_policy(state: SimState, estimate: Pose, gain: float, alpha: float, pass_offset: float) -> np.ndarray:
    """Proportional pursuit of a point pass_offset beyond the estimated gate.

    Aiming past the plane (rather than at the center) keeps the commanded
    speed up through the crossing; the action is clipped to the norm bound.
    A gain so large that the action's squared norm overflows gives the
    clipped direction to the target. A position that is no finite
    3-vector raises ``ValueError``.
    """
    x = _finite_point(state.x)[1]
    target = _policy_target((estimate.heading, estimate.position.tolist()), pass_offset)
    return np.array(_policy_action(target, x, gain, alpha))


def _policy_target(frame: tuple, pass_offset: float) -> list[float]:
    """The point :func:`nominal_policy` pursues for an estimated gate frame, as three floats."""
    (c, s), (ex, ey, ez) = frame
    # Element-wise, as position + pass_offset * (c, s, 0) on arrays; the 0
    # term keeps the sign of zeros.
    return [ex + pass_offset * c, ey + pass_offset * s, ez + pass_offset * 0.0]


def _policy_action(target: list[float], x: list[float], gain: float, alpha: float) -> list[float]:
    """:func:`nominal_policy`'s action at position x, all as three floats.

    u = gain * (target - x) element-wise, clipped to norm alpha (``_norm``).
    Where |u|^2 overflows, the norm is inf and the direction target - x is
    clipped instead. Its square stays finite on any track: gate offsets, dv,
    pass_offset and each step's noise dw dt are held to MAX_LEVEL = 1e150,
    far below about 1.3e154, past which a square overflows.
    """
    u = [gain * (target[0] - x[0]), gain * (target[1] - x[1]), gain * (target[2] - x[2])]
    n = _norm(u)
    if n > alpha:
        if n == math.inf:
            u = [target[0] - x[0], target[1] - x[1], target[2] - x[2]]
            n = _norm(u)
        k = alpha / n
        u = [u[0] * k, u[1] * k, u[2] * k]
    return u


def _step(x: list[float], u: list[float], w: list[float], dt: float) -> list[float]:
    """Single-integrator Euler step on three floats each: x + (u + w) dt element-wise."""
    return [x[0] + (u[0] + w[0]) * dt, x[1] + (u[1] + w[1]) * dt, x[2] + (u[2] + w[2]) * dt]


def _validate_spawn(x: np.ndarray, env: SimEnv, frames: list[tuple]) -> None:
    # The spawn in every gate's frame; row 0 is gate 0 of the first lap.
    xs = x.tolist()
    q = np.array([_to_gate(xs, *frame) for frame in frames])
    d = exact_distance_batch(q, env.gate)
    inside = np.flatnonzero(d < 0.0)
    if inside.size:
        raise SetupError(f"spawn {x} lies inside the gate-{inside[0]} frame")
    if q[0, 0] >= -env.gate.half_depth:
        raise SetupError(f"spawn {x} must lie before gate 0 (local x = {q[0, 0]:.3f})")
    if d[0] < env.params.R:
        raise SetupError(f"spawn {x} starts unsafe: clearance {d[0]:.3f} < R = {env.params.R}")


def _approach(frame: tuple, draw: list[float], dv: list[float], pass_offset: float) -> tuple[tuple, list[float]]:
    """The estimate of a gate's frame, its position moved by ``draw * dv`` element-wise, and the policy's target.

    A frame is a pose's (heading, position as three floats), the arguments
    ``geometry._to_gate`` takes after the point.
    """
    heading, p = frame
    estimate = (heading, [p[0] + draw[0] * dv[0], p[1] + draw[1] * dv[1], p[2] + draw[2] * dv[2]])
    return estimate, _policy_target(estimate, pass_offset)


def run_trial(
    env: SimEnv,
    track: TrackSpec,
    mode: str,
    seed: int,
    spawn: np.ndarray | None = None,
) -> TrialResult:
    """Fly one trial of the full unrolled track and record every step.

    ``np.random.SeedSequence(seed).spawn(2)`` gives two streams: the process
    noise, one row per step (drawn in blocks, taken in order), and the gate
    estimate errors, one row per gate. So every mode sees the same noise at step
    k and the same estimate of gate m (common random numbers), and results are
    bitwise reproducible given (track, mode, seed).
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if mode == "filtered_uncertainty" and env.inflated_field is None:
        raise ValueError("filtered_uncertainty mode requires an inflated field")
    params = env.params
    fld = {"filtered": env.nominal_field, "filtered_uncertainty": env.inflated_field}.get(mode)
    filt = None if fld is None else SafetyFilter(fld, params)

    total = track.total_gates
    frames = [(p.heading, p.position.tolist()) for p in (virtual_gate_pose(track, m) for m in range(total))]
    if spawn is None:
        spawn = track.gate_poses[0].position - np.array([track.spacing, 0.0, 0.0])
    # Loop state as Python floats: positions, actions and gate-frame points
    # are three-float lists, made once and never converted again.
    spawn, x = _finite_point(spawn)
    _validate_spawn(spawn, env, frames)
    t = 0.0
    cap = env.max_steps
    dt, gain, alpha, pass_offset = env.dt, env.gain, params.alpha, env.pass_offset
    dw, dv = params.dw.tolist(), params.dv.tolist()
    noise_rng, estimate_rng = (np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2))
    draws = _uniform_rows(noise_rng)
    # Per gate: the true frame, the estimated frame and the policy's target.
    errors = estimate_rng.uniform(-1.0, 1.0, size=(total, 3)).tolist()
    gates = [(frame, *_approach(frame, r, dv, pass_offset)) for frame, r in zip(frames, errors)]
    outer, bars = _slab_boxes(env.gate)
    pass_half = env.gate.inner_half - PASS_MARGIN
    rows = []  # (t, x0, x1, x2, q0, q1, q2, h, status, deviation) at each step start

    frame, estimate, target = gates[0]
    q = _to_gate(x, *frame)
    gate_index = gates_passed = 0
    prev_frame = None  # last passed gate, checked during slab exit
    q_prev = q  # gate-frame position in prev_frame, while prev_frame is set
    exit_window = env.gate.half_depth + (alpha + float(np.max(params.dw))) * dt * 2.0

    safe = True
    steps = 0
    while steps < cap and gate_index < total:
        u = _policy_action(target, x, gain, alpha)
        status = STEP_UNCHANGED
        h = math.nan
        dev = 0.0
        if filt is not None:
            try:
                u, status, h, dev = filt(x, *estimate, u)
            except OutOfBoundsError:
                status = STEP_OFF_MAP
            except InsideObstacleError:
                status = STEP_IN_OBSTACLE

        r = next(draws)
        x_new = _step(x, u, [r[0] * dw[0], r[1] * dw[1], r[2] * dw[2]], dt)
        if not (math.isfinite(x_new[0]) and math.isfinite(x_new[1]) and math.isfinite(x_new[2])):
            _finite_point(x_new)  # raises, naming the point

        rows.append((t, x[0], x[1], x[2], q[0], q[1], q[2], h, status, dev))
        steps += 1

        # Closed boxes: a start point inside the solid is a hit too.
        q_new = _to_gate(x_new, *frame)
        hit = _segment_hits(q, q_new, outer, bars)
        if not hit and prev_frame is not None:
            if q_prev[0] <= exit_window:
                q_prev_new = _to_gate(x_new, *prev_frame)
                hit = _segment_hits(q_prev, q_prev_new, outer, bars)
                q_prev = q_prev_new
            else:
                prev_frame = None
        if hit:
            safe = False
            break

        if q[0] < 0.0 <= q_new[0]:
            frac = -q[0] / (q_new[0] - q[0])
            cross_y = q[1] + frac * (q_new[1] - q[1])
            cross_z = q[2] + frac * (q_new[2] - q[2])
            if max(abs(cross_y), abs(cross_z)) < pass_half:
                gates_passed += 1
            prev_frame = frame
            q_prev = q_new
            gate_index += 1
            if gate_index < total:
                frame, estimate, target = gates[gate_index]
                q_new = _to_gate(x_new, *frame)

        x = x_new
        t += dt
        q = q_new

    # Clearance to the current gate at every step start, plus the final
    # position when the trial ended safely; a collision scores 0.0.
    log = np.array(rows)
    q_log = log[:, 4:7]
    d = exact_distance_batch(np.concatenate((q_log, [q])) if safe else q_log, env.gate)
    # The log's columns are copies, so it holds no view of the q columns.
    t_log, h_log, dev_log = log.T[[0, 7, 9]]
    st = log[:, 8].astype(np.int8)
    counts = np.bincount(st, minlength=len(STEP_LABELS))
    fallback = int(counts[STEP_FALLBACK])
    in_obstacle = int(counts[STEP_IN_OBSTACLE])

    return TrialResult(
        mode=mode,
        safe=safe,
        success_rate=gates_passed / total,
        min_distance=float(d.min()) if safe else 0.0,
        gates_passed=gates_passed,
        total_gates=total,
        steps=steps,
        timed_out=safe and gate_index < total,
        clean=fallback == 0 and in_obstacle == 0,
        fallback_steps=fallback,
        off_map_steps=int(counts[STEP_OFF_MAP]),
        in_obstacle_steps=in_obstacle,
        log=StepLog(
            t=t_log,
            x=log[:, 1:4].copy(),
            d_true=d[:steps],
            h=h_log,
            status=st,
            deviation=dev_log,
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
    seed_base: int = 1000,
    **track_args,
) -> list[TrialRecord]:
    """Seeded grid of trials: every mode flies the same tracks per level.

    Track seeds are seed_base + TRACK_SEED_STRIDE*level_index + track_index,
    distinct because tracks_per_level may not exceed the stride
    (``ValueError`` otherwise, or below 1); the per-trial noise stream is
    seeded from the track seed, so the whole grid is reproducible from
    seed_base alone. ``track_args`` (num_gates, spacing, laps) go to
    :func:`generate_track`, which holds their defaults.
    """
    _check_tracks(tracks_per_level, "tracks_per_level")
    records: list[TrialRecord] = []
    for li, level in enumerate(levels):
        for ti in range(tracks_per_level):
            track_seed = seed_base + TRACK_SEED_STRIDE * li + ti
            track = generate_track(difficulty=level, seed=track_seed, **track_args)
            for mode in modes:
                result = run_trial(env, track, mode, seed=track_seed + 500_000)
                records.append(
                    TrialRecord(level=level, track_index=ti, mode=mode, seed=track_seed, result=result)
                )
    return records
