"""Track generation, perception, policy, and closed-loop trial behavior."""
import copy
import math
import os
import sys

import numpy as np
import pytest

from gatesafe.barrier import SafetyParams, assemble_constraint, eval_barrier_world
from gatesafe.field import InsideObstacleError, OutOfBoundsError
from gatesafe.geometry import Pose, exact_distance_batch, segment_hits_frame, world_to_gate
from gatesafe.qp import FILTER_STATUS_ORDER, filter_action
from gatesafe.sim import (
    MAX_LEVEL,
    MODES,
    PASS_MARGIN,
    STEP_FALLBACK,
    STEP_IN_OBSTACLE,
    STEP_OFF_MAP,
    STEP_PROJECTED,
    STEP_UNCHANGED,
    SetupError,
    SimEnv,
    SimState,
    TrackSpec,
    generate_track,
    _estimate,
    _uniform_rows,
    nominal_policy,
    run_experiment,
    run_trial,
    virtual_gate_pose,
)


def test_track_difficulty_zero_is_collinear():
    track = generate_track(num_gates=8, spacing=6.25, difficulty=0.0, seed=3)
    for k, pose in enumerate(track.gate_poses):
        assert np.allclose(pose.position, [k * 6.25, 0.0, 0.0]), f"gate {k} off axis"
        assert pose.yaw == 0.0


def test_track_determinism():
    a = generate_track(difficulty=1.5, seed=99)
    b = generate_track(difficulty=1.5, seed=99)
    for pa, pb in zip(a.gate_poses, b.gate_poses):
        assert np.array_equal(pa.position, pb.position)
        assert pa.yaw == pb.yaw
    c = generate_track(difficulty=1.5, seed=100)
    assert any(
        not np.array_equal(pa.position, pc.position) for pa, pc in zip(a.gate_poses, c.gate_poses)
    ), "different seeds should give different tracks"


def test_track_offsets_bounded_over_many_seeds():
    for seed in range(1000):
        track = generate_track(difficulty=1.5, seed=seed)
        for prev, cur in zip(track.gate_poses, track.gate_poses[1:]):
            dy = cur.position[1] - prev.position[1]
            dz = cur.position[2] - prev.position[2]
            assert abs(dy) <= 1.5 + 1e-12, f"seed {seed}: |dy| = {abs(dy)}"
            assert abs(dz) <= 1.5 + 1e-12, f"seed {seed}: |dz| = {abs(dz)}"
            assert cur.position[0] - prev.position[0] == pytest.approx(6.25)


def test_track_yaw_faces_incoming_segment():
    track = generate_track(difficulty=1.5, seed=11)
    for prev, cur in zip(track.gate_poses, track.gate_poses[1:]):
        dy = cur.position[1] - prev.position[1]
        expected = math.atan2(dy, 6.25)
        assert cur.yaw == pytest.approx(expected, abs=1e-12)


def test_track_validation():
    with pytest.raises(ValueError, match="num_gates"):
        generate_track(num_gates=0)
    with pytest.raises(ValueError, match="difficulty"):
        generate_track(difficulty=-0.1)
    with pytest.raises(ValueError, match="spacing"):
        generate_track(spacing=0.0)
    with pytest.raises(ValueError, match="laps"):
        generate_track(laps=0)
    # Past MAX_LEVEL the gates' squared clearances could overflow.
    too_wide = math.nextafter(MAX_LEVEL, math.inf)
    for name, value in [("difficulty", v) for v in (math.nan, math.inf, 1e308, 1e160, too_wide)] + [
        ("spacing", v) for v in (math.nan, math.inf, 1e200)  # 1e200: a track 2.4e201 m long
    ]:
        with pytest.raises(ValueError, match=name):
            generate_track(**{name: value})


def test_virtual_gate_pose_lap_shift():
    track = generate_track(num_gates=8, spacing=6.25, difficulty=1.0, laps=3, seed=5)
    base = track.gate_poses[2]
    lap2 = virtual_gate_pose(track, 2 + 8)
    lap3 = virtual_gate_pose(track, 2 + 16)
    assert np.allclose(lap2.position, base.position + [50.0, 0.0, 0.0])
    assert np.allclose(lap3.position, base.position + [100.0, 0.0, 0.0])
    assert lap2.yaw == base.yaw == lap3.yaw
    with pytest.raises(IndexError):
        virtual_gate_pose(track, 24)
    with pytest.raises(IndexError):
        virtual_gate_pose(track, -1)


def test_gate_estimate_error_support():
    track = generate_track(difficulty=1.0, seed=2)
    dv = np.array([0.25, 0.25, 0.25])
    rng = np.random.default_rng(0)
    true = virtual_gate_pose(track, 3)
    for _ in range(500):
        est = _estimate(true, rng.uniform(-1.0, 1.0, size=3), dv)
        err = est.position - true.position
        assert np.all(np.abs(err) <= dv), f"estimate error {err} outside support"
        assert est.yaw == true.yaw
    # True gate is always inside the inflation box around the estimate.
    for _ in range(500):
        est = _estimate(true, rng.uniform(-1.0, 1.0, size=3), dv)
        assert np.all(np.abs(true.position - est.position) <= dv)


def test_nominal_policy_pinned():
    state = SimState(x=np.array([0.0, 0.0, 0.0]))
    est = Pose(position=np.array([1.0, 0.0, 0.0]), yaw=0.0)
    # Target (4, 0, 0), gain 2 -> raw action (8, 0, 0), clipped to norm 3.
    u = nominal_policy(state, est, gain=2.0, alpha=3.0, pass_offset=3.0)
    assert np.allclose(u, [3.0, 0.0, 0.0])
    # Close in, below the clip: target (1.1, 0, 0) from x = (1, 0, 0).
    state2 = SimState(x=np.array([1.0, 0.0, 0.0]))
    u2 = nominal_policy(state2, est, gain=2.0, alpha=3.0, pass_offset=0.1)
    assert np.allclose(u2, [0.2, 0.0, 0.0], atol=1e-12)


def test_nominal_policy_rotated_target():
    state = SimState(x=np.zeros(3))
    est = Pose(position=np.array([2.0, 1.0, 0.0]), yaw=math.pi / 2)
    u = nominal_policy(state, est, gain=1.0, alpha=10.0, pass_offset=1.0)
    assert np.allclose(u, [2.0, 2.0, 0.0], atol=1e-12), "offset must rotate with gate yaw"


@pytest.mark.parametrize("x, message", [
    (np.zeros(4), r"^expected a 3-vector, got shape \(4,\)$"),
    (np.zeros(2), r"^expected a 3-vector, got shape \(2,\)$"),
    (np.zeros((3, 1)), r"^expected a 3-vector, got shape \(3, 1\)$"),
    (np.array([math.nan, 0.0, 0.0]), r"^point must be finite"),
    ([0.0, math.inf, 0.0], r"^point must be finite"),
])
def test_nominal_policy_rejects_a_position_that_is_no_finite_3_vector(x, message):
    est = Pose(position=np.array([1.0, 0.0, 0.0]), yaw=0.0)
    with pytest.raises(ValueError, match=message):
        nominal_policy(SimState(x=x), est, gain=2.0, alpha=3.0, pass_offset=3.0)


def test_trial_difficulty_zero_filtered_full_success(default_env):
    track = generate_track(difficulty=0.0, seed=42)
    for mode in MODES:
        r = run_trial(default_env, track, mode, seed=7)
        assert r.safe, f"{mode}: straight corridor must be safe"
        assert r.success_rate == 1.0, f"{mode}: straight corridor must pass all gates"
        assert r.gates_passed == r.total_gates == 24
        assert not r.timed_out
        assert r.min_distance > default_env.params.R - 0.1


def test_trial_result_invariants(default_env):
    track = generate_track(difficulty=1.5, seed=1003)
    for mode in MODES:
        r = run_trial(default_env, track, mode, seed=55)
        assert 0.0 <= r.success_rate <= 1.0
        if not r.safe:
            assert r.min_distance == 0.0, "collision must zero the min distance"
        assert r.steps == len(r.log.t) == len(r.log.d_true) == len(r.log.status)
        assert r.log.x.shape == (r.steps, 3)
        # Step counts and flags agree with the status log and are plain Python values.
        assert all(type(v) is int for v in (r.fallback_steps, r.off_map_steps, r.in_obstacle_steps))
        assert type(r.clean) is bool and type(r.timed_out) is bool
        status = list(r.log.status)
        assert r.fallback_steps == status.count(STEP_FALLBACK)
        assert r.off_map_steps == status.count(STEP_OFF_MAP)
        assert r.in_obstacle_steps == status.count(STEP_IN_OBSTACLE)
        assert r.clean == (STEP_FALLBACK not in status and STEP_IN_OBSTACLE not in status)
        assert not r.timed_out or r.safe, "a timeout is a safe ending"
        if r.safe:
            assert r.min_distance <= r.log.d_true.min()


def test_trial_bitwise_determinism(default_env):
    track = generate_track(difficulty=1.0, seed=77)
    a = run_trial(default_env, track, "filtered_uncertainty", seed=9)
    b = run_trial(default_env, track, "filtered_uncertainty", seed=9)
    assert a.safe == b.safe and a.success_rate == b.success_rate
    assert a.min_distance == b.min_distance
    assert np.array_equal(a.log.x, b.log.x), "trajectories must be bitwise identical"
    assert np.array_equal(a.log.h, b.log.h, equal_nan=True)
    assert np.array_equal(a.log.status, b.log.status)


def test_baseline_never_deviates(default_env):
    track = generate_track(difficulty=1.5, seed=1001)
    r = run_trial(default_env, track, "baseline", seed=3)
    assert np.all(r.log.deviation == 0.0), "baseline must not alter actions"
    assert np.all(np.isnan(r.log.h)), "baseline logs no barrier value"
    assert r.off_map_steps == 0 and r.fallback_steps == 0


def test_forced_baseline_collision(default_env):
    # Deterministic straight line (no noise) from a spawn aimed at a bar:
    # from (-2, 1.4, 0) toward the pass-through target (3, 0, 0), the path
    # crosses the gate plane at y = 1.4 * 3/5 = 0.84, inside the bar band
    # [0.75, 1.0].
    params = SafetyParams(dw=np.zeros(3), dv=np.zeros(3))
    env = SimEnv(
        gate=default_env.gate,
        nominal_field=default_env.nominal_field,
        inflated_field=default_env.inflated_field,
        params=params,
    )
    track = generate_track(difficulty=0.0, seed=0)
    r = run_trial(env, track, "baseline", seed=0, spawn=np.array([-2.0, 1.4, 0.0]))
    assert not r.safe, "trajectory through the bar must collide"
    assert r.min_distance == 0.0
    assert r.gates_passed == 0
    assert not r.timed_out


def test_forced_miss_advances_without_credit(default_env):
    # Same setup but aimed far outside the frame: crossing at y = 2.5*0.6 =
    # 1.5 > outer half-width, a miss; the trial continues and passes the
    # remaining gates.
    params = SafetyParams(dw=np.zeros(3), dv=np.zeros(3))
    env = SimEnv(
        gate=default_env.gate,
        nominal_field=default_env.nominal_field,
        inflated_field=default_env.inflated_field,
        params=params,
    )
    track = generate_track(difficulty=0.0, seed=0)
    r = run_trial(env, track, "baseline", seed=0, spawn=np.array([-2.0, 2.5, 0.0]))
    assert r.safe, "missing the frame entirely must not collide"
    assert r.gates_passed == r.total_gates - 1
    assert r.success_rate == pytest.approx(23 / 24)
    assert r.min_distance > 0.0


def test_filtered_keeps_distance_at_forced_collision_heading(default_env):
    # The same bar-bound heading, but with the safety filter active: no
    # collision, clearance stays above the protected radius minus sampling
    # error.
    params = SafetyParams(dw=np.zeros(3), dv=np.zeros(3))
    env = SimEnv(
        gate=default_env.gate,
        nominal_field=default_env.nominal_field,
        inflated_field=default_env.inflated_field,
        params=params,
    )
    track = generate_track(difficulty=0.0, seed=0)
    r = run_trial(env, track, "filtered", seed=0, spawn=np.array([-2.0, 1.4, 0.0]))
    assert r.safe, "filter must prevent the bar strike"
    assert r.min_distance >= params.R - 0.087, (
        f"clearance {r.min_distance:.3f} dipped below certified corridor"
    )


def test_spawn_validation(default_env):
    track = generate_track(difficulty=0.0, seed=0)
    with pytest.raises(SetupError, match="inside"):
        run_trial(default_env, track, "baseline", seed=0, spawn=np.array([0.0, 0.875, 0.0]))
    # The error names the first gate of the unrolled track whose frame holds the spawn.
    gate3 = virtual_gate_pose(track, 3).position
    with pytest.raises(SetupError, match=r"inside the gate-3 frame"):
        run_trial(default_env, track, "baseline", seed=0, spawn=gate3 + np.array([0.0, 0.875, 0.0]))
    with pytest.raises(SetupError, match="before gate 0"):
        run_trial(default_env, track, "baseline", seed=0, spawn=np.array([3.0, 3.0, 0.0]))
    with pytest.raises(SetupError, match="unsafe"):
        run_trial(default_env, track, "baseline", seed=0, spawn=np.array([-0.2, 0.85, 0.0]))


def test_run_trial_rejects_unknown_mode(default_env):
    track = generate_track(difficulty=0.0, seed=0)
    with pytest.raises(ValueError, match="mode"):
        run_trial(default_env, track, "unfiltered", seed=0)


def test_trial_without_inflated_field(default_env):
    env = SimEnv(
        gate=default_env.gate,
        nominal_field=default_env.nominal_field,
        inflated_field=None,
        params=default_env.params,
    )
    track = generate_track(difficulty=0.0, seed=0)
    with pytest.raises(ValueError, match="inflated"):
        run_trial(env, track, "filtered_uncertainty", seed=0)
    r = run_trial(env, track, "filtered", seed=0)
    assert r.safe


@pytest.mark.parametrize(
    "knob, value",
    [("gain", math.nan), ("gain", math.inf), ("gain", 0.0),
     ("pass_offset", math.nan), ("pass_offset", math.inf), ("pass_offset", -0.5), ("pass_offset", 1e200),
     ("dt", 0.0), ("dt", 1.0), ("max_steps", 0)],
)
def test_sim_env_rejects_knobs_the_config_rejects(default_env, knob, value):
    with pytest.raises(ValueError, match=knob):
        SimEnv(
            gate=default_env.gate,
            nominal_field=default_env.nominal_field,
            inflated_field=None,
            params=default_env.params,
            **{knob: value},
        )


def test_the_largest_level_flies_every_mode_without_overflow(default_env):
    # pytest turns a RuntimeWarning (an overflowing square) into an error.
    for track in (generate_track(difficulty=MAX_LEVEL, seed=3),
                  generate_track(num_gates=1000, difficulty=MAX_LEVEL, laps=1, seed=4)):
        assert np.max(np.abs([p.position[1:] for p in track.gate_poses])) > 0.5 * MAX_LEVEL
        for mode in MODES:
            r = run_trial(default_env, track, mode, seed=5)
            assert r.steps > 0 and math.isfinite(r.min_distance)


def test_noise_and_pass_offset_at_the_level_bound_fly_without_overflow(default_env):
    # pytest turns a RuntimeWarning (an overflowing square) into an error.
    env = SimEnv(gate=default_env.gate, nominal_field=default_env.nominal_field, inflated_field=None,
                 params=SafetyParams(dw=np.full(3, MAX_LEVEL), dv=np.full(3, MAX_LEVEL)),
                 max_steps=1000, pass_offset=MAX_LEVEL)
    for track in (generate_track(difficulty=0.0, seed=0), generate_track(difficulty=MAX_LEVEL, seed=3)):
        for mode in ("baseline", "filtered"):
            r = run_trial(env, track, mode, seed=5)
            assert r.steps > 0 and math.isfinite(r.min_distance)
            assert np.all(np.isfinite(r.log.x)) and np.abs(r.log.x).max() > 1e149


def test_sim_env_accepts_zero_pass_offset(default_env):
    env = SimEnv(
        gate=default_env.gate,
        nominal_field=default_env.nominal_field,
        inflated_field=None,
        params=default_env.params,
        pass_offset=0.0,
    )
    assert env.pass_offset == 0.0


def test_run_experiment_grid_shape(default_env):
    records = run_experiment(
        default_env,
        levels=(0.0, 0.5),
        tracks_per_level=2,
        modes=("baseline", "filtered"),
        laps=1,
    )
    assert len(records) == 2 * 2 * 2
    # Modes share the track seed within a (level, track) cell.
    by_cell = {}
    for rec in records:
        by_cell.setdefault((rec.level, rec.track_index), []).append(rec.seed)
    for seeds in by_cell.values():
        assert len(set(seeds)) == 1, "modes must fly identically-seeded tracks"
    # Distinct cells use distinct seeds.
    all_seeds = {seeds[0] for seeds in by_cell.values()}
    assert len(all_seeds) == 4


def test_working_filter_stalls_without_fallback(default_env):
    # With zero disturbance the QP is always feasible (u = 0 satisfies any
    # b <= 0 constraint), so an approach aimed at a bar stalls at the
    # protected radius rather than falling back.
    params = SafetyParams(R=0.3, gamma=4.0, alpha=0.05, dw=np.zeros(3), dv=np.zeros(3))
    env = SimEnv(
        gate=default_env.gate,
        nominal_field=default_env.nominal_field,
        inflated_field=default_env.inflated_field,
        params=params,
        max_steps=200,
    )
    track = generate_track(difficulty=0.0, seed=0)
    r = run_trial(env, track, "filtered", seed=0, spawn=np.array([-0.5, 0.875, 0.0]))
    assert r.safe and r.timed_out
    assert r.fallback_steps == 0 and r.clean
    assert r.min_distance == pytest.approx(params.R, abs=0.01), "stall sits at the protected radius"


def test_unclean_trial_flags(default_env):
    # Disturbance bound far above the actuation bound: the robustness term
    # exceeds what any admissible action can counter near the bar (onset at
    # d ~ 0.43 > spawn clearance 0.375 >= R), so the trial hits the fallback
    # immediately and must be flagged not clean.
    params = SafetyParams(R=0.3, gamma=4.0, alpha=0.05, dw=np.full(3, 0.5), dv=np.zeros(3))
    env = SimEnv(
        gate=default_env.gate,
        nominal_field=default_env.nominal_field,
        inflated_field=default_env.inflated_field,
        params=params,
        max_steps=200,
    )
    track = generate_track(difficulty=0.0, seed=0)
    r = run_trial(env, track, "filtered", seed=0, spawn=np.array([-0.5, 0.875, 0.0]))
    assert r.fallback_steps > 0, "overwhelming disturbance bound must trigger the fallback"
    assert not r.clean
    assert r.log.status[0] == STEP_FALLBACK

    # Spawned 0.055 m from the bar with R = 0.05: the first sample's cell has
    # an inside-solid corner, so the filter cannot run and the trial is not
    # clean even though it never fell back.
    params = SafetyParams(R=0.05, dw=np.zeros(3), dv=np.zeros(3))
    env = SimEnv(
        gate=default_env.gate,
        nominal_field=default_env.nominal_field,
        inflated_field=default_env.inflated_field,
        params=params,
        max_steps=20,
    )
    r = run_trial(env, track, "filtered", seed=0, spawn=np.array([-0.18, 0.875, 0.0]))
    assert r.log.status[0] == STEP_IN_OBSTACLE
    assert r.in_obstacle_steps >= 1 and r.fallback_steps == 0
    assert not r.clean


def _array_nominal_policy(state, estimate, gain, alpha, pass_offset):
    """nominal_policy on numpy arrays, its norm summed left to right in floats, plus whether it clipped."""
    c, s = math.cos(estimate.yaw), math.sin(estimate.yaw)
    target = estimate.position + pass_offset * np.array([c, s, 0.0])
    u = gain * (target - state.x)
    ux, uy, uz = u.tolist()
    n = math.sqrt((ux * ux + uy * uy) + uz * uz)
    if n > alpha:
        u *= alpha / n
    return u, n > alpha


def test_nominal_policy_is_bit_identical_to_array_reference():
    rng = np.random.default_rng(31)
    clipped = set()
    for _ in range(10_000):
        yaw = float(rng.choice([0.0, -0.0, math.pi, rng.uniform(-math.pi, math.pi)]))
        pos = rng.uniform(-20.0, 20.0, size=3) * (rng.random(3) < 0.8)
        pos[rng.random(3) < 0.1] = -0.0
        x = pos + rng.normal(scale=rng.choice([0.01, 1.0, 8.0]), size=3)
        x[rng.random(3) < 0.1] = rng.choice([0.0, -0.0])
        args = (
            SimState(x=x), Pose(position=pos, yaw=yaw),
            float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.1, 5.0)), float(rng.choice([0.0, 0.5, 3.0])),
        )
        want, clip = _array_nominal_policy(*args)
        got = nominal_policy(*args)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes(), args
        clipped.add(clip)
    assert clipped == {True, False}


def test_nominal_policy_clips_the_direction_when_the_action_norm_overflows(default_env):
    est = Pose(position=np.array([1.0, 2.0, -2.0]), yaw=0.0)
    x = np.array([0.0, 0.0, 1.0])
    # gain * (target - x) = 1e300 * (4, 2, -3): its squared norm overflows to
    # inf (silently, in floats), so the direction is clipped.
    u = nominal_policy(SimState(x=x), est, gain=1e300, alpha=3.0, pass_offset=3.0)
    d = np.array([4.0, 2.0, -3.0])
    assert u.tobytes() == (d * (3.0 / math.sqrt(29.0))).tobytes()
    # Where the squared norm stays finite, near 2**510 and past it, the
    # action keeps the bits of the array reference.
    for gain in (1e150, 2.0**510 / 4.0, 1e153):
        args = (SimState(x=x), est, gain, 3.0, 3.0)
        assert nominal_policy(*args).tobytes() == _array_nominal_policy(*args)[0].tobytes()
    # Such a gain flies the track at the norm bound: the robot no longer drifts.
    env = SimEnv(gate=default_env.gate, nominal_field=default_env.nominal_field,
                 inflated_field=default_env.inflated_field, params=default_env.params, gain=1e300)
    track = generate_track(difficulty=0.0, seed=0)
    for mode in MODES:
        r = run_trial(env, track, mode, seed=0)
        assert r.safe and r.gates_passed > 0, mode


def _per_step_draw_trial(env, track, mode, seed, spawn=None):
    """The trial loop with one rng.uniform call per estimate and per step.

    Returns (safe, gates_passed, gate_index, whether the trial ended on
    the gate just passed, StepLog columns t, x, q, h, status, deviation)
    with q holding one more row (the final position) when the trial ended
    safely.
    """
    fld = {"filtered": env.nominal_field, "filtered_uncertainty": env.inflated_field}.get(mode)
    params = env.params
    if spawn is None:
        spawn = track.gate_poses[0].position - np.array([track.spacing, 0.0, 0.0])
    rng = np.random.default_rng(seed)
    x = np.asarray(spawn, dtype=float).copy()
    t = 0.0
    gate_index = gates_passed = 0
    total = track.total_gates
    rows = {k: [] for k in ("t", "x", "q", "h", "status", "deviation")}
    pose = virtual_gate_pose(track, 0)
    q = world_to_gate(x, pose)
    estimate = Pose(position=pose.position + rng.uniform(-1.0, 1.0, size=3) * params.dv, yaw=pose.yaw)
    prev_pose = None
    exit_window = env.gate.half_depth + (params.alpha + float(np.max(params.dw))) * env.dt * 2.0
    safe = True
    hit_previous = False
    steps = 0
    while steps < env.max_steps and gate_index < total:
        u = nominal_policy(SimState(x=x), estimate, env.gain, params.alpha, env.pass_offset)
        status, h_val, dev = STEP_UNCHANGED, math.nan, 0.0
        if fld is not None:
            try:
                ev = eval_barrier_world(fld, x, estimate, params)
            except OutOfBoundsError:
                status = STEP_OFF_MAP
            except InsideObstacleError:
                status = STEP_IN_OBSTACLE
            else:
                h_val = ev.h
                dec = filter_action(u, assemble_constraint(ev, params), params)
                u, dev, status = dec.u_star, dec.deviation, FILTER_STATUS_ORDER.index(dec.status)
        w = rng.uniform(-1.0, 1.0, size=3) * params.dw
        x_new = x + (u + w) * env.dt
        for k, v in zip(rows, (t, x, q, h_val, status, dev)):
            rows[k].append(v)
        steps += 1
        q_new = world_to_gate(x_new, pose)
        hit = segment_hits_frame(q, q_new, env.gate)
        if not hit and prev_pose is not None:
            qp0 = world_to_gate(x, prev_pose)
            if qp0[0] <= exit_window:
                hit = hit_previous = segment_hits_frame(qp0, world_to_gate(x_new, prev_pose), env.gate)
            else:
                prev_pose = None
        if hit:
            safe = False
            break
        if q[0] < 0.0 <= q_new[0]:
            frac = -q[0] / (q_new[0] - q[0])
            cross = q + frac * (q_new - q)
            if max(abs(cross[1]), abs(cross[2])) < env.gate.inner_half - PASS_MARGIN:
                gates_passed += 1
            prev_pose = pose
            gate_index += 1
            if gate_index < total:
                pose = virtual_gate_pose(track, gate_index)
                q_new = world_to_gate(x_new, pose)
                estimate = Pose(position=pose.position + rng.uniform(-1.0, 1.0, size=3) * params.dv, yaw=pose.yaw)
        x = x_new
        t += env.dt
        q = q_new
    if safe:
        rows["q"].append(q)
    return safe, gates_passed, gate_index, hit_previous, {k: np.array(v) for k, v in rows.items()}


def _env(default_env, params: SafetyParams, max_steps: int = 150) -> SimEnv:
    return SimEnv(
        gate=default_env.gate,
        nominal_field=default_env.nominal_field,
        inflated_field=default_env.inflated_field,
        params=params,
        max_steps=max_steps,
    )


def test_run_trial_matches_per_step_draw_loop(default_env):
    track = generate_track(num_gates=3, difficulty=1.0, laps=1, seed=1234)
    noisy = SafetyParams(dw=np.full(3, 0.1), dv=np.full(3, 0.25))
    quiet = SafetyParams(dw=np.zeros(3), dv=np.zeros(3))
    # The next gate lies to the side of the first, so the turn after the
    # crossing flies into the back of the first gate's bar (baseline mode).
    turn = TrackSpec(num_gates=2, spacing=6.25, laps=1,
                     gate_poses=[Pose(position=np.zeros(3), yaw=0.0), Pose(position=np.array([1.4, 1.7, 0.0]), yaw=-2.0)])
    # Baseline crosses the second gate's plane just outside its +y bar, and the
    # turn towards the third gate clips that bar on the very next step: only
    # the crossing point, kept in the passed gate's frame, finds the hit.
    outside = TrackSpec(num_gates=3, spacing=6.25, laps=1, gate_poses=[
        Pose(position=np.zeros(3), yaw=0.0),
        Pose(position=np.array([6.25, 0.1, 0.0]), yaw=0.5),
        Pose(position=np.array([5.6, -2.0, 0.0]), yaw=1.0),
    ])
    cases = [
        (default_env, track, None, 99),
        (_env(default_env, noisy), track, None, 99),
        (default_env, track, np.array([-2.0, 1.4, 0.0]), 99),
        (_env(default_env, SafetyParams(dw=np.full(3, 0.3), dv=np.zeros(3))), turn, np.array([-2.0, 0.1, 0.2]), 99),
        (_env(default_env, quiet, max_steps=400), outside, None, 99),
        # With R = 0.05, filtered_uncertainty flies its first steps in cells with
        # an inside-solid corner of the inflated map, then on through the gate.
        (_env(default_env, SafetyParams(R=0.05, dw=np.zeros(3), dv=np.zeros(3))), track,
         np.array([-0.5, 0.7, 0.0]), 99),
    ]
    # The grid workload's 12 trials at benchmark seed 0: the default config, one track per level.
    for rec in run_experiment(default_env, tracks_per_level=1, modes=("baseline",)):
        cases.append((default_env, generate_track(difficulty=rec.level, seed=rec.seed), None, rec.seed + 500_000))
    endings = set()
    crossings = 0
    statuses = set()
    for env, trk, spawn, seed in cases:
        for mode in MODES:
            r = run_trial(env, trk, mode, seed=seed, spawn=spawn)
            safe, passed, gate_index, hit_previous, ref = _per_step_draw_trial(env, trk, mode, seed, spawn)
            assert (r.safe, r.gates_passed, r.steps) == (safe, passed, len(ref["t"]))
            assert r.timed_out == (safe and gate_index < trk.total_gates)
            log = r.log
            for name in ("t", "x", "h", "deviation"):
                got, want = getattr(log, name), ref[name]
                assert got.dtype == want.dtype == np.float64 and got.tobytes() == want.tobytes(), (mode, name)
            assert log.status.tolist() == ref["status"].tolist()
            d = exact_distance_batch(ref["q"], env.gate)
            assert log.d_true.tobytes() == d[: r.steps].tobytes()
            assert r.min_distance == (float(d.min()) if safe else 0.0)
            endings.add("timeout" if r.timed_out else "done" if safe else "collision" if not hit_previous else "slab exit")
            if mode != "baseline" and safe:
                assert STEP_PROJECTED in log.status and STEP_OFF_MAP in log.status, mode
            if trk is outside and mode == "baseline":
                assert hit_previous and gate_index == 2, "the next step after the crossing must hit the passed gate"
            statuses.update(log.status.tolist())
            crossings = max(crossings, gate_index)
    # Estimates drawn after gate advances sit between noise draws in the stream.
    assert crossings == 24, "some grid trial flies every gate"
    assert endings == {"done", "timeout", "collision", "slab exit"}
    assert {STEP_UNCHANGED, STEP_PROJECTED, STEP_OFF_MAP, STEP_IN_OBSTACLE} <= statuses


_NUMPY_DIR = os.path.dirname(np.__file__)


def _numpy_code(code) -> bool:
    # The argument dispatchers of numpy's array-function protocol run as
    # part of the call they dispatch.
    return code.co_filename.startswith(_NUMPY_DIR) and not code.co_name.endswith("_dispatcher")


def _numpy_builtin(fn) -> bool:
    owner = getattr(fn, "__self__", None)
    return (getattr(fn, "__module__", None) or "").startswith("numpy") or type(owner).__module__.startswith("numpy")


def _numpy_calls(fn):
    """``fn()`` and how often code outside numpy called into numpy meanwhile.

    ``sys.setprofile`` sees calls of numpy's Python functions and of its
    builtin functions and methods (``np.array``, ``ndarray.tolist``, ...);
    a ufunc call makes no profile event and is not counted.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += _numpy_code(frame.f_code) and not (frame.f_back and _numpy_code(frame.f_back.f_code))
        elif event == "c_call":
            calls += _numpy_builtin(arg) and not _numpy_code(frame.f_code)

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return result, calls


def test_trial_steps_make_no_numpy_call(default_env):
    # On fully derived maps a trial calls numpy a fixed number of times, then
    # a fixed number per gate (its poses, the spawn check) and once per block
    # of 1,024 noise rows, however many steps it flies: off-map steps and
    # in-obstacle steps, whose errors are raised and caught, included.
    nominal, inflated = copy.deepcopy(default_env.nominal_field), copy.deepcopy(default_env.inflated_field)
    nominal.gradients, inflated.gradients
    env = SimEnv(gate=default_env.gate, nominal_field=nominal, inflated_field=inflated, params=default_env.params)
    rows = _uniform_rows(np.random.default_rng(0))
    assert _numpy_calls(lambda: next(rows))[1] == 1  # the block's tolist; the draw makes no profile event
    # The last case flies its first steps in cells with an inside-solid corner.
    cases = [(env, generate_track(difficulty=level, seed=seed), None) for level, seed in ((0.0, 1001), (1.0, 3002))]
    close = _env(env, SafetyParams(R=0.05, dw=np.zeros(3), dv=np.zeros(3)))
    cases.append((close, generate_track(num_gates=3, difficulty=1.0, laps=1, seed=1234), np.array([-0.5, 0.7, 0.0])))
    steps = {"off_map": 0, "in_obstacle": 0}
    for trial_env, track, spawn in cases:
        for mode in ("filtered", "filtered_uncertainty"):
            r, calls = _numpy_calls(lambda: run_trial(trial_env, track, mode, seed=99, spawn=spawn))
            rows = r.steps + r.total_gates  # a noise row per step and per gate estimate, at most
            assert calls <= 40 + 18 * r.total_gates + (rows // 1024 + 1), (mode, r.steps, calls)
            for status in steps:
                steps[status] += getattr(r, f"{status}_steps")
    assert steps["off_map"] > 0 and steps["in_obstacle"] > 0
