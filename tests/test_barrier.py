"""Barrier value, linear constraint assembly, and disturbance robustness."""
import math

import numpy as np
import pytest

from gatesafe.barrier import (
    ADMISSIBLE_TOL,
    BarrierEval,
    SafetyParams,
    _constraint,
    admissible,
    assemble_constraint,
    eval_barrier_world,
)
from gatesafe.field import GridSpec, build_field, inflate_field, sample
from gatesafe.geometry import MAX_LEVEL, GateGeometry, Pose
from gatesafe.qp import FilterStatus, filter_action


def test_constraint_worked_example():
    # d=2, grad=(1,0,0), gamma=2, R=1, dw=0.1 per axis:
    #   a = 2*2*(1,0,0) = (4,0,0)
    #   C = 2*2*0.1 = 0.4
    #   h = 4 - 1 = 3
    #   b = -2*3 + 0.4 = -5.6
    params = SafetyParams(R=1.0, gamma=2.0, alpha=3.0, dw=np.full(3, 0.1))
    ev = BarrierEval(d=2.0, grad=np.array([1.0, 0.0, 0.0]), h=3.0)
    con = assemble_constraint(ev, params)
    assert np.allclose(con.a, [4.0, 0.0, 0.0]), f"a = {con.a}, expected (4,0,0)"
    assert con.b == pytest.approx(-5.6, abs=1e-12), f"b = {con.b}, expected -5.6"
    assert filter_action(np.zeros(3), con, params).status is not FilterStatus.INFEASIBLE_FALLBACK


def test_constraint_without_disturbance():
    params = SafetyParams(R=1.0, gamma=2.0, alpha=3.0, dw=np.zeros(3))
    ev = BarrierEval(d=2.0, grad=np.array([1.0, 0.0, 0.0]), h=3.0)
    con = assemble_constraint(ev, params)
    assert con.b == pytest.approx(-6.0), "zero disturbance should drop the robustness term"


def test_constraint_tightens_with_disturbance():
    ev = BarrierEval(d=1.5, grad=np.array([0.6, -0.8, 0.0]), h=1.5**2 - 0.09)
    b_prev = -np.inf
    for w in (0.0, 0.05, 0.2, 0.5):
        con = assemble_constraint(ev, SafetyParams(dw=np.full(3, w)))
        assert con.b > b_prev or w == 0.0, "b must grow with the disturbance bound"
        b_prev = con.b


def test_constraint_relaxes_with_gamma_when_safe():
    # Inside the safe set (h > 0) a faster decay rate gamma permits more
    # approach speed: b decreases with gamma.
    ev = BarrierEval(d=2.0, grad=np.array([1.0, 0.0, 0.0]), h=3.0)
    bs = [assemble_constraint(ev, SafetyParams(R=1.0, gamma=g)).b for g in (1.0, 2.0, 4.0, 8.0)]
    assert all(b2 < b1 for b1, b2 in zip(bs, bs[1:])), f"b not decreasing in gamma: {bs}"


def test_degenerate_gradient():
    params = SafetyParams(R=0.5, gamma=4.0)
    safe = assemble_constraint(BarrierEval(d=2.0, grad=np.zeros(3), h=2.0**2 - 0.25), params)
    assert np.all(safe.a == 0.0) and safe.b < 0.0
    assert filter_action(np.zeros(3), safe, params).status is FilterStatus.DEGENERATE_SAFE, (
        "a=0 with b<=0 is vacuously feasible"
    )

    stuck = assemble_constraint(BarrierEval(d=0.2, grad=np.zeros(3), h=0.04 - 0.25), params)
    assert np.all(stuck.a == 0.0) and stuck.b > 0.0
    assert filter_action(np.zeros(3), stuck, params).status is FilterStatus.INFEASIBLE_FALLBACK, (
        "a=0 with b>0 admits no action"
    )


def test_admissible_examples():
    params = SafetyParams(R=1.0, gamma=2.0, alpha=3.0, dw=np.full(3, 0.1))
    con = assemble_constraint(BarrierEval(d=2.0, grad=np.array([1.0, 0.0, 0.0]), h=3.0), params)
    assert admissible(np.array([0.0, 0.0, 0.0]), con, params)
    assert admissible(np.array([-1.4, 0.0, 0.0]), con, params), "a.u = -5.6 = b sits on the boundary"
    assert not admissible(np.array([-2.0, 0.0, 0.0]), con, params), "a.u = -8 < b"
    assert not admissible(np.array([3.0, 1.0, 0.0]), con, params), "norm exceeds alpha"
    assert admissible(np.array([-1.4 - ADMISSIBLE_TOL / 8.0, 0.0, 0.0]), con, params), (
        "boundary tolerance should absorb sub-tolerance violations"
    )


def test_robustness_soundness_sampled_disturbances(rng):
    """Any admissible action keeps dh/dt + gamma*h >= 0 for every |w_k| <= dw_k.

    dh/dt = 2 d grad . (u + w); the robustness constant was chosen to make the
    worst admissible disturbance exactly cancel at the constraint boundary.
    """
    params = SafetyParams(R=0.4, gamma=3.0, alpha=2.5, dw=np.array([0.1, 0.05, 0.2]))
    for _ in range(50):
        d = float(rng.uniform(0.05, 2.5))
        g = rng.normal(size=3)
        norm = np.linalg.norm(g)
        g = g / norm * rng.uniform(0.3, 1.0)
        ev = BarrierEval(d=d, grad=g, h=d * d - params.R**2)
        con = assemble_constraint(ev, params)
        if filter_action(np.zeros(3), con, params).status is FilterStatus.INFEASIBLE_FALLBACK:
            continue
        # Take the boundary action along a (worst admissible action).
        na = np.linalg.norm(con.a)
        if na < 1e-12:
            continue
        u = con.a / na**2 * con.b if abs(con.b) > 0 else np.zeros(3)
        if np.linalg.norm(u) > params.alpha:
            continue
        w = rng.uniform(-1.0, 1.0, size=(200, 3)) * params.dw
        w = np.vstack([w, -np.sign(ev.grad) * params.dw])  # exact worst case
        hdot = 2.0 * d * (w + u) @ ev.grad
        cond = hdot + params.gamma * ev.h
        assert np.all(cond >= -1e-9), (
            f"barrier condition violated under admissible disturbance: min {cond.min():.3e}"
        )
        worst = cond[-1]
        assert abs(worst) <= 1e-9, f"worst-case disturbance should be exactly binding, got {worst:.3e}"


def test_eval_barrier_matches_field_sample(default_gate):
    spec = GridSpec(origin=np.array([-1.5, -2.0, -2.0]), resolution=0.1, dims=(31, 41, 41))
    f = build_field(default_gate, spec)
    params = SafetyParams(R=0.3)
    q = np.array([0.31, 0.22, -0.17])
    ev = eval_barrier_world(f, q, Pose(), params)
    d, grad = sample(f, q)
    assert ev.d == d
    assert np.array_equal(ev.grad, grad)
    assert ev.h == pytest.approx(d * d - 0.09, abs=1e-15)


def test_eval_barrier_world_rotates_gradient(default_gate):
    spec = GridSpec(origin=np.array([-1.5, -2.0, -2.0]), resolution=0.1, dims=(31, 41, 41))
    f = build_field(default_gate, spec)
    params = SafetyParams(R=0.3)
    pose = Pose(position=np.array([3.0, -1.0, 0.5]), yaw=math.pi / 3)
    q = np.array([0.4, 0.3, -0.2])
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    x_world = pose.position + rot @ q

    ev_local = eval_barrier_world(f, q, Pose(), params)
    ev_world = eval_barrier_world(f, x_world, pose, params)
    assert ev_world.d == pytest.approx(ev_local.d, abs=1e-12)
    assert ev_world.h == pytest.approx(ev_local.h, abs=1e-12)
    assert np.allclose(ev_world.grad, rot @ ev_local.grad, atol=1e-12), (
        "world gradient must be the rotated local gradient"
    )


def test_world_constraint_direction_pushes_outward(default_gate):
    # A point approaching the top bar from below, gate rotated 90 degrees:
    # the world-frame constraint must push along the world direction that
    # increases clearance.
    spec = GridSpec(origin=np.array([-1.5, -2.0, -2.0]), resolution=0.1, dims=(31, 41, 41))
    f = build_field(default_gate, spec)
    params = SafetyParams(R=0.3)
    pose = Pose(position=np.zeros(3), yaw=math.pi / 2)
    q = np.array([0.0, 0.0, 0.55])  # below the top bar, local frame
    x_world = pose.position + np.array([-q[1], q[0], q[2]])
    ev = eval_barrier_world(f, x_world, pose, params)
    con = assemble_constraint(ev, params)
    # Moving down (away from the bar above) must improve the margin.
    assert con.a @ np.array([0.0, 0.0, -1.0]) > 0.0, "downward motion should be the improving direction"


def test_inflated_field_is_more_conservative(default_gate, rng):
    spec = GridSpec(origin=np.array([-1.5, -2.0, -2.0]), resolution=0.1, dims=(31, 41, 41))
    nominal = build_field(default_gate, spec)
    inflated = inflate_field(nominal, np.full(3, 0.3))
    params = SafetyParams(R=0.3)
    checked = 0
    for _ in range(2000):
        q = rng.uniform([-1.3, -1.8, -1.8], [1.3, 1.8, 1.8])
        try:
            ev_n = eval_barrier_world(nominal, q, Pose(), params)
            ev_i = eval_barrier_world(inflated, q, Pose(), params)
        except ValueError:
            continue
        assert ev_i.h <= ev_n.h + 1e-6, f"inflated barrier larger than nominal at {q}"
        checked += 1
    assert checked > 1000, "too few comparable sample points"


def test_safety_params_validation():
    with pytest.raises(ValueError, match="R"):
        SafetyParams(R=0.0)
    with pytest.raises(ValueError, match="gamma"):
        SafetyParams(gamma=-1.0)
    with pytest.raises(ValueError, match="alpha"):
        SafetyParams(alpha=float("nan"))
    with pytest.raises(ValueError, match="dw"):
        SafetyParams(dw=np.array([0.1, -0.1, 0.1]))
    with pytest.raises(ValueError, match="dv"):
        SafetyParams(dv=np.array([0.1, 0.1]))
    # Noise bounds are held to the level bound, where squares stay finite.
    for v in (1e200, math.nextafter(MAX_LEVEL, math.inf)):
        for name in ("dw", "dv"):
            with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 1e\+150\] m"):
                SafetyParams(**{name: [0.1, v, 0.1]})
    assert SafetyParams(dv=np.full(3, MAX_LEVEL)).dv.tolist() == [MAX_LEVEL] * 3
    p = SafetyParams(dw=[0.1, 0.2, MAX_LEVEL])
    assert isinstance(p.dw, np.ndarray) and p.dw.dtype == float


def _float_eval_barrier_world(f, x_world, pose, params):
    """eval_barrier_world with both rotations written out in Python floats."""
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    dx, dy, dz = (float(xk) - float(pk) for xk, pk in zip(x_world, pose.position))
    d, (gx, gy, gz) = sample(f, np.array([c * dx + s * dy, c * dy - s * dx, dz]))
    return BarrierEval(d=d, grad=np.array([c * gx - s * gy, s * gx + c * gy, gz]), h=d * d - params.R * params.R)


def _float_assemble_constraint(ev, params):
    """assemble_constraint in Python floats, sums left to right, plus alpha |a| >= b: (a, b, feasible)."""
    k = 2.0 * ev.d
    gx, gy, gz = ev.grad.tolist()
    dwx, dwy, dwz = params.dw.tolist()
    ax, ay, az = k * gx, k * gy, k * gz
    b = -params.gamma * ev.h + k * ((abs(gx) * dwx + abs(gy) * dwy) + abs(gz) * dwz)
    return np.array([ax, ay, az]), b, params.alpha * math.sqrt((ax * ax + ay * ay) + az * az) >= b


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def test_eval_barrier_world_is_bit_identical_to_matmul_reference(default_env):
    rng = np.random.default_rng(23)
    params = default_env.params
    outcomes = set()
    for fld in (default_env.nominal_field, default_env.inflated_field):
        for _ in range(5000):
            yaw = float(rng.choice([0.0, -0.0, math.pi, rng.uniform(-math.pi, math.pi)]))
            pose = Pose(position=rng.uniform(-50.0, 50.0, size=3), yaw=yaw)
            local = rng.uniform(-1.0, 1.0, size=3) * rng.choice([1.0, 3.0, 7.0])
            x = pose.position + np.array([
                math.cos(yaw) * local[0] - math.sin(yaw) * local[1],
                math.sin(yaw) * local[0] + math.cos(yaw) * local[1],
                local[2],
            ])
            try:
                want = _float_eval_barrier_world(fld, x, pose, params)
            except ValueError as exc:
                with pytest.raises(type(exc)):
                    eval_barrier_world(fld, x, pose, params)
                outcomes.add(type(exc).__name__)
                continue
            got = eval_barrier_world(fld, x, pose, params)
            assert _bits(got.d) == _bits(want.d) and _bits(got.h) == _bits(want.h)
            assert got.grad.dtype == np.float64 and got.grad.tobytes() == want.grad.tobytes()
            outcomes.add("ok")
    assert outcomes == {"ok", "OutOfBoundsError", "InsideObstacleError"}


def test_assemble_constraint_is_bit_identical_to_linalg_reference():
    rng = np.random.default_rng(29)
    feasible = set()
    for _ in range(10_000):
        params = SafetyParams(
            R=float(rng.uniform(0.05, 1.0)),
            gamma=float(rng.uniform(0.1, 10.0)),
            alpha=float(rng.uniform(0.1, 5.0)),
            dw=rng.uniform(0.0, 0.5, size=3) * (rng.random(3) < 0.8),
        )
        grad = rng.normal(size=3) * rng.choice([0.0, 1e-3, 1.0, 1e3], p=[0.02, 0.08, 0.8, 0.1])
        d = float(rng.uniform(0.0, 6.0)) if rng.random() < 0.95 else 0.0
        ev = BarrierEval(d=d, grad=grad, h=d * d - params.R * params.R)
        a, b, ok = _float_assemble_constraint(ev, params)
        con = assemble_constraint(ev, params)
        assert con.a.tobytes() == a.tobytes()
        assert type(con.b) is float and _bits(con.b) == _bits(b)
        assert (filter_action(np.zeros(3), con, params).status is FilterStatus.INFEASIBLE_FALLBACK) == (not ok)
        feasible.add(ok)
    assert feasible == {True, False}


def inline_constraint_rows(d, grad, params):
    """The constraint formula per row, on columns: (A, B), the robust term summed left to right."""
    a = 2.0 * d[:, None] * grad
    g = np.abs(grad)
    dwx, dwy, dwz = params.dw.tolist()
    c_robust = 2.0 * d * ((g[:, 0] * dwx + g[:, 1] * dwy) + g[:, 2] * dwz)
    b = -params.gamma * (d * d - params.R * params.R) + c_robust
    return a, b


@pytest.mark.parametrize("n", [1, 7, 120, 10_000])
def test_constraint_kernel_rows_are_bit_identical_to_the_inline_formula(n):
    rng = np.random.default_rng(37 + n)
    params = SafetyParams(R=0.3, gamma=4.0, dw=np.array([0.1, 0.2, 0.3]))
    # Field-like clearances, plus clearances down into the subnormals, where
    # 2 * (d * g) and (2 * d) * g round apart, plus the NaN rows sample_batch
    # gives off the map.
    d = np.where(rng.random(n) < 0.5, rng.uniform(0.0, 6.0, n), 10.0 ** rng.uniform(-320.0, 1.0, n))
    grad = rng.normal(size=(n, 3)) * rng.choice([1e-3, 1.0, 1e3], size=(n, 1))
    off_map = rng.random(n) < 0.05
    d[off_map] = np.nan
    grad[off_map] = np.nan
    want_a, want_b = inline_constraint_rows(d, grad, params)
    dw = params.dw.tolist()
    a, b = _constraint(d, grad.T, d * d - params.R * params.R, params.gamma, dw)
    a = np.stack(a, axis=1)
    assert a.shape == (n, 3) and b.shape == (n,)
    assert a.tobytes() == want_a.tobytes() and b.tobytes() == want_b.tobytes()
    # The one-sample form, as assemble_constraint and the trial step call it,
    # gives every row's bits.
    for i in range(min(n, 200)):
        di = float(d[i])
        ai, bi = _constraint(di, grad[i].tolist(), di * di - params.R * params.R, params.gamma, dw)
        assert type(bi) is float and np.array(ai).tobytes() == want_a[i].tobytes() and _bits(bi) == _bits(want_b[i])
