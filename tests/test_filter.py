"""Minimal-deviation projection: case analysis, optimality, and batch parity."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatesafe.barrier import BarrierConstraint, BarrierEval, SafetyParams, admissible, assemble_constraint
from gatesafe.field import GridSpec, build_field, inflate_field
from gatesafe.qp import (
    FILTER_STATUS_ORDER,
    FilterDecision,
    FilterStatus,
    _circle_rows,
    filter_action,
    filter_action_batch,
    safest_action_field,
    verify_kkt,
)


def make_con(a, b, alpha=3.0):
    a = np.asarray(a, dtype=float)
    return BarrierConstraint(a=a, b=float(b), feasible_direction_exists=alpha * np.linalg.norm(a) >= b)


PARAMS = SafetyParams(R=1.0, gamma=2.0, alpha=3.0, dw=np.full(3, 0.1))


def test_halfspace_projection_pinned():
    # u_nom = (-3,0,0) violates 4*u_x >= -5.6; plane projection lands at
    # u_x = -5.6/4 = -1.4, well inside the alpha=3 ball.
    con = make_con([4.0, 0.0, 0.0], -5.6)
    dec = filter_action(np.array([-3.0, 0.0, 0.0]), con, PARAMS)
    assert dec.status is FilterStatus.PROJECTED
    assert np.allclose(dec.u_star, [-1.4, 0.0, 0.0], atol=1e-12), f"u* = {dec.u_star}"
    assert dec.deviation == pytest.approx(1.6, abs=1e-12)
    assert dec.margin == pytest.approx(0.0, abs=1e-9)
    assert verify_kkt(np.array([-3.0, 0.0, 0.0]), con, PARAMS, dec)


def test_safe_action_unchanged():
    con = make_con([4.0, 0.0, 0.0], -5.6)
    u = np.array([1.0, 0.5, -0.5])
    dec = filter_action(u, con, PARAMS)
    assert dec.status is FilterStatus.UNCHANGED
    assert np.array_equal(dec.u_star, u)
    assert dec.deviation == 0.0
    assert verify_kkt(u, con, PARAMS, dec)


def test_ball_clipping_preserves_direction():
    con = make_con([4.0, 0.0, 0.0], -5.6)
    u = np.array([4.0, 2.0, 0.0])
    dec = filter_action(u, con, PARAMS)
    assert dec.status is FilterStatus.PROJECTED
    assert np.linalg.norm(dec.u_star) == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(np.cross(dec.u_star, u), 0.0, atol=1e-9), "ball clip must keep the direction"
    assert verify_kkt(u, con, PARAMS, dec)


def test_two_boundary_projection():
    # Constraint plane passes near the ball edge; nominal action violates the
    # halfspace and its plane projection leaves the ball, so the optimum sits
    # on the sphere/plane circle with both constraints active.
    con = make_con([1.0, 0.0, 0.0], 2.5)
    u = np.array([0.0, 4.0, 0.0])
    dec = filter_action(u, con, PARAMS)
    assert dec.status is FilterStatus.PROJECTED
    assert dec.u_star[0] == pytest.approx(2.5, abs=1e-9), "plane must be active"
    assert np.linalg.norm(dec.u_star) == pytest.approx(3.0, abs=1e-9), "sphere must be active"
    assert dec.u_star[1] > 0.0, "projection should stay on the nominal side"
    assert verify_kkt(u, con, PARAMS, dec)


def test_infeasible_best_effort():
    con = make_con([1.0, 0.0, 0.0], 10.0)  # alpha*|a| = 3 < 10
    dec = filter_action(np.array([0.0, 1.0, 0.0]), con, PARAMS)
    assert dec.status is FilterStatus.INFEASIBLE_FALLBACK
    assert np.allclose(dec.u_star, [3.0, 0.0, 0.0]), "fallback maximizes a.u"
    assert dec.margin == pytest.approx(3.0 - 10.0)
    assert not dec.no_improving_direction
    with pytest.raises(ValueError):
        verify_kkt(np.array([0.0, 1.0, 0.0]), con, PARAMS, dec)


def test_degenerate_safe_keeps_action():
    con = make_con([0.0, 0.0, 0.0], -1.0)
    u = np.array([1.0, 1.0, 0.0])
    dec = filter_action(u, con, PARAMS)
    assert dec.status is FilterStatus.DEGENERATE_SAFE
    assert np.array_equal(dec.u_star, u)

    big = np.array([4.0, 0.0, 3.0])
    dec2 = filter_action(big, con, PARAMS)
    assert dec2.status is FilterStatus.DEGENERATE_SAFE
    assert np.linalg.norm(dec2.u_star) == pytest.approx(3.0, abs=1e-12), "still clipped to the ball"


def test_degenerate_stuck_flags_no_direction():
    con = make_con([0.0, 0.0, 0.0], 0.5)
    dec = filter_action(np.array([1.0, 0.0, 0.0]), con, PARAMS)
    assert dec.status is FilterStatus.INFEASIBLE_FALLBACK
    assert dec.no_improving_direction
    assert np.array_equal(dec.u_star, np.zeros(3))


def _random_instances(rng, n):
    U = rng.normal(scale=2.5, size=(n, 3))
    A = rng.normal(scale=2.0, size=(n, 3))
    # Mix of feasible, tight, and infeasible right-hand sides.
    B = rng.normal(scale=3.0, size=n) + rng.choice([0.0, 2.0, -2.0], size=n)
    return U, A, B


def test_kkt_fuzz(rng):
    U, A, B = _random_instances(rng, 3000)
    bad = 0
    for u, a, b in zip(U, A, B):
        con = make_con(a, b)
        dec = filter_action(u, con, PARAMS)
        assert admissible(dec.u_star, con, PARAMS) or dec.status is FilterStatus.INFEASIBLE_FALLBACK, (
            f"non-fallback result must be admissible: u={u}, a={a}, b={b}, status={dec.status}"
        )
        if dec.status is not FilterStatus.INFEASIBLE_FALLBACK:
            if not verify_kkt(u, con, PARAMS, dec):
                bad += 1
    assert bad == 0, f"{bad} decisions failed KKT certification"


def test_idempotence(rng):
    U, A, B = _random_instances(rng, 500)
    for u, a, b in zip(U, A, B):
        con = make_con(a, b)
        dec = filter_action(u, con, PARAMS)
        dec2 = filter_action(dec.u_star, con, PARAMS)
        assert np.allclose(dec2.u_star, dec.u_star, atol=1e-7), (
            f"filtering a filtered action moved it: {dec.u_star} -> {dec2.u_star}"
        )


def test_projection_is_nonexpansive(rng):
    # Projection onto a convex set is 1-Lipschitz: |P(u1)-P(u2)| <= |u1-u2|.
    for _ in range(300):
        a = rng.normal(size=3)
        b = float(rng.normal(scale=2.0))
        con = make_con(a, b)
        if not con.feasible_direction_exists:
            continue
        u1 = rng.normal(scale=3.0, size=3)
        u2 = u1 + rng.normal(scale=0.2, size=3)
        d1 = filter_action(u1, con, PARAMS)
        d2 = filter_action(u2, con, PARAMS)
        lhs = np.linalg.norm(d1.u_star - d2.u_star)
        rhs = np.linalg.norm(u1 - u2)
        assert lhs <= rhs + 1e-7, f"projection expanded distances: {lhs} > {rhs}"


def test_minimal_deviation_vs_sampling_oracle(rng):
    """No admissible action sampled from the feasible set beats the QP answer."""
    for _ in range(100):
        a = rng.normal(size=3)
        b = float(rng.normal(scale=2.0))
        con = make_con(a, b)
        if not con.feasible_direction_exists:
            continue
        u_nom = rng.normal(scale=3.0, size=3)
        dec = filter_action(u_nom, con, PARAMS)
        if dec.status is FilterStatus.INFEASIBLE_FALLBACK:
            continue
        # Rejection-sample admissible actions.
        cand = rng.uniform(-3.0, 3.0, size=(4000, 3))
        ok = (cand @ a >= b) & (np.linalg.norm(cand, axis=1) <= 3.0)
        if not np.any(ok):
            continue
        best = np.min(np.linalg.norm(cand[ok] - u_nom, axis=1))
        assert dec.deviation <= best + 1e-9, (
            f"sampled point beats QP: {best:.6f} < {dec.deviation:.6f} (a={a}, b={b}, u={u_nom})"
        )


def test_dense_oracle_canonical_cases():
    """1e6-direction oracle over the ball surface + interior for pinned cases."""
    rng = np.random.default_rng(7)
    n = 1_000_000
    pts = rng.normal(size=(n, 3))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    pts *= rng.uniform(0.0, 1.0, size=n)[:, None] ** (1.0 / 3.0) * 3.0
    cases = [
        (np.array([-3.0, 0.0, 0.0]), np.array([4.0, 0.0, 0.0]), -5.6),
        (np.array([0.0, 4.0, 0.0]), np.array([1.0, 0.0, 0.0]), 2.5),
        (np.array([2.0, 2.0, 2.0]), np.array([0.0, 1.0, 0.0]), 2.9),
        (np.array([-1.0, -2.0, 0.5]), np.array([1.0, 1.0, 0.0]), 0.0),
    ]
    for u_nom, a, b in cases:
        con = make_con(a, b)
        dec = filter_action(u_nom, con, PARAMS)
        ok = pts @ a >= b
        assert np.any(ok)
        best = np.min(np.linalg.norm(pts[ok] - u_nom, axis=1))
        assert dec.deviation <= best + 1e-3, (
            f"dense oracle found better point: {best:.6f} < {dec.deviation:.6f}"
        )
        assert admissible(dec.u_star, con, PARAMS)


def test_circle_case_binds_both_constraints_precisely():
    con = make_con([0.3, -1.1, 0.4], 2.0)
    u_nom = np.array([-2.5, 2.8, -1.0])
    dec = filter_action(u_nom, con, PARAMS)
    if dec.status is FilterStatus.PROJECTED:
        na = np.linalg.norm(con.a)
        plane_gap = abs(con.a @ dec.u_star - con.b) / na
        ball = np.linalg.norm(dec.u_star)
        # Both active or KKT-certified single-face optimum
        assert verify_kkt(u_nom, con, PARAMS, dec)
        if plane_gap < 1e-9 and abs(ball - 3.0) < 1e-9:
            assert True  # two-boundary case resolved to high precision


def test_antiparallel_nominal_plane_foot_is_optimal():
    # Nominal action anti-parallel to a: the plane foot (2,0,0) lies inside
    # the ball and beats every sphere/plane circle point (distance 5 vs
    # sqrt(30)).
    con = make_con([1.0, 0.0, 0.0], 2.0)
    u_nom = np.array([-3.0, 0.0, 0.0])
    dec = filter_action(u_nom, con, PARAMS)
    assert dec.status is FilterStatus.PROJECTED
    assert np.allclose(dec.u_star, [2.0, 0.0, 0.0], atol=1e-12)
    assert dec.deviation == pytest.approx(5.0, abs=1e-12)
    assert verify_kkt(u_nom, con, PARAMS, dec)


def test_circle_helper_parallel_tiebreak_is_deterministic():
    # The two-boundary solver must survive a nominal action with no component
    # orthogonal to a (every circle point equidistant): deterministic pick on
    # the circle.
    from gatesafe.qp import _circle_rows

    a = np.array([[1.0, 0.0, 0.0]])
    u_nom = np.array([[-3.0, 0.0, 0.0]])
    u1 = _circle_rows(u_nom, a, np.array([2.0]), 3.0, np.array([1.0]))[0]
    u2 = _circle_rows(u_nom, a, np.array([2.0]), 3.0, np.array([1.0]))[0]
    assert np.array_equal(u1, u2), "tiebreak must be deterministic"
    assert u1[0] == pytest.approx(2.0, abs=1e-12), "point must sit on the plane"
    assert np.linalg.norm(u1) == pytest.approx(3.0, abs=1e-12), "point must sit on the sphere"


def test_ball_inside_halfspace_clips_to_ball():
    # b <= -alpha*|a|: every action in the ball already satisfies the
    # halfspace, so the filter must simply clip the norm, never visit the
    # (empty) two-boundary circle.
    con = make_con([-1.18, -0.62, -0.75], -6.42)
    u_nom = np.array([4.9, -0.47, 3.61])
    dec = filter_action(u_nom, con, PARAMS)
    assert dec.status is FilterStatus.PROJECTED
    assert np.allclose(dec.u_star, u_nom * (3.0 / np.linalg.norm(u_nom)), atol=1e-12)
    assert admissible(dec.u_star, con, PARAMS)
    assert verify_kkt(u_nom, con, PARAMS, dec)


def test_batch_matches_scalar(rng):
    U, A, B = _random_instances(rng, 5000)
    out, codes, margins, devs = filter_action_batch(U, A, B, PARAMS.alpha)
    for i in range(U.shape[0]):
        con = make_con(A[i], B[i])
        dec = filter_action(U[i], con, PARAMS)
        assert FILTER_STATUS_ORDER[codes[i]] is dec.status, (
            f"row {i}: batch status {FILTER_STATUS_ORDER[codes[i]]} != scalar {dec.status}"
        )
        assert np.allclose(out[i], dec.u_star, atol=1e-7), (
            f"row {i}: batch {out[i]} != scalar {dec.u_star}"
        )
        assert margins[i] == pytest.approx(dec.margin, abs=1e-6)
        assert devs[i] == pytest.approx(dec.deviation, abs=1e-7)


@settings(max_examples=200, deadline=None)
@given(
    ux=st.floats(-4, 4), uy=st.floats(-4, 4), uz=st.floats(-4, 4),
    ax=st.floats(-3, 3), ay=st.floats(-3, 3), az=st.floats(-3, 3),
    b=st.floats(-8, 8),
)
def test_filter_always_returns_best_effort(ux, uy, uz, ax, ay, az, b):
    con = make_con([ax, ay, az], b)
    dec = filter_action(np.array([ux, uy, uz]), con, PARAMS)
    assert np.all(np.isfinite(dec.u_star))
    assert np.linalg.norm(dec.u_star) <= PARAMS.alpha + 1e-9
    if dec.status in (FilterStatus.UNCHANGED, FilterStatus.PROJECTED):
        assert dec.margin >= -1e-7, f"claimed-feasible result violates constraint by {-dec.margin}"


def test_safest_action_field_matches_gradient(default_gate):
    spec = GridSpec(origin=np.array([-1.5, -2.0, -2.0]), resolution=0.1, dims=(31, 41, 41))
    f = build_field(default_gate, spec)
    params = SafetyParams(R=0.3)
    fld = safest_action_field(f, params, speed=2.0, plane="yz", offset=0.0)
    assert fld.directions.shape == (41, 41, 3)
    assert fld.unsafe.shape == (41, 41)
    # At a safe node the chosen direction should roughly align with the
    # in-plane clearance gradient (the margin-maximizing direction).
    from gatesafe.field import sample

    hits = 0
    for i in range(0, 41, 5):
        for j in range(0, 41, 5):
            if fld.unsafe[i, j]:
                continue
            q = fld.positions[i, j]
            try:
                d, grad = sample(f, q)
            except ValueError:
                continue
            g2 = np.array([0.0, grad[1], grad[2]])
            if np.linalg.norm(g2) < 0.3 or d < 0.35:
                continue
            u = fld.directions[i, j]
            cosang = (u @ g2) / (np.linalg.norm(u) * np.linalg.norm(g2))
            assert cosang > 0.9, f"direction at {q} misaligned with gradient (cos={cosang:.3f})"
            hits += 1
    assert hits >= 10, "too few checked nodes"


def test_safest_action_field_unsafe_inside_solid(default_gate):
    spec = GridSpec(origin=np.array([-1.5, -2.0, -2.0]), resolution=0.1, dims=(31, 41, 41))
    f = build_field(default_gate, spec)
    params = SafetyParams(R=0.3)
    fld = safest_action_field(f, params, speed=2.0, plane="yz", offset=0.0)
    # Node at the center of the top bar (y=0, z=0.875) must be unsafe.
    iy = int(round((0.0 - spec.origin[1]) / spec.resolution))
    iz = int(round((0.9 - spec.origin[2]) / spec.resolution))
    assert fld.unsafe[iy, iz], "node inside the solid must be marked unsafe"
    assert np.all(fld.directions[iy, iz] == 0.0)
    # Center of the opening must be safe.
    ic = int(round((0.0 - spec.origin[1]) / spec.resolution))
    jc = int(round((0.0 - spec.origin[2]) / spec.resolution))
    assert not fld.unsafe[ic, jc], "opening center must be safe"


def test_safest_action_field_inflated_has_more_unsafe(default_gate):
    spec = GridSpec(origin=np.array([-1.5, -2.0, -2.0]), resolution=0.1, dims=(31, 41, 41))
    nominal = build_field(default_gate, spec)
    inflated = inflate_field(nominal, np.full(3, 0.3))
    params = SafetyParams(R=0.3)
    f_n = safest_action_field(nominal, params, speed=2.0, plane="yz", offset=0.0)
    f_i = safest_action_field(inflated, params, speed=2.0, plane="yz", offset=0.0)
    assert np.all(f_i.unsafe >= f_n.unsafe), "inflated unsafe set must contain the nominal one"
    assert f_i.unsafe.sum() > f_n.unsafe.sum(), "inflation must strictly enlarge the unsafe set"


def test_safest_action_field_validation(default_gate):
    spec = GridSpec(origin=np.array([-1.5, -2.0, -2.0]), resolution=0.1, dims=(31, 41, 41))
    f = build_field(default_gate, spec)
    params = SafetyParams(R=0.3)
    with pytest.raises(ValueError, match="plane"):
        safest_action_field(f, params, speed=1.0, plane="xz", offset=0.0)
    with pytest.raises(ValueError, match="speed"):
        safest_action_field(f, params, speed=5.0, plane="xy", offset=0.0)
    with pytest.raises(ValueError, match="offset"):
        safest_action_field(f, params, speed=1.0, plane="yz", offset=9.0)


def _linalg_filter_action(u_nom, con, params):
    """filter_action with np.linalg.norm and @, plus the name of the branch taken."""
    u_nom = np.asarray(u_nom, dtype=float)
    a = np.asarray(con.a, dtype=float)
    b = float(con.b)
    alpha = float(params.alpha)
    na2 = float(a @ a)
    if na2 <= 1e-300:
        nu = float(np.linalg.norm(u_nom))
        if b <= 0.0:
            u = u_nom if nu <= alpha else u_nom * (alpha / nu)
            dec = FilterDecision(u, FilterStatus.DEGENERATE_SAFE, -b, float(np.linalg.norm(u_nom - u)))
            return dec, "degenerate_safe"
        return FilterDecision(np.zeros(3), FilterStatus.INFEASIBLE_FALLBACK, -b, nu, True), "degenerate_stuck"
    na = math.sqrt(na2)
    if alpha * na < b:
        u = a * (alpha / na)
        dec = FilterDecision(u, FilterStatus.INFEASIBLE_FALLBACK, alpha * na - b, float(np.linalg.norm(u_nom - u)))
        return dec, "infeasible"
    au = float(a @ u_nom)
    nu = float(np.linalg.norm(u_nom))
    if au >= b and nu <= alpha:
        return FilterDecision(u_nom.copy(), FilterStatus.UNCHANGED, au - b, 0.0), "unchanged"
    if b <= -alpha * na:
        u = u_nom * (alpha / nu)
        dec = FilterDecision(u, FilterStatus.PROJECTED, float(a @ u) - b, float(np.linalg.norm(u_nom - u)))
        return dec, "ball_inside_halfspace"
    if au < b:
        u = u_nom + ((b - au) / na2) * a
        if float(np.linalg.norm(u)) <= alpha * (1.0 + 1e-12):
            dec = FilterDecision(u, FilterStatus.PROJECTED, float(a @ u) - b, float(np.linalg.norm(u_nom - u)))
            return dec, "plane_foot"
    if nu > alpha:
        u = u_nom * (alpha / nu)
        m = float(a @ u) - b
        if m >= -1e-12 * max(1.0, abs(b)):
            return FilterDecision(u, FilterStatus.PROJECTED, m, float(np.linalg.norm(u_nom - u))), "ball_clip"
    u = _circle_rows(u_nom[None, :], a[None, :], np.array([b]), alpha, np.array([na2]))[0]
    dec = FilterDecision(u, FilterStatus.PROJECTED, float(a @ u) - b, float(np.linalg.norm(u_nom - u)))
    return dec, "circle"


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def test_filter_action_is_bit_identical_to_linalg_reference():
    rng = np.random.default_rng(19)
    n = 10_000
    U = rng.normal(scale=2.5, size=(n, 3)) * rng.choice([1e-3, 1.0, 30.0], size=(n, 1), p=[0.05, 0.9, 0.05])
    A = rng.normal(scale=2.0, size=(n, 3)) * rng.choice([1e-170, 1e-3, 1.0, 1e3], size=(n, 1), p=[0.05, 0.05, 0.85, 0.05])
    B = rng.normal(scale=3.0, size=n) + rng.choice([0.0, 2.0, -2.0], size=n)
    # Nominal actions clipped to the norm bound the way nominal_policy clips them.
    clip = rng.random(n) < 0.3
    U[clip] *= (3.0 / np.linalg.norm(U[clip], axis=1))[:, None]
    # Right-hand sides at and past -alpha |a| (the whole ball satisfies the halfspace).
    edge = rng.random(n) < 0.05
    B[edge] = -3.0 * np.linalg.norm(A[edge], axis=1) * rng.choice([1.0, 1.5], size=edge.sum())
    branches = {}
    for u, a, b in zip(U, A, B):
        con = make_con(a, b)
        want, branch = _linalg_filter_action(u, con, PARAMS)
        got = filter_action(u, con, PARAMS)
        branches[branch] = branches.get(branch, 0) + 1
        assert got.status is want.status, branch
        assert got.u_star.dtype == np.float64 and got.u_star.tobytes() == want.u_star.tobytes(), branch
        assert type(got.margin) is float and _bits(got.margin) == _bits(want.margin), branch
        assert type(got.deviation) is float and _bits(got.deviation) == _bits(want.deviation), branch
        assert got.no_improving_direction is want.no_improving_direction
    assert set(branches) == {
        "degenerate_safe", "degenerate_stuck", "infeasible", "unchanged",
        "ball_inside_halfspace", "plane_foot", "ball_clip", "circle",
    }, branches


def test_safest_action_field_rejects_non_finite_offset(default_gate):
    spec = GridSpec(origin=np.array([-1.5, -2.0, -2.0]), resolution=0.1, dims=(31, 41, 41))
    f = build_field(default_gate, spec)
    for offset in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="offset must be finite"):
            safest_action_field(f, SafetyParams(R=0.3), speed=1.0, plane="yz", offset=offset)
