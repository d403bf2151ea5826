"""Minimal-deviation projection: case analysis, optimality, and batch parity."""
import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gatesafe import qp
from gatesafe.barrier import (
    ADMISSIBLE_TOL, BarrierConstraint, BarrierEval, SafetyParams, admissible, assemble_constraint, eval_barrier_world,
)
from gatesafe.field import SAMPLE_OK, SAMPLE_OOB, GridSpec, build_field, inflate_field, sample_batch
from gatesafe.geometry import Pose
from gatesafe.qp import (
    FILTER_STATUS_ORDER,
    FilterDecision,
    FilterStatus,
    _DEGENERATE_NORM,
    _STATUS_CODE,
    _circle,
    filter_action,
    filter_action_batch,
    safest_action_field,
    verify_kkt,
)


def make_con(a, b):
    return BarrierConstraint(a=np.asarray(a, dtype=float), b=float(b))


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
    assert np.any(dec.u_star != 0.0), "a != 0 always has an improving direction"
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
    assert np.all(con.a == 0.0)
    assert dec.status is FilterStatus.INFEASIBLE_FALLBACK
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


def _decision(u_star, con):
    u_star = np.asarray(u_star, dtype=float)
    return FilterDecision(u_star, FilterStatus.PROJECTED, float(con.a @ u_star) - con.b, 0.0)


def test_kkt_rejects_feasible_suboptimal_actions():
    con = make_con([4.0, 0.0, 0.0], -5.6)
    u_nom = np.array([-3.0, 0.0, 0.0])
    assert verify_kkt(u_nom, con, PARAMS, _decision([-1.4, 0.0, 0.0], con))
    # Strictly inside both sets, but away from u_nom: no constraint is active.
    assert not verify_kkt(u_nom, con, PARAMS, _decision([-1.0, 0.0, 0.0], con))
    # On the plane, but not its foot from u_nom.
    assert not verify_kkt(u_nom, con, PARAMS, _decision([-1.4, 0.5, 0.0], con))


def test_kkt_rejects_primal_infeasible_actions():
    con = make_con([4.0, 0.0, 0.0], -5.6)
    u_nom = np.array([-3.0, 0.0, 0.0])
    # Below the plane (a.u = -6 < b), and outside the ball (|u| = 3.5 > alpha).
    assert not verify_kkt(u_nom, con, PARAMS, _decision([-1.5, 0.0, 0.0], con))
    assert not verify_kkt(u_nom, con, PARAMS, _decision([0.0, 3.5, 0.0], con))


def test_kkt_rejects_negative_multipliers():
    # u_nom strictly satisfies a.u >= b; projecting it onto the plane anyway
    # makes u_nom - u = -lambda a hold only with lambda = -1.
    con = make_con([1.0, 0.0, 0.0], -1.0)
    assert not verify_kkt(np.zeros(3), con, PARAMS, _decision([-1.0, 0.0, 0.0], con))
    # Pushing an action inside the ball out onto the sphere needs mu < 0.
    con = make_con([0.0, 0.0, 1.0], -10.0)
    assert not verify_kkt(np.array([1.0, 0.0, 0.0]), con, PARAMS, _decision([3.0, 0.0, 0.0], con))


def _scipy_nnls_residual(M, rhs):
    from scipy.optimize import nnls

    return float(nnls(M, rhs)[1])


def test_nnls_residual_matches_scipy_nnls():
    rng = np.random.default_rng(29)
    verdicts = {True: 0, False: 0}
    for i in range(10_000):
        k = 1 + i % 3
        M = rng.normal(size=(3, k)) * rng.choice([1e-3, 1.0, 1e3])
        if k > 1 and rng.random() < 0.3:
            M[:, 1] = M[:, 0] * rng.choice([-2.0, 0.5, 1.0])  # collinear columns
        x = rng.normal(size=k)
        if rng.random() < 0.5:
            x = np.abs(x)
        rhs = M @ x + rng.normal(scale=rng.choice([0.0, 1e-9, 1e-3]), size=3)
        tol = 1e-7 * (1.0 + float(np.abs(M).sum() + np.abs(rhs).sum()))
        got, want = qp._nnls_residual(M, rhs), _scipy_nnls_residual(M, rhs)
        assert abs(got - want) <= 1e-9 * (1.0 + float(np.linalg.norm(rhs))), (M, rhs)
        assert (got <= tol) == (want <= tol), (M, rhs)
        verdicts[bool(got <= tol)] += 1
    assert min(verdicts.values()) > 2000, verdicts


def test_kkt_verdicts_match_scipy_nnls_on_acceptance_instances(monkeypatch):
    from test_acceptance import _qp_instances

    # The first fifth of acceptance test 3's instances.
    U, A, B, alpha = (x[:20_000] for x in _qp_instances(100_000, seed=303))
    verdicts = []
    for u, a, b, al in zip(U, A, B, alpha):
        params = SafetyParams(alpha=float(al))
        con = BarrierConstraint(a=a, b=float(b))
        dec = filter_action(u, con, params)
        if dec.status is FilterStatus.PROJECTED:
            verdicts.append((u, con, params, dec, verify_kkt(u, con, params, dec)))
    assert len(verdicts) > 5_000
    monkeypatch.setattr(qp, "_nnls_residual", _scipy_nnls_residual)
    for u, con, params, dec, verdict in verdicts:
        assert verify_kkt(u, con, params, dec) == verdict


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
        if filter_action(np.zeros(3), con, PARAMS).status is FilterStatus.INFEASIBLE_FALLBACK:
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
        if filter_action(np.zeros(3), con, PARAMS).status is FilterStatus.INFEASIBLE_FALLBACK:
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
    u1 = _circle([-3.0, 0.0, 0.0], [1.0, 0.0, 0.0], 2.0, 3.0, 1.0)
    u2 = _circle([-3.0, 0.0, 0.0], [1.0, 0.0, 0.0], 2.0, 3.0, 1.0)
    assert u1 == u2, "tiebreak must be deterministic"
    assert u1[0] == pytest.approx(2.0, abs=1e-12), "point must sit on the plane"
    assert math.hypot(*u1) == pytest.approx(3.0, abs=1e-12), "point must sit on the sphere"


def _circle_rows(U, A, B, alpha, na2) -> np.ndarray:
    """The circle step in numpy, row by row, as the batch kernel once ran it: the reference for ``qp._circle``.

    With c0 = (b/|a|^2) a the circle's centre and perp the component of u
    orthogonal to a, the nearest circle point is c0 + r perp/|perp| with
    r = sqrt(alpha^2 - b^2/|a|^2). Row sums run left to right.
    """
    c0 = A * (B / na2)[:, None]
    perp = U - A * (_row_dot3(A, U) / na2)[:, None]
    pn = np.sqrt(_row_dot3(perp, perp))
    r = np.sqrt(np.maximum(alpha * alpha - B * B / na2, 0.0))
    # Deterministic orthogonal direction for nominal actions parallel to a.
    par = pn < 1e-12
    if np.any(par):
        ap = A[par]
        e = np.zeros_like(ap)
        e[np.arange(ap.shape[0]), np.argmin(np.abs(ap), axis=1)] = 1.0
        alt = np.cross(ap, e)
        alt /= np.sqrt(_row_dot3(alt, alt))[:, None]
        perp[par] = alt
        pn[par] = 1.0
    return c0 + perp * (r / pn)[:, None]


def test_circle_is_bit_identical_to_the_numpy_circle():
    # Solvable rows with both boundaries active or not, u parallel and
    # antiparallel to a, ties in |a_k| (signed zeros included), |a| from
    # 1e-150 to 1e3 and b at alpha |a|, where rounding can leave r^2 <= 0.
    rng = np.random.default_rng(61)
    n = 20_000
    for alpha in (0.5, 3.0):
        A = rng.normal(size=(n, 3)) * rng.choice([1e-150, 1e-3, 1.0, 1e3], size=(n, 1))
        kind = rng.integers(0, 5, size=n)
        tie = kind == 1
        A[tie] = rng.choice([-1.0, 1.0], size=(tie.sum(), 3)) * rng.choice([0.0, -0.0, 0.5, 2.0], size=(tie.sum(), 1))
        A[tie, rng.integers(0, 3, size=tie.sum())] = rng.choice([1.0, -3.0], size=tie.sum())
        na2 = _row_dot3(A, A)
        na = np.sqrt(na2)
        B = alpha * na * rng.uniform(-1.0, 1.0, size=n)
        B[kind == 2] = alpha * na[kind == 2]
        U = rng.normal(scale=2.0, size=(n, 3))
        par = (kind == 1) | (kind == 3)
        U[par] = A[par] * rng.choice([-1e6, -2.0, 0.0, 3.0], size=(par.sum(), 1))
        want = _circle_rows(U, A, B, alpha, na2)
        parallel = 0
        for u, a, b, m, w in zip(U.tolist(), A.tolist(), B.tolist(), na2.tolist(), want):
            assert np.array(_circle(u, a, b, alpha, m)).tobytes() == w.tobytes(), (u, a, b, alpha)
            parallel += math.hypot(*(np.array(u) - np.array(a) * (_dot3(a, u) / m))) < 1e-12
        assert parallel > 1000


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


@pytest.mark.parametrize("alpha", [0.5, 3.0])
def test_fallback_exactly_when_no_action_in_the_ball_meets_the_constraint(alpha):
    """Both kernels fall back iff alpha |a| < b, including a = 0 with b <= 0 and b > 0."""
    rng = np.random.default_rng(37)
    U, A, B = _random_instances(rng, 4000)
    zero = rng.random(4000) < 0.15
    A[zero] = 0.0
    B[zero & (rng.random(4000) < 0.2)] = 0.0
    want = alpha * np.linalg.norm(A, axis=1) < B
    params = SafetyParams(alpha=alpha)
    scalar = np.array([
        filter_action(u, make_con(a, b), params).status is FilterStatus.INFEASIBLE_FALLBACK
        for u, a, b in zip(U, A, B)
    ])
    codes = filter_action_batch(U, A, B, alpha)[1]
    batch = codes == FILTER_STATUS_ORDER.index(FilterStatus.INFEASIBLE_FALLBACK)
    assert np.array_equal(scalar, want) and np.array_equal(batch, want)
    for rows in (zero & (B <= 0.0), zero & (B > 0.0), ~zero & want, ~zero & ~want):
        assert rows.sum() > 50, "every side of the rule must be exercised"


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
    with pytest.raises(ValueError, match="angular_samples"):
        safest_action_field(f, params, speed=1.0, plane="yz", offset=0.0, angular_samples=1)


def _inline_safest_action_field(f, params, speed, plane, offset, angular_samples=72):
    """safest_action_field's body with the constraint formula written inline: (directions, unsafe)."""
    au, av, fixed = (0, 1, 2) if plane == "xy" else (1, 2, 0)
    uu, vv = np.meshgrid(f.spec.axis_nodes(au), f.spec.axis_nodes(av), indexing="ij")
    pts = np.zeros(uu.shape + (3,))
    pts[..., au] = uu
    pts[..., av] = vv
    pts[..., fixed] = offset
    d, grad, code = sample_batch(f, pts.reshape(-1, 3))
    theta = 2.0 * math.pi * np.arange(angular_samples) / angular_samples
    dirs = np.zeros((angular_samples, 3))
    dirs[:, au] = np.cos(theta)
    dirs[:, av] = np.sin(theta)
    a = 2.0 * d[:, None] * grad
    g = np.abs(grad)
    c_robust = 2.0 * d * ((g[:, 0] * params.dw[0] + g[:, 1] * params.dw[1]) + g[:, 2] * params.dw[2])
    b = -params.gamma * (d * d - params.R * params.R) + c_robust
    margins = speed * (a @ dirs.T) - b[:, None]
    margins[code != SAMPLE_OK] = -np.inf
    best = np.argmax(margins, axis=1)
    unsafe = (code != SAMPLE_OK) | (margins[np.arange(d.size), best] < 0.0)
    directions = speed * dirs[best]
    directions[unsafe] = 0.0
    return directions.reshape(uu.shape + (3,)), unsafe.reshape(uu.shape)


@pytest.mark.parametrize("plane, offset", [("yz", 0.0), ("xy", 0.0), ("xy", 0.3)])
def test_safest_action_field_is_bit_identical_to_the_inline_formula(default_env, plane, offset):
    for f in (default_env.nominal_field, default_env.inflated_field):
        for speed in (0.5, 1.5, 2.0, default_env.params.alpha):
            fld = safest_action_field(f, default_env.params, speed=speed, plane=plane, offset=offset)
            directions, unsafe = _inline_safest_action_field(f, default_env.params, speed, plane, offset)
            assert fld.directions.tobytes() == directions.tobytes(), (speed, f.inflated_by)
            assert np.array_equal(fld.unsafe, unsafe), (speed, f.inflated_by)
            assert 0 < unsafe.sum() < unsafe.size


def _dot3(a, v) -> float:
    """a . v on three floats each, summed left to right."""
    return (a[0] * v[0] + a[1] * v[1]) + a[2] * v[2]


def _norm3(v) -> float:
    return math.sqrt(_dot3(v, v))


def _float_filter_action(u_nom, con, params):
    """filter_action in Python floats, sums left to right and math.sqrt, plus the name of the branch taken."""
    u = np.asarray(u_nom, dtype=float).tolist()
    a = np.asarray(con.a, dtype=float).tolist()
    b = float(con.b)
    alpha = float(params.alpha)

    def decision(v, status, margin):
        dev = _norm3([u[0] - v[0], u[1] - v[1], u[2] - v[2]])
        return FilterDecision(np.array(v), status, margin, dev)

    na2 = _dot3(a, a)
    if na2 <= 1e-300:
        nu = _norm3(u)
        if b <= 0.0:
            v = u if nu <= alpha else [c * (alpha / nu) for c in u]
            return decision(v, FilterStatus.DEGENERATE_SAFE, -b), "degenerate_safe"
        return FilterDecision(np.zeros(3), FilterStatus.INFEASIBLE_FALLBACK, -b, nu), "degenerate_stuck"
    na = math.sqrt(na2)
    if alpha * na < b:
        v = [c * (alpha / na) for c in a]
        return decision(v, FilterStatus.INFEASIBLE_FALLBACK, alpha * na - b), "infeasible"
    au = _dot3(a, u)
    nu = _norm3(u)
    if au >= b and nu <= alpha:
        return FilterDecision(np.array(u), FilterStatus.UNCHANGED, au - b, 0.0), "unchanged"
    # Projected, but reported unchanged when u_nom is admissible within
    # ADMISSIBLE_TOL (barrier.admissible's rule).
    status = FilterStatus.UNCHANGED if au >= b - 1e-9 and nu <= alpha + 1e-9 else FilterStatus.PROJECTED
    if b <= -alpha * na:
        v = [c * (alpha / nu) for c in u]
        return decision(v, status, _dot3(a, v) - b), "ball_inside_halfspace"
    if au < b:
        lam = (b - au) / na2
        v = [u[0] + lam * a[0], u[1] + lam * a[1], u[2] + lam * a[2]]
        if _norm3(v) <= alpha * (1.0 + 1e-12):
            return decision(v, status, _dot3(a, v) - b), "plane_foot"
    if nu > alpha:
        v = [c * (alpha / nu) for c in u]
        m = _dot3(a, v) - b
        if m >= -1e-12 * max(1.0, abs(b)):
            return decision(v, status, m), "ball_clip"
    v = _circle_rows(np.array([u]), np.array([a]), np.array([b]), alpha, np.array([na2]))[0].tolist()
    return decision(v, status, _dot3(a, v) - b), "circle"


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
        want, branch = _float_filter_action(u, con, PARAMS)
        got = filter_action(u, con, PARAMS)
        branches[branch] = branches.get(branch, 0) + 1
        assert got.status is want.status, branch
        assert got.u_star.dtype == np.float64 and got.u_star.tobytes() == want.u_star.tobytes(), branch
        assert type(got.margin) is float and _bits(got.margin) == _bits(want.margin), branch
        assert type(got.deviation) is float and _bits(got.deviation) == _bits(want.deviation), branch
    assert set(branches) == {
        "degenerate_safe", "degenerate_stuck", "infeasible", "unchanged",
        "ball_inside_halfspace", "plane_foot", "ball_clip", "circle",
    }, branches


def _row_dot3(X, Y):
    """Row-wise a . v on (N, 3) arrays, column by column, left to right."""
    return (X[:, 0] * Y[:, 0] + X[:, 1] * Y[:, 1]) + X[:, 2] * Y[:, 2]


def _masked_filter_action_batch(U, A, B, alpha):
    """filter_action_batch with one boolean-mask scatter per case, sums written per column."""
    U = np.asarray(U, dtype=float)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = U.shape[0]
    out = np.empty_like(U)
    status = np.empty(n, dtype=np.int8)

    na2 = _row_dot3(A, A)
    na = np.sqrt(na2)
    nu = np.sqrt(_row_dot3(U, U))
    au = _row_dot3(A, U)

    degenerate = na2 <= _DEGENERATE_NORM
    deg_safe = degenerate & (B <= 0.0)
    deg_stuck = degenerate & (B > 0.0)
    infeasible = ~degenerate & (alpha * na < B)
    solvable = ~(degenerate | infeasible)

    scale = np.where(nu > alpha, alpha / np.where(nu == 0.0, 1.0, nu), 1.0)
    out[deg_safe] = U[deg_safe] * scale[deg_safe, None]
    status[deg_safe] = _STATUS_CODE[FilterStatus.DEGENERATE_SAFE]
    out[deg_stuck] = 0.0
    status[deg_stuck] = _STATUS_CODE[FilterStatus.INFEASIBLE_FALLBACK]

    if np.any(infeasible):
        out[infeasible] = A[infeasible] * (alpha / na[infeasible])[:, None]
        status[infeasible] = _STATUS_CODE[FilterStatus.INFEASIBLE_FALLBACK]

    ok = solvable & (au >= B) & (nu <= alpha)
    out[ok] = U[ok]

    todo = solvable & ~ok

    half_v = todo & (au < B)
    if np.any(half_v):
        lam = (B[half_v] - au[half_v]) / na2[half_v]
        cand = U[half_v] + lam[:, None] * A[half_v]
        good = np.sqrt(_row_dot3(cand, cand)) <= alpha * (1.0 + 1e-12)
        idx = np.flatnonzero(half_v)[good]
        out[idx] = cand[good]
        todo[idx] = False

    clip_v = todo & (nu > alpha)
    if np.any(clip_v):
        cand = U[clip_v] * (alpha / nu[clip_v])[:, None]
        m = _row_dot3(A[clip_v], cand) - B[clip_v]
        keep = m >= -1e-12 * np.maximum(1.0, np.abs(B[clip_v]))
        idx = np.flatnonzero(clip_v)[keep]
        out[idx] = cand[keep]
        todo[idx] = False

    if np.any(todo):
        out[todo] = _circle_rows(U[todo], A[todo], B[todo], alpha, na2[todo])

    # Solvable rows: unchanged when u_nom is admissible within ADMISSIBLE_TOL.
    admissible = (au >= B - 1e-9) & (nu <= alpha + 1e-9)
    status[solvable & admissible] = _STATUS_CODE[FilterStatus.UNCHANGED]
    status[solvable & ~admissible] = _STATUS_CODE[FilterStatus.PROJECTED]

    margins = _row_dot3(A, out) - B
    margins[infeasible] = alpha * na[infeasible] - B[infeasible]
    margins[degenerate] = -B[degenerate]
    diff = U - out
    deviations = np.sqrt(_row_dot3(diff, diff))
    return out, status, margins, deviations


def _branch_instances(rng, n: int, alpha: float):
    """Rows for every case of the QP, at the edges of each case's test."""
    U = rng.normal(scale=2.5, size=(n, 3)) * rng.choice([1e-3, 1.0, 30.0], size=(n, 1), p=[0.05, 0.9, 0.05])
    A = rng.normal(scale=2.0, size=(n, 3)) * rng.choice(
        [0.0, 1e-170, 1e-3, 1.0, 1e3], size=(n, 1), p=[0.02, 0.05, 0.05, 0.83, 0.05])
    B = rng.normal(scale=3.0, size=n) + rng.choice([0.0, 2.0, -2.0], size=n)
    kind = rng.integers(0, 8, size=n)
    rows = kind == 1  # clipped to the norm bound the way nominal_policy clips them
    U[rows] *= (alpha / np.linalg.norm(U[rows], axis=1))[:, None]
    rows = kind == 2  # the whole ball inside the halfspace, and its edge
    B[rows] = -alpha * np.linalg.norm(A[rows], axis=1) * rng.choice([1.0, 1.5], size=rows.sum())
    U[kind == 3] = 0.0
    rows = kind == 4  # |a|^2 just above the degenerate bound
    A[rows] = np.sqrt(1.01 * _DEGENERATE_NORM / 2.0) * np.array([1.0, -1.0, 0.0])
    B[rows] = rng.choice([0.0, 1e-151, -1.0, 1e9], size=rows.sum())
    rows = kind == 5  # nearly antiparallel, far outside, b at alpha |a|: the circle's parallel tie-break
    A[rows] = rng.normal(scale=2.0, size=(rows.sum(), 3))
    na = np.linalg.norm(A[rows], axis=1)
    U[rows] = -A[rows] / na[:, None] * rng.choice([1e6, 1e9], size=(rows.sum(), 1))
    B[rows] = alpha * na
    return U, A, B


def test_filter_action_batch_is_bit_identical_to_masked_reference():
    rng = np.random.default_rng(47)
    branches = set()
    for n in (0, 1, 7, 120, 20_000):
        for trial in range(60 if n < 10 else 3):
            alpha = (0.5, 3.0)[trial % 2]
            U, A, B = _branch_instances(rng, n, alpha)
            want = _masked_filter_action_batch(U, A, B, alpha)
            got = filter_action_batch(U, A, B, alpha)
            for name, g, w in zip(("u_star", "status", "margins", "deviations"), got, want):
                assert g.dtype == w.dtype and g.shape == w.shape, name
                bits = np.uint8 if g.dtype == np.int8 else np.uint64
                assert np.array_equal(g.view(bits), w.view(bits)), (n, trial, name)
            if n == 20_000:
                params = SafetyParams(alpha=alpha)
                for u, a, b in zip(U[:4000], A[:4000], B[:4000]):
                    _, branch = _float_filter_action(u, make_con(a, b), params)
                    if branch == "circle":
                        perp = u - a * (float(a @ u) / float(a @ a))
                        branch = "circle_parallel" if np.linalg.norm(perp) < 1e-12 else branch
                    branches.add(branch)
    assert branches == {
        "degenerate_safe", "degenerate_stuck", "infeasible", "unchanged",
        "ball_inside_halfspace", "plane_foot", "ball_clip", "circle", "circle_parallel",
    }, branches


def test_filter_action_batch_matches_filter_action_row_by_row():
    # Every row of the batch kernel gets the scalar kernel's bits and status,
    # on every case, and on the case boundaries |u| = alpha and a.u = b.
    rng = np.random.default_rng(53)
    alpha = 3.0
    params = SafetyParams(alpha=alpha)
    U, A, B = _branch_instances(rng, 6000, alpha)
    edge = rng.integers(0, 4, size=U.shape[0])
    rows = (edge == 1) & np.any(U != 0.0, axis=1)  # |u| = alpha to an ulp, as nominal_policy clips it
    U[rows] *= (alpha / np.sqrt(_row_dot3(U[rows], U[rows])))[:, None]
    rows = edge >= 2  # a.u = b exactly, on rows at the norm bound too
    B[rows] = _row_dot3(A[rows], U[rows])
    u_b, codes, margins, devs = filter_action_batch(U, A, B, alpha)
    branches, statuses = set(), set()
    for i, (u, a, b) in enumerate(zip(U, A, B)):
        con = make_con(a, b)
        got = filter_action(u, con, params)
        assert FILTER_STATUS_ORDER[int(codes[i])] is got.status, i
        assert u_b[i].tobytes() == got.u_star.tobytes(), i
        assert _bits(margins[i]) == _bits(got.margin) and _bits(devs[i]) == _bits(got.deviation), i
        branches.add(_float_filter_action(u, con, params)[1])
        statuses.add(got.status)
    assert set(FilterStatus) == statuses
    cases = {"degenerate_safe", "degenerate_stuck", "infeasible", "unchanged", "plane_foot", "ball_clip", "circle"}
    assert cases <= branches, branches


# One instance per case outside the batch's np.where pass, on alpha = 3:
# (u_nom, a, b, the branch _float_filter_action names).
_RARE_CASES = [
    ([1.0, -2.0, 0.5], [0.0, 0.0, 0.0], -1.0, "degenerate_safe"),
    ([4.0, 0.0, 3.0], [0.0, 1e-160, 0.0], 0.0, "degenerate_safe"),
    ([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], 0.5, "degenerate_stuck"),
    ([0.0, 1.0, 0.0], [1.0, 0.0, 0.0], 10.0, "infeasible"),
    ([0.0, 4.0, 0.0], [1.0, 0.0, 0.0], 2.5, "circle"),
    ([-6e8, -8e8, -0.0], [0.6, 0.8, 0.0], 3.0, "circle"),  # u parallel to a: the tie-break
    ([4.0, -3.0, 2.0], [0.3, -1.1, 0.4], 3.0, "circle"),
]


def test_filter_action_batch_gives_rare_rows_among_common_ones_the_scalar_bits():
    # Degenerate, infeasible and two-boundary rows scattered among common
    # rows: every row gets filter_action's bits, whatever its neighbours.
    rng = np.random.default_rng(71)
    params = SafetyParams(alpha=3.0)
    assert [_float_filter_action(np.array(u), make_con(a, b), params)[1] for u, a, b, _ in _RARE_CASES] == [
        c[3] for c in _RARE_CASES]
    for n in (1, 2, 9, 120):
        U, A, B = _random_instances(rng, n)
        for i in rng.choice(n, size=min(n, 5), replace=False):
            U[i], A[i], B[i], _ = _RARE_CASES[rng.integers(len(_RARE_CASES))]
        u_b, codes, margins, devs = filter_action_batch(U, A, B, params.alpha)
        for i, (u, a, b) in enumerate(zip(U, A, B)):
            got = filter_action(u, make_con(a, b), params)
            assert FILTER_STATUS_ORDER[int(codes[i])] is got.status, (n, i)
            assert u_b[i].tobytes() == got.u_star.tobytes(), (n, i)
            assert _bits(margins[i]) == _bits(got.margin) and _bits(devs[i]) == _bits(got.deviation), (n, i)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("case", range(len(_RARE_CASES)))
def test_a_non_finite_nominal_action_is_refused(case, bad):
    # Each case outside the common three, with one component of u_nom not
    # finite: filter_action and filter_action_batch refuse it.
    u, a, b, _ = _RARE_CASES[case]
    params = SafetyParams(alpha=3.0)
    for k in range(3):
        v = list(u)
        v[k] = bad
        with pytest.raises(ValueError, match=r"^u_nom must be finite, got \["):
            filter_action(np.array(v), make_con(a, b), params)
        U, A, B = np.array([[0.5, 0.0, 0.0], v]), np.array([[1.0, 0.0, 0.0], a]), np.array([0.0, b])
        with pytest.raises(ValueError, match="^U must be finite$"):
            filter_action_batch(U, A, B, params.alpha)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_safety_filter_refuses_a_non_finite_nominal_action(default_env, bad):
    filt = qp.SafetyFilter(default_env.nominal_field, default_env.params)
    for k in range(3):
        u_nom = [0.0, 0.0, 0.0]
        u_nom[k] = bad
        with pytest.raises(ValueError, match=r"^u_nom must be finite, got \["):
            filt([-1.0, 0.9, 0.0], (1.0, 0.0), [0.0, 0.0, 0.0], u_nom)


def test_an_ulp_past_the_norm_bound_on_a_satisfied_constraint_is_unchanged():
    # nominal_policy's clip can leave |u| = alpha (1 + 2**-52). The constraint
    # holds, so the action is admissible within ADMISSIBLE_TOL: both kernels
    # report it unchanged, yet still return the clip onto the sphere with its
    # margin and ulp-sized deviation.
    alpha = 2.0
    u = np.array([alpha * (1.0 + 2.0**-52), 0.0, 0.0])
    assert math.sqrt(u[0] * u[0]) == alpha * (1.0 + 2.0**-52) > alpha
    con = make_con([1.0, 0.0, 0.0], 0.5)
    params = SafetyParams(alpha=alpha)
    clip = u * (alpha / u[0])
    dec = filter_action(u, con, params)
    assert dec.status is FilterStatus.UNCHANGED
    assert dec.u_star.tobytes() == clip.tobytes() and dec.margin == clip[0] - 0.5
    assert 0.0 < dec.deviation == u[0] - clip[0]
    u_b, codes, margins, devs = filter_action_batch(u[None, :], con.a[None, :], np.array([con.b]), alpha)
    assert FILTER_STATUS_ORDER[int(codes[0])] is FilterStatus.UNCHANGED
    assert u_b[0].tobytes() == clip.tobytes() and margins[0] == dec.margin and devs[0] == dec.deviation
    # Past the tolerance the same clip is a projection.
    far = np.array([alpha + 2e-9, 0.0, 0.0])
    assert filter_action(far, con, params).status is FilterStatus.PROJECTED
    codes = filter_action_batch(far[None, :], con.a[None, :], np.array([con.b]), alpha)[1]
    assert FILTER_STATUS_ORDER[int(codes[0])] is FilterStatus.PROJECTED
    # So is a constraint missed by more than the tolerance, inside the ball.
    assert filter_action(np.array([0.5 - 2e-9, 0.0, 0.0]), con, params).status is FilterStatus.PROJECTED


def _nudged(x: np.ndarray, ulps: np.ndarray) -> np.ndarray:
    """x moved by ``ulps`` units in the last place, each entry its own count in [-4, 4]."""
    for k in range(4):
        x = np.where(ulps > k, np.nextafter(x, np.inf), x)
        x = np.where(ulps < -k, np.nextafter(x, -np.inf), x)
    return x


@pytest.mark.parametrize("edge", ["plane", "ball"])
def test_admissible_holds_exactly_when_both_kernels_report_unchanged(edge):
    # Solvable instances a few ulps either side of one rule's ADMISSIBLE_TOL
    # edge: a.u = b - 1e-9 inside the ball, or |u| = alpha + 1e-9 on a
    # constraint met by 1. A BLAS dot product or norm rounds some of them
    # the other way from the kernels' left-to-right sums.
    rng = np.random.default_rng(5)
    n, alpha = 20_000, PARAMS.alpha
    U, A = rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    ulps = rng.integers(-4, 5, size=n)
    norm = np.sqrt((U[:, 0] * U[:, 0] + U[:, 1] * U[:, 1]) + U[:, 2] * U[:, 2])
    if edge == "plane":
        U *= (rng.uniform(0.1, 0.9, size=n) * alpha / norm)[:, None]
    else:
        U *= ((alpha + ADMISSIBLE_TOL) / norm)[:, None]
        U[:, 0] = _nudged(U[:, 0], ulps)
    au = (A[:, 0] * U[:, 0] + A[:, 1] * U[:, 1]) + A[:, 2] * U[:, 2]
    B = _nudged(au + ADMISSIBLE_TOL, ulps) if edge == "plane" else au - 1.0

    codes = filter_action_batch(U, A, B, alpha)[1]
    assert set(codes.tolist()) == {_STATUS_CODE[FilterStatus.UNCHANGED], _STATUS_CODE[FilterStatus.PROJECTED]}
    disagree = []
    for u, a, b, code in zip(U, A, B, codes.tolist()):
        con = make_con(a, b)
        kept = admissible(u, con, PARAMS)
        if kept != (FILTER_STATUS_ORDER[code] is FilterStatus.UNCHANGED) or kept != (
            filter_action(u, con, PARAMS).status is FilterStatus.UNCHANGED
        ):
            disagree.append((u.tolist(), a.tolist(), b))
    assert not disagree, f"{len(disagree)} of {n} instances, first {disagree[0]}"


@pytest.mark.parametrize("u, a", [(np.ones(4), np.ones(3)), (np.ones(3), np.ones(4)), (np.ones((3, 1)), np.ones(3))])
def test_filter_action_rejects_vectors_that_are_not_3_vectors(u, a):
    with pytest.raises(ValueError, match="3-vectors"):
        filter_action(u, BarrierConstraint(a=a, b=0.0), PARAMS)
    with pytest.raises(ValueError, match="3-vector"):  # the admissibility check takes the same inputs
        admissible(u, BarrierConstraint(a=a, b=0.0), PARAMS)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf, -1.0, 0.0])
def test_filter_action_batch_rejects_bad_alpha(alpha):
    U, A, B = np.ones((2, 3)), np.ones((2, 3)), np.zeros(2)
    with pytest.raises(ValueError, match="alpha"):
        filter_action_batch(U, A, B, alpha)


@pytest.mark.parametrize("shapes", [
    ((4, 3), (4, 3), ()),      # scalar B
    ((4, 3), (4, 3), (4, 1)),
    ((4, 3), (4, 3), (3,)),
    ((4, 3), (3, 3), (4,)),
    ((4, 3), (4,), (4,)),
    ((4, 2), (4, 2), (4,)),
    ((3,), (3,), ()),
])
def test_filter_action_batch_rejects_mismatched_shapes(shapes):
    U, A, B = (np.ones(s) for s in shapes)
    with pytest.raises(ValueError, match="shape"):
        filter_action_batch(U, A, B, 3.0)


def test_filter_action_batch_of_no_rows_returns_empty_arrays():
    out, status, margins, deviations = filter_action_batch(np.empty((0, 3)), np.empty((0, 3)), np.empty(0), 3.0)
    assert out.shape == (0, 3) and out.dtype == np.float64
    assert status.shape == (0,) and status.dtype == np.int8
    assert margins.shape == deviations.shape == (0,)


def test_safest_action_field_rejects_an_unknown_plane(default_gate):
    spec = GridSpec(origin=np.array([-1.5, -2.0, -2.0]), resolution=0.1, dims=(31, 41, 41))
    f = build_field(default_gate, spec)
    with pytest.raises(ValueError, match="^plane must be 'xy' or 'yz', got 'xz'$"):
        safest_action_field(f, SafetyParams(R=0.3), speed=1.0, plane="xz", offset=0.0)


def test_safest_action_field_rejects_non_finite_offset(default_gate):
    spec = GridSpec(origin=np.array([-1.5, -2.0, -2.0]), resolution=0.1, dims=(31, 41, 41))
    f = build_field(default_gate, spec)
    for offset in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="offset must be finite"):
            safest_action_field(f, SafetyParams(R=0.3), speed=1.0, plane="yz", offset=offset)


def test_safest_action_field_offset_follows_the_sampling_rule(default_gate):
    # z runs over [-2, 2] m in 0.1 m cells; sampling admits 1e-9 cells, 1e-10 m.
    spec = GridSpec(origin=np.array([-1.5, -2.0, -2.0]), resolution=0.1, dims=(31, 41, 41))
    f = build_field(default_gate, spec)
    for offset in (-2.0, 2.0, 2.0 + 5e-11, -2.0 - 5e-11):
        fld = safest_action_field(f, SafetyParams(R=0.3), speed=1.0, plane="xy", offset=offset)
        assert not fld.unsafe.all(), offset
    for offset in (2.0 + 2e-10, 2.0 + 5e-10, -2.0 - 2e-10):
        assert sample_batch(f, np.array([[0.0, 0.0, offset]]))[2][0] == SAMPLE_OOB, offset
        with pytest.raises(ValueError, match="outside grid extent"):
            safest_action_field(f, SafetyParams(R=0.3), speed=1.0, plane="xy", offset=offset)


def test_safety_filter_is_bit_identical_to_the_public_chain(default_env, monkeypatch):
    # Seeded positions around a gate whose estimated frame is at rest or yawed,
    # on the nominal and the inflated map: on the map, in inside-solid cells and off it.
    from test_sim import _numpy_calls

    circled = []
    circle = qp._circle
    monkeypatch.setattr(qp, "_circle", lambda *args: circled.append(1) or circle(*args))
    rng = np.random.default_rng(37)
    outcomes = set()
    for fld in (default_env.nominal_field, default_env.inflated_field):
        fld = copy.deepcopy(fld)
        fld.gradients  # derived: a call reads the map without numpy
        for params in (default_env.params, SafetyParams(R=0.05, gamma=1.5, alpha=2.0, dw=(0.0, 0.3, 0.05))):
            filt = qp.SafetyFilter(fld, params)
            for _ in range(2000):
                yaw = float(rng.choice([0.0, rng.uniform(-0.3, 0.3), rng.uniform(-math.pi, math.pi)]))
                pose = Pose(position=rng.uniform(-20.0, 20.0, size=3), yaw=yaw)
                c, s = pose.heading
                lx, ly, lz = rng.uniform(-1.0, 1.0, size=3) * rng.choice([0.6, 1.5, 7.0])
                x = pose.position + np.array([c * lx - s * ly, s * lx + c * ly, lz])
                u_nom = rng.uniform(-1.0, 1.0, size=3) * rng.choice([0.5, 3.0, 6.0])
                args = (x.tolist(), pose.heading, pose.position.tolist(), u_nom.tolist())
                try:
                    ev = eval_barrier_world(fld, x, pose, params)
                except ValueError as exc:
                    with pytest.raises(type(exc)):
                        filt(*args)
                    outcomes.add(type(exc).__name__)
                    continue
                dec = filter_action(u_nom, assemble_constraint(ev, params), params)
                circled.clear()
                (u, code, h, deviation), calls = _numpy_calls(lambda: filt(*args))
                assert np.array(u).tobytes() == dec.u_star.tobytes()
                assert FILTER_STATUS_ORDER[code] is dec.status
                assert np.float64(h).tobytes() == np.float64(ev.h).tobytes()
                assert np.float64(deviation).tobytes() == np.float64(dec.deviation).tobytes()
                assert calls == 0, (args, calls)
                outcomes.add(dec.status.value + (" circle" if circled else ""))
    assert {"OutOfBoundsError", "InsideObstacleError", "unchanged", "projected", "projected circle",
            "infeasible_fallback"} <= outcomes, outcomes


@pytest.mark.parametrize("name, value", [
    ("x", [-1.0, 0.9]), ("x", [-1.0, 0.9, 0.0, 5.0]),
    ("position", [0.0, 0.0]), ("position", [0.0, 0.0, 0.0, 0.0]),
    ("u_nom", [1.0, 0.0]), ("u_nom", [1.0, 0.0, 0.0, 0.0]),
])
def test_safety_filter_rejects_inputs_that_are_not_3_vectors(default_env, name, value):
    # The public chain refuses these too: eval_barrier_world's point check, filter_action's shape check.
    args = {"x": [-1.0, 0.9, 0.0], "heading": (1.0, 0.0), "position": [0.0, 0.0, 0.0], "u_nom": [1.0, 0.0, 0.0]}
    args[name] = value
    lengths = ", ".join(str(len(args[k])) for k in ("x", "position", "u_nom"))
    with pytest.raises(ValueError, match=f"x, position and u_nom must have 3 values, got {lengths}$"):
        qp.SafetyFilter(default_env.nominal_field, default_env.params)(**args)
