"""Minimal-deviation action projection under one linear constraint + norm ball.

Solves, in closed form by case analysis::

    minimize   |u - u_nom|^2
    subject to a . u >= b,  |u| <= alpha

Cases:
- constraint satisfied and inside the ball: keep the action;
- otherwise project onto the first feasible of: the foot on the hyperplane
  (halfspace violated); u_nom rescaled onto the sphere (ball violated, which
  covers a ball wholly inside the halfspace: the foot then lies outside it);
  the point of the circle where the plane cuts the sphere nearest u_nom's
  component orthogonal to a (both boundaries active, closed form);
- no action in the ball can satisfy the constraint: fall back to the
  best-effort action alpha * a / |a| (maximizes the constraint margin);
- a = 0 degenerates: b <= 0 means every direction is admissible (keep the
  action, clipped to the ball); b > 0 means no direction helps at all.

A projection of an action that is admissible within ``ADMISSIBLE_TOL`` (an
ulp past the norm bound, say) is still made, but reported as unchanged.
Every dot product and norm is a left-to-right float sum, so a decision's
bits depend on no BLAS kernel, and both kernels give the same ones.

verify_kkt independently certifies a decision through stationarity, primal
feasibility, dual nonnegativity, and complementary slackness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .barrier import BarrierConstraint, SafetyParams, _admits, _barrier_value, _constraint, _world_sample
from .field import SAMPLE_OK, DistanceField, _in_range, sample_batch
from .geometry import _dot, _norm, _points, _positive, _to_gate

_DEGENERATE_NORM = 1e-300
# The slacks of the two single-set projections' tests, shared by both kernels:
# the plane foot is kept when |foot| <= alpha * _FOOT_IN_BALL, the ball clip
# when a . clip - b >= -_CLIP_IN_HALFSPACE * max(1, |b|).
_FOOT_IN_BALL = 1.0 + 1e-12
_CLIP_IN_HALFSPACE = 1e-12
_KKT_TOL = 1e-7  # verify_kkt's residual bound, relative to the instance magnitude


class FilterStatus(Enum):
    UNCHANGED = "unchanged"
    PROJECTED = "projected"
    INFEASIBLE_FALLBACK = "infeasible_fallback"
    DEGENERATE_SAFE = "degenerate_safe"


FILTER_STATUS_ORDER = tuple(FilterStatus)
_STATUS_CODE = {s: i for i, s in enumerate(FILTER_STATUS_ORDER)}
_UNCHANGED, _PROJECTED, _FALLBACK, _DEGENERATE = (_STATUS_CODE[s] for s in FilterStatus)


@dataclass
class FilterDecision:
    """Filtered action plus bookkeeping about how it was obtained.

    margin is a . u_star - b; deviation is |u_nom - u_star|. The fully
    degenerate case (a = 0 with b > 0), where no action affects the
    constraint, is the INFEASIBLE_FALLBACK with u_star = 0.
    """

    u_star: np.ndarray
    status: FilterStatus
    margin: float
    deviation: float


def filter_action(u_nom: np.ndarray, con: BarrierConstraint, params: SafetyParams) -> FilterDecision:
    """Project a nominal action into the admissible set with minimal deviation; a non-finite one raises ValueError."""
    u, a = np.asarray(u_nom, dtype=float), np.asarray(con.a, dtype=float)
    if u.shape != (3,) or a.shape != (3,):
        raise ValueError(f"expected 3-vectors u_nom and a, got shapes {u.shape} and {a.shape}")
    u_star, code, margin, deviation = _project(u.tolist(), a.tolist(), float(con.b), float(params.alpha))
    return FilterDecision(np.array(u_star), FILTER_STATUS_ORDER[code], margin, deviation)


def _project(u: list[float], a: list[float], b: float, alpha: float) -> tuple[list[float], int, float, float]:
    """:func:`filter_action` on u_nom and a given as three floats each:
    (u_star as three floats, status code, margin, deviation).

    u_star is ``u`` itself where the nominal action is kept. Every dot
    product and norm is a left-to-right sum of float products with its root
    taken by ``math.sqrt`` (``geometry._dot``, ``geometry._norm``), so the bits
    depend on no BLAS kernel; :func:`filter_action_batch` takes the same sums
    row by row and gives the same bits.

    A solvable instance whose u_nom is admissible within ``ADMISSIBLE_TOL``
    (``barrier.admissible``'s rule) but not exactly is reported unchanged:
    u_star, margin and deviation are still the projection's, a move of the
    order of an ulp, as when ``nominal_policy`` clips |u| to alpha by an ulp
    past it.

    A non-finite u_nom fails every test of the unchanged, plane-foot and
    ball-clip cases, so it is refused (ValueError) only in the other three.
    """
    na2 = _dot(a, a)
    if na2 <= _DEGENERATE_NORM:
        _check_finite(u)
        nu = _norm(u)
        if b <= 0.0:
            if nu <= alpha:
                return u, _DEGENERATE, -b, 0.0
            clip = _scaled(u, alpha / nu)
            return clip, _DEGENERATE, -b, _distance(u, clip)
        return [0.0, 0.0, 0.0], _FALLBACK, -b, nu

    na = math.sqrt(na2)
    if alpha * na < b:
        _check_finite(u)
        v = _scaled(a, alpha / na)
        return v, _FALLBACK, alpha * na - b, _distance(u, v)

    au = _dot(a, u)
    nu = _norm(u)
    if au >= b and nu <= alpha:
        return u, _UNCHANGED, au - b, 0.0
    code = _UNCHANGED if _admits(au, nu, b, alpha) else _PROJECTED

    if au < b:
        # Halfspace violated: the plane foot, kept when it lies in the ball.
        lam = (b - au) / na2
        foot = [u[0] + lam * a[0], u[1] + lam * a[1], u[2] + lam * a[2]]
        if _norm(foot) <= alpha * _FOOT_IN_BALL:
            return foot, code, _dot(a, foot) - b, _distance(u, foot)
    if nu > alpha:
        # Ball violated: the clip onto the sphere, kept when the halfspace still
        # holds (a projection onto one set landing in the other is optimal).
        clip = _scaled(u, alpha / nu)
        margin = _dot(a, clip) - b
        if margin >= -_CLIP_IN_HALFSPACE * max(1.0, abs(b)):
            return clip, code, margin, _distance(u, clip)
    # Both single-set projections failed, so both boundaries are active.
    _check_finite(u)
    v = _circle(u, a, b, alpha, na2)
    return v, code, _dot(a, v) - b, _distance(u, v)


def _check_finite(u: list[float]) -> None:
    """Raise ValueError naming u_nom unless its three values are finite."""
    if not (math.isfinite(u[0]) and math.isfinite(u[1]) and math.isfinite(u[2])):
        raise ValueError(f"u_nom must be finite, got {list(u)}")


def _circle(u: list[float], a: list[float], b: float, alpha: float, na2: float) -> list[float]:
    """Nearest point to u on the circle {a.u = b, |u| = alpha}, in closed form, on three floats each.

    With c0 = (b/|a|^2) a the circle's centre and perp the component of u
    orthogonal to a, the nearest circle point is c0 + r perp/|perp| with
    r = sqrt(alpha^2 - b^2/|a|^2), 0 where rounding leaves the radicand <= 0.
    A u parallel to a (|perp| < 1e-12), with every circle point as near,
    takes the direction a x e_k for the axis k of the smallest |a_k|, so the
    pick is deterministic.
    """
    c, t = b / na2, _dot(a, u) / na2
    perp = [u[0] - a[0] * t, u[1] - a[1] * t, u[2] - a[2] * t]
    pn = _norm(perp)
    rr = alpha * alpha - b * b / na2
    r = 0.0 if rr <= 0.0 else math.sqrt(rr)
    if pn < 1e-12:
        k = min(range(3), key=lambda i: abs(a[i]))  # the first such axis on a tie
        e = [float(i == k) for i in range(3)]
        perp = [a[1] * e[2] - a[2] * e[1], a[2] * e[0] - a[0] * e[2], a[0] * e[1] - a[1] * e[0]]
        n = _norm(perp)
        perp, pn = [perp[0] / n, perp[1] / n, perp[2] / n], 1.0
    s = r / pn
    return [a[0] * c + perp[0] * s, a[1] * c + perp[1] * s, a[2] * c + perp[2] * s]


def _scaled(v: list[float], k: float) -> list[float]:
    """v * k element-wise on three floats."""
    return [v[0] * k, v[1] * k, v[2] * k]


def _distance(u: list[float], v: list[float]) -> float:
    """|u - v| for three-float vectors."""
    return _norm((u[0] - v[0], u[1] - v[1], u[2] - v[2]))


class SafetyFilter:
    """The filter that wraps a nominal policy: one call per control step.

    ``filt(x, heading, position, u_nom)`` takes the world position, the estimated
    gate's ``Pose.heading`` and position, and the nominal action, as floats, and
    returns ``(u, code, h, deviation)``, ``code`` indexing ``FILTER_STATUS_ORDER``:
    the bits of ``eval_barrier_world``, ``assemble_constraint`` and
    :func:`filter_action` chained, with their ``OutOfBoundsError``,
    ``InsideObstacleError``, and ``ValueError`` for an input that is not a
    3-vector or a non-finite ``u_nom``. ``params`` is read once; numpy is called
    only on a map block's first query, to derive the block's gradients.
    """

    def __init__(self, field: DistanceField, params: SafetyParams) -> None:
        self.field = field
        self._constants = (params.R, params.gamma, params.alpha, params.dw.tolist())

    def __call__(self, x: list, heading: tuple, position: list, u_nom: list) -> tuple[list, int, float, float]:
        if not len(x) == len(position) == len(u_nom) == 3:
            raise ValueError(f"x, position and u_nom must have 3 values, got {len(x)}, {len(position)}, {len(u_nom)}")
        R, gamma, alpha, dw = self._constants
        d, grad = _world_sample(self.field, _to_gate(x, heading, position), heading)
        h = _barrier_value(d, R)
        a, b = _constraint(d, grad, h, gamma, dw)
        u, code, _, deviation = _project(u_nom, a, b, alpha)
        return u, code, h, deviation


def _row_dot(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, 3) arrays, each summed left to right like ``geometry._dot``."""
    return X[:, 0] * Y[:, 0] + X[:, 1] * Y[:, 1] + X[:, 2] * Y[:, 2]


def _row_norm(X: np.ndarray) -> np.ndarray:
    """Row-wise norms of an (N, 3) array, the bits of ``geometry._norm`` per row."""
    return np.sqrt(_row_dot(X, X))


def filter_action_batch(
    U: np.ndarray, A: np.ndarray, B: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`filter_action` over N independent instances.

    Returns (u_star (N,3), status codes (N,), margins (N,), deviations (N,)).
    Status codes index into FILTER_STATUS_ORDER. Each row gets the bits
    :func:`filter_action` gives it, status included.

    The unchanged, plane-foot and ball-clip cases run as one whole-batch pass
    (the foot and the clip computed for every row, chosen with ``np.where``),
    the infeasible fallback ``alpha a / |a|`` on its rows; products are summed
    left to right, as in the scalar kernel. A row with both boundaries active
    takes the scalar circle step, ``_circle``, and a degenerate row (``|a|^2
    <= 1e-300``) the scalar kernel, ``_project``, one row at a time.

    Raises ValueError unless ``alpha`` is finite and positive, ``U`` and
    ``A`` are (N, 3), ``B`` is (N,) and ``U`` is finite.
    """
    alpha = _positive(alpha, "alpha")
    U, A, B = _points(U), np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if A.shape != U.shape or B.shape != U.shape[:1]:
        raise ValueError(f"expected A of shape {U.shape} and B of shape {U.shape[:1]}, got {A.shape}, {B.shape}")
    if not np.isfinite(U).all():
        raise ValueError("U must be finite")

    na2 = _row_dot(A, A)
    na = np.sqrt(na2)
    nu = _row_norm(U)
    au = _row_dot(A, U)
    degenerate = na2 <= _DEGENERATE_NORM
    infeasible = ~degenerate & (alpha * na < B)
    solvable = ~(degenerate | infeasible)
    ok = (au >= B) & (nu <= alpha)
    half = solvable & (au < B)

    # Halfspace violated: the plane foot, kept when it lies in the ball. Rows
    # that do not take it get lam = 0, so no row divides by zero or overflows.
    lam = np.where(half, B - au, 0.0) / np.where(degenerate, 1.0, na2)
    foot = U + lam[:, None] * A
    use_foot = half & (_row_norm(foot) <= alpha * _FOOT_IN_BALL)
    # Ball violated: the clip onto the sphere, kept when the halfspace still
    # holds. Rows inside the ball scale by 1 and keep U's bits: the unchanged result.
    clip = U * (alpha / np.maximum(nu, alpha))[:, None]
    clip_ok = (nu > alpha) & (_row_dot(A, clip) - B >= -_CLIP_IN_HALFSPACE * np.maximum(1.0, np.abs(B)))

    out = np.where(use_foot[:, None], foot, clip)
    status = np.where(_admits(au, nu, B, alpha), np.int8(_UNCHANGED), np.int8(_PROJECTED))
    circle = np.flatnonzero(solvable & ~(ok | use_foot | clip_ok))
    if circle.size:
        rows = zip(U[circle].tolist(), A[circle].tolist(), B[circle].tolist(), na2[circle].tolist())
        out[circle] = [_circle(u, a, b, alpha, m) for u, a, b, m in rows]
    margins = _row_dot(A, out) - B
    if infeasible.any():
        out[infeasible] = A[infeasible] * (alpha / na[infeasible])[:, None]
        status[infeasible] = _FALLBACK
        margins[infeasible] = alpha * na[infeasible] - B[infeasible]
    for i in np.flatnonzero(degenerate).tolist():
        out[i], status[i], margins[i], _ = _project(U[i].tolist(), A[i].tolist(), float(B[i]), alpha)
    deviations = _row_norm(U - out)
    return out, status, margins, deviations


def verify_kkt(u_nom: np.ndarray, con: BarrierConstraint, params: SafetyParams, decision: FilterDecision) -> bool:
    """Independently certify a feasible decision's optimality via KKT.

    Checks primal feasibility, then stationarity with nonnegative multipliers
    restricted to the active constraints (complementary slackness holds by
    construction: inactive constraints get multiplier exactly zero). The
    multipliers come from a nonnegative least-squares fit found by
    enumerating the active sets of the (at most two) active constraints, so
    dual feasibility is enforced rather than assumed; the stationarity
    residual must fall within ``_KKT_TOL`` scaled by the instance magnitude. Not
    applicable to infeasible fallbacks.
    """
    if decision.status is FilterStatus.INFEASIBLE_FALLBACK:
        raise ValueError("KKT certification applies to feasible decisions only")
    u_nom = np.asarray(u_nom, dtype=float)
    a = np.asarray(con.a, dtype=float)
    b = float(con.b)
    u = decision.u_star
    alpha = params.alpha

    scale = 1.0 + float(np.linalg.norm(u_nom)) + float(np.linalg.norm(a)) + abs(b) + alpha
    tol_s = _KKT_TOL * scale

    # Primal feasibility.
    plane_slack = float(a @ u) - b
    ball_slack = alpha - float(np.linalg.norm(u))
    if plane_slack < -tol_s or ball_slack < -tol_s:
        return False

    # Stationarity: u_nom - u = mu * u - lambda * a with mu, lambda >= 0 and
    # multipliers only on active constraints.
    cols = []
    if ball_slack <= tol_s:
        cols.append(u)
    if plane_slack <= tol_s:
        cols.append(-a)
    rhs = u_nom - u
    if not cols:
        return float(np.linalg.norm(rhs)) <= tol_s
    return _nnls_residual(np.stack(cols, axis=1), rhs) <= tol_s


def _nnls_residual(M: np.ndarray, rhs: np.ndarray) -> float:
    """min |M x - rhs| over x >= 0 for a few columns, by enumerating active sets.

    Some optimum is the least-squares fit on a subset of the columns with
    nonnegative coefficients (Lawson and Hanson), so the minimum is the
    smallest residual of such fits, or |rhs| for x = 0. A single column m
    has the closed form x = max(m.rhs, 0) / m.m (x = 0 for m = 0).
    """
    n = M.shape[1]
    full = (1 << n) - 1
    best = float(np.linalg.norm(rhs))
    for mask in range(full, 0, -1):
        cols = [j for j in range(n) if mask >> j & 1]
        if len(cols) == 1:
            m = M[:, cols[0]]
            mm = float(m.dot(m))
            x = max(float(m.dot(rhs)), 0.0) / mm if mm > 0.0 else 0.0
            r = _norm((m * x - rhs).tolist())
        else:
            sub = M[:, cols]
            x = np.linalg.lstsq(sub, rhs, rcond=None)[0]
            if not np.all(x >= 0.0):
                continue
            r = float(np.linalg.norm(sub @ x - rhs))
        if mask == full:
            return r  # the unconstrained fit is nonnegative: nothing does better
        best = min(best, r)
    return best


@dataclass
class PlaneActionField:
    """Safest sampled action per grid node on one axis-aligned plane.

    positions holds each node's gate-frame point; directions the chosen
    action (norm = speed) per node and zeros where unsafe; unsafe marks nodes
    where every sampled direction violates the constraint (nodes inside/too
    close to the solid count as unsafe). All three share the node grid shape.
    """

    positions: np.ndarray
    directions: np.ndarray
    unsafe: np.ndarray


def _check_samples(n: int, name: str) -> None:
    """Raise ValueError naming ``name`` unless n >= 2 directions are sampled."""
    if n < 2:
        raise ValueError(f"{name} must be at least 2, got {n}")


def _check_speed(speed: float, alpha: float, name: str) -> None:
    """Raise ValueError naming ``name`` unless 0 < speed <= alpha."""
    if not (0.0 < speed <= alpha):
        raise ValueError(f"{name} must lie in (0, alpha={alpha}], got {speed}")


# Plane name -> (first in-plane axis, second in-plane axis, fixed axis).
_PLANE_AXES = {"xy": (0, 1, 2), "yz": (1, 2, 0)}


def _check_offset(offset: float, f: DistanceField, plane: str, name: str) -> None:
    """Raise ValueError naming ``name`` unless the map samples the plane at ``offset`` on its fixed axis."""
    axis = _PLANE_AXES[plane][2]
    if not math.isfinite(offset):
        raise ValueError(f"{name} must be finite, got {offset}")
    if not _in_range(f, axis, offset):
        lo, hi = f.spec.origin[axis], f.spec.max_corner[axis]
        raise ValueError(f"{name} {offset} outside grid extent [{lo:g}, {hi:g}] on axis {'xyz'[axis]}")


def safest_action_field(
    f: DistanceField,
    params: SafetyParams,
    speed: float,
    plane: str,
    offset: float,
    angular_samples: int = 72,
) -> PlaneActionField:
    """Margin-maximizing in-plane action at every grid node of a plane slice.

    plane "xy" varies x and y at z = offset; plane "yz" varies y and z at
    x = offset. Sampled directions are ``angular_samples`` unit vectors in the
    plane scaled to ``speed`` (must not exceed the norm bound).
    """
    if plane not in _PLANE_AXES:
        raise ValueError(f"plane must be {' or '.join(map(repr, _PLANE_AXES))}, got {plane!r}")
    _check_speed(speed, params.alpha, "speed")
    _check_samples(angular_samples, "angular_samples")
    _check_offset(offset, f, plane, "offset")
    au, av, fixed = _PLANE_AXES[plane]

    uu, vv = np.meshgrid(f.spec.axis_nodes(au), f.spec.axis_nodes(av), indexing="ij")
    pts = np.zeros(uu.shape + (3,))
    pts[..., au] = uu
    pts[..., av] = vv
    pts[..., fixed] = offset
    flat = pts.reshape(-1, 3)

    d, grad, code = sample_batch(f, flat)
    valid = code == SAMPLE_OK

    theta = 2.0 * math.pi * np.arange(angular_samples) / angular_samples
    dirs = np.zeros((angular_samples, 3))
    dirs[:, au] = np.cos(theta)
    dirs[:, av] = np.sin(theta)

    a, b = _constraint(d, grad.T, _barrier_value(d, params.R), params.gamma, params.dw.tolist())
    margins = speed * (np.array(a).T @ dirs.T) - b[:, None]
    margins[~valid] = -np.inf
    best = np.argmax(margins, axis=1)
    best_margin = margins[np.arange(flat.shape[0]), best]
    unsafe = ~valid | (best_margin < 0.0)

    directions = speed * dirs[best]
    directions[unsafe] = 0.0

    shape = uu.shape
    return PlaneActionField(
        positions=pts,
        directions=directions.reshape(shape + (3,)),
        unsafe=unsafe.reshape(shape),
    )
