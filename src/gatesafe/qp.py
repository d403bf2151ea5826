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
    """Project a nominal action into the admissible set with minimal deviation."""
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
    """
    na2 = _dot(a, a)
    if na2 <= _DEGENERATE_NORM:
        nu = _norm(u)
        if b <= 0.0:
            if nu <= alpha:
                return u, _DEGENERATE, -b, 0.0
            clip = _scaled(u, alpha / nu)
            return clip, _DEGENERATE, -b, _distance(u, clip)
        return [0.0, 0.0, 0.0], _FALLBACK, -b, nu

    na = math.sqrt(na2)
    if alpha * na < b:
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
    v = _circle_rows(np.array([u]), np.array([a]), np.array([b]), alpha, np.array([na2]))[0].tolist()
    return v, code, _dot(a, v) - b, _distance(u, v)


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
    ``InsideObstacleError``, and ``ValueError`` for an input that is not a 3-vector.
    ``params`` is read once; numpy is called only to derive a map block's
    gradients and in the QP's circle case.
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
    return np.add.reduce(X * Y, axis=1)


def _row_norm(X: np.ndarray) -> np.ndarray:
    """Row-wise norms of an (N, 3) array, the bits of ``geometry._norm`` per row."""
    return np.sqrt(np.add.reduce(X * X, axis=1))


def filter_action_batch(
    U: np.ndarray, A: np.ndarray, B: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`filter_action` over N independent instances.

    Returns (u_star (N,3), status codes (N,), margins (N,), deviations (N,)).
    Status codes index into FILTER_STATUS_ORDER. Each row gets the bits
    :func:`filter_action` gives it, status included: both paths run the same
    case analysis and circle step, sum every row's products left to right
    (``np.add.reduce`` along a row of three adds them in order, as the
    scalar path does), take a fallback's margin as ``alpha |a| - b`` and a
    degenerate row's as ``-b``, and report a solvable row that is admissible
    within ``ADMISSIBLE_TOL`` as unchanged.

    Each row takes the first case that applies: degenerate (``|a|^2 <=
    1e-300``), infeasible (``alpha |a| < b``), unchanged, plane foot (``a.u <
    b`` and the foot lies in the ball), ball clip (``|u| > alpha`` and the
    clip meets the halfspace), else the circle. The foot and the clip are
    computed for every row and chosen with ``np.where``; the other cases run
    only on the rows that take them.

    Raises ValueError unless ``alpha`` is finite and positive, ``U`` and
    ``A`` are (N, 3) and ``B`` is (N,).
    """
    alpha = _positive(alpha, "alpha")
    U, A, B = _points(U), np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if A.shape != U.shape or B.shape != U.shape[:1]:
        raise ValueError(f"expected A of shape {U.shape} and B of shape {U.shape[:1]}, got {A.shape}, {B.shape}")

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
    # holds. Rows inside the ball scale by alpha / alpha = 1 and stay U bit for
    # bit, which is also the unchanged and the degenerate-safe result.
    clip = U * (alpha / np.maximum(nu, alpha))[:, None]
    clip_ok = (nu > alpha) & (_row_dot(A, clip) - B >= -_CLIP_IN_HALFSPACE * np.maximum(1.0, np.abs(B)))

    out = np.where(use_foot[:, None], foot, clip)
    status = np.where(_admits(au, nu, B, alpha), np.int8(_UNCHANGED), np.int8(_PROJECTED))

    # Both boundaries active.
    circle = solvable & ~(ok | use_foot | clip_ok)
    if circle.any():
        out[circle] = _circle_rows(U[circle], A[circle], B[circle], alpha, na2[circle])
    margins = _row_dot(A, out) - B
    # Infeasible: best-effort along a.
    if infeasible.any():
        out[infeasible] = A[infeasible] * (alpha / na[infeasible])[:, None]
        status[infeasible] = _FALLBACK
        margins[infeasible] = alpha * na[infeasible] - B[infeasible]
    # Degenerate: b <= 0 keeps the clip to the ball; b > 0 gives no direction.
    if degenerate.any():
        stuck = degenerate & (B > 0.0)
        out[stuck] = 0.0
        status[degenerate] = _DEGENERATE
        status[stuck] = _FALLBACK
        margins[degenerate] = -B[degenerate]

    deviations = _row_norm(U - out)
    return out, status, margins, deviations


def _circle_rows(U, A, B, alpha, na2) -> np.ndarray:
    """Nearest point on each row's circle {a.u = b, |u| = alpha}, in closed form.

    With c0 = (b/|a|^2) a the circle's centre and perp the component of u
    orthogonal to a, the nearest circle point is c0 + r perp/|perp| with
    r = sqrt(alpha^2 - b^2/|a|^2). Row sums run left to right, as in
    :func:`_project`, so a row gets the same bits alone or in a batch.
    """
    c0 = A * (B / na2)[:, None]
    perp = U - A * (_row_dot(A, U) / na2)[:, None]
    pn = _row_norm(perp)
    r = np.sqrt(np.maximum(alpha * alpha - B * B / na2, 0.0))
    # Deterministic orthogonal direction for nominal actions parallel to a.
    par = pn < 1e-12
    if np.any(par):
        ap = A[par]
        e = np.zeros_like(ap)
        e[np.arange(ap.shape[0]), np.argmin(np.abs(ap), axis=1)] = 1.0
        alt = np.cross(ap, e)
        alt /= _row_norm(alt)[:, None]
        perp[par] = alt
        pn[par] = 1.0
    return c0 + perp * (r / pn)[:, None]


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
        raise ValueError(f"plane must be 'xy' or 'yz', got {plane!r}")
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
