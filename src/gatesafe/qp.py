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

verify_kkt independently certifies a decision through stationarity, primal
feasibility, dual nonnegativity, and complementary slackness.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .barrier import BarrierConstraint, SafetyParams, _constraint
from .field import DistanceField, sample_batch, SAMPLE_OK
from .geometry import _norm

_DEGENERATE_NORM = 1e-300


class FilterStatus(Enum):
    UNCHANGED = "unchanged"
    PROJECTED = "projected"
    INFEASIBLE_FALLBACK = "infeasible_fallback"
    DEGENERATE_SAFE = "degenerate_safe"


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
    u_nom = np.asarray(u_nom, dtype=float)
    a = np.asarray(con.a, dtype=float)
    b = float(con.b)
    alpha = float(params.alpha)

    na2 = float(a.dot(a))
    if na2 <= _DEGENERATE_NORM:
        nu = _norm(u_nom)
        if b <= 0.0:
            u = u_nom if nu <= alpha else u_nom * (alpha / nu)
            return FilterDecision(
                u_star=u,
                status=FilterStatus.DEGENERATE_SAFE,
                margin=-b,
                deviation=_norm(u_nom - u),
            )
        return FilterDecision(
            u_star=np.zeros(3),
            status=FilterStatus.INFEASIBLE_FALLBACK,
            margin=-b,
            deviation=nu,
        )

    na = math.sqrt(na2)
    if alpha * na < b:
        u = a * (alpha / na)
        return FilterDecision(
            u_star=u,
            status=FilterStatus.INFEASIBLE_FALLBACK,
            margin=alpha * na - b,
            deviation=_norm(u_nom - u),
        )

    au = float(a.dot(u_nom))
    nu = _norm(u_nom)
    if au >= b and nu <= alpha:
        return FilterDecision(u_star=u_nom.copy(), status=FilterStatus.UNCHANGED, margin=au - b, deviation=0.0)

    u = None
    if au < b:
        # Halfspace violated: the plane foot, kept when it lies in the ball.
        foot = u_nom + ((b - au) / na2) * a
        if _norm(foot) <= alpha * (1.0 + 1e-12):
            u = foot
    if u is None and nu > alpha:
        # Ball violated: the clip onto the sphere, kept when the halfspace still
        # holds (a projection onto one set landing in the other is optimal).
        clip = u_nom * (alpha / nu)
        if float(a.dot(clip)) - b >= -1e-12 * max(1.0, abs(b)):
            u = clip
    if u is None:
        # Both single-set projections failed, so both boundaries are active.
        u = _circle_rows(u_nom[None, :], a[None, :], np.array([b]), alpha, np.array([na2]))[0]
    return FilterDecision(u, FilterStatus.PROJECTED, float(a.dot(u)) - b, _norm(u_nom - u))


def filter_action_batch(
    U: np.ndarray, A: np.ndarray, B: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`filter_action` over N independent instances.

    Returns (u_star (N,3), status codes (N,), margins (N,), deviations (N,)).
    Status codes index into FILTER_STATUS_ORDER. Both paths run the same case
    analysis and circle step, but this one reduces with ``np.linalg.norm`` and
    ``einsum``, not BLAS ``dot``, so a row near a case boundary (``|u| =
    alpha``, ``a.u = b``) may get another status than in :func:`filter_action`.
    Rows in the same case agree to rounding.

    Each row takes the first case that applies: degenerate (``|a|^2 <=
    1e-300``), infeasible (``alpha |a| < b``), unchanged, plane foot (``a.u <
    b`` and the foot lies in the ball), ball clip (``|u| > alpha`` and the
    clip meets the halfspace), else the circle. The foot and the clip are
    computed for every row and chosen with ``np.where``; the other cases run
    only on the rows that take them.

    Raises ValueError unless ``alpha`` is finite and positive, ``U`` and
    ``A`` are (N, 3) and ``B`` is (N,).
    """
    U = np.asarray(U, dtype=float)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    alpha = float(alpha)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if U.ndim != 2 or U.shape[1] != 3 or A.shape != U.shape or B.shape != U.shape[:1]:
        raise ValueError(f"expected U, A of shape (N, 3) and B of shape (N,), got {U.shape}, {A.shape}, {B.shape}")

    na2 = np.einsum("ij,ij->i", A, A)
    na = np.sqrt(na2)
    nu = np.linalg.norm(U, axis=1)
    au = np.einsum("ij,ij->i", A, U)

    degenerate = na2 <= _DEGENERATE_NORM
    infeasible = ~degenerate & (alpha * na < B)
    solvable = ~(degenerate | infeasible)
    ok = (au >= B) & (nu <= alpha)
    half = solvable & (au < B)

    # Halfspace violated: the plane foot, kept when it lies in the ball. Rows
    # that do not take it get lam = 0, so no row divides by zero or overflows.
    lam = np.where(half, B - au, 0.0) / np.where(degenerate, 1.0, na2)
    foot = U + lam[:, None] * A
    use_foot = half & (np.linalg.norm(foot, axis=1) <= alpha * (1.0 + 1e-12))
    # Ball violated: the clip onto the sphere, kept when the halfspace still
    # holds. Rows inside the ball scale by alpha / alpha = 1 and stay U bit for
    # bit, which is also the unchanged and the degenerate-safe result.
    clip = U * (alpha / np.maximum(nu, alpha))[:, None]
    clip_ok = (nu > alpha) & (np.einsum("ij,ij->i", A, clip) - B >= -1e-12 * np.maximum(1.0, np.abs(B)))

    out = np.where(use_foot[:, None], foot, clip)
    status = np.where(
        ok, np.int8(_STATUS_CODE[FilterStatus.UNCHANGED]), np.int8(_STATUS_CODE[FilterStatus.PROJECTED])
    )

    # Both boundaries active.
    circle = solvable & ~(ok | use_foot | clip_ok)
    if circle.any():
        out[circle] = _circle_rows(U[circle], A[circle], B[circle], alpha, na2[circle])
    # Infeasible: best-effort along a.
    if infeasible.any():
        out[infeasible] = A[infeasible] * (alpha / na[infeasible])[:, None]
        status[infeasible] = _STATUS_CODE[FilterStatus.INFEASIBLE_FALLBACK]
    # Degenerate: b <= 0 keeps the clip to the ball; b > 0 gives no direction.
    if degenerate.any():
        stuck = degenerate & (B > 0.0)
        out[stuck] = 0.0
        status[degenerate] = _STATUS_CODE[FilterStatus.DEGENERATE_SAFE]
        status[stuck] = _STATUS_CODE[FilterStatus.INFEASIBLE_FALLBACK]

    margins = np.einsum("ij,ij->i", A, out) - B
    deviations = np.linalg.norm(U - out, axis=1)
    return out, status, margins, deviations


def _circle_rows(U, A, B, alpha, na2) -> np.ndarray:
    """Nearest point on each row's circle {a.u = b, |u| = alpha}, in closed form.

    With c0 = (b/|a|^2) a the circle's centre and perp the component of u
    orthogonal to a, the nearest circle point is c0 + r perp/|perp| with
    r = sqrt(alpha^2 - b^2/|a|^2).
    """
    c0 = A * (B / na2)[:, None]
    perp = U - A * (np.einsum("ij,ij->i", A, U) / na2)[:, None]
    pn = np.linalg.norm(perp, axis=1)
    r = np.sqrt(np.maximum(alpha * alpha - B * B / na2, 0.0))
    # Deterministic orthogonal direction for nominal actions parallel to a.
    par = pn < 1e-12
    if np.any(par):
        ap = A[par]
        e = np.zeros_like(ap)
        e[np.arange(ap.shape[0]), np.argmin(np.abs(ap), axis=1)] = 1.0
        alt = np.cross(ap, e)
        alt /= np.linalg.norm(alt, axis=1)[:, None]
        perp[par] = alt
        pn[par] = 1.0
    return c0 + perp * (r / pn)[:, None]


FILTER_STATUS_ORDER = tuple(FilterStatus)
_STATUS_CODE = {s: i for i, s in enumerate(FILTER_STATUS_ORDER)}


def verify_kkt(
    u_nom: np.ndarray,
    con: BarrierConstraint,
    params: SafetyParams,
    decision: FilterDecision,
    tol: float = 1e-7,
) -> bool:
    """Independently certify a feasible decision's optimality via KKT.

    Checks primal feasibility, then stationarity with nonnegative multipliers
    restricted to the active constraints (complementary slackness holds by
    construction: inactive constraints get multiplier exactly zero). The
    multipliers come from a nonnegative least-squares fit found by
    enumerating the active sets of the (at most two) active constraints, so
    dual feasibility is enforced rather than assumed; the stationarity
    residual must fall within ``tol`` scaled by the instance magnitude. Not
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
    tol_s = tol * scale

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
            r = _norm(m * x - rhs)
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
    if plane not in ("xy", "yz"):
        raise ValueError(f"plane must be 'xy' or 'yz', got {plane!r}")
    if not (0.0 < speed <= params.alpha):
        raise ValueError(f"speed must lie in (0, alpha={params.alpha}], got {speed}")
    if angular_samples < 2:
        raise ValueError("angular_samples must be at least 2")

    if plane == "xy":
        au, av, fixed = 0, 1, 2
    else:
        au, av, fixed = 1, 2, 0
    lo, hi = f.spec.origin[fixed], f.spec.max_corner[fixed]
    if not math.isfinite(offset):
        raise ValueError(f"offset must be finite, got {offset}")
    if offset < lo - 1e-9 or offset > hi + 1e-9:
        raise ValueError(f"offset {offset} outside grid extent [{lo:g}, {hi:g}] on axis {'xyz'[fixed]}")

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

    a, b = _constraint(d, grad, d * d - params.R * params.R, params)
    margins = speed * (a @ dirs.T) - b[:, None]
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
