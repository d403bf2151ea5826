"""Minimal-deviation action projection under one linear constraint + norm ball.

Solves, in closed form by case analysis::

    minimize   |u - u_nom|^2
    subject to a . u >= b,  |u| <= alpha

Cases:
- constraint satisfied and inside the ball: keep the action;
- halfspace violated: project onto the hyperplane, accept if inside the ball;
- ball violated (alone, or with a plane foot outside the ball): rescale onto
  the sphere, accept if the halfspace still holds;
- both boundaries active: the optimum lies on the circle where the plane cuts
  the sphere, at the circle point nearest u_nom's component orthogonal to a
  (closed form);
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
import scipy.optimize

from .barrier import BarrierConstraint, SafetyParams
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

    margin is a . u_star - b; deviation is |u_nom - u_star|.
    no_improving_direction flags the fully degenerate case (a = 0 with b > 0)
    where no action affects the constraint.
    """

    u_star: np.ndarray
    status: FilterStatus
    margin: float
    deviation: float
    no_improving_direction: bool = False


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
            no_improving_direction=True,
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

    if b <= -alpha * na:
        # The whole norm ball satisfies the halfspace, so only the norm bound
        # can bind: clip onto the ball (nu > alpha here, else unchanged above).
        u = u_nom * (alpha / nu)
        return FilterDecision(
            u_star=u,
            status=FilterStatus.PROJECTED,
            margin=float(a.dot(u)) - b,
            deviation=_norm(u_nom - u),
        )

    if au < b:
        # Halfspace violated; project onto its boundary plane.
        u = u_nom + ((b - au) / na2) * a
        if _norm(u) <= alpha * (1.0 + 1e-12):
            return FilterDecision(
                u_star=u,
                status=FilterStatus.PROJECTED,
                margin=float(a.dot(u)) - b,
                deviation=_norm(u_nom - u),
            )
    if nu > alpha:
        # Clip onto the ball and keep it if the halfspace still holds (a
        # projection onto one set that lands in the other is globally
        # optimal). Reached with au >= b only when the ball alone is violated.
        u = u_nom * (alpha / nu)
        m = float(a.dot(u)) - b
        if m >= -1e-12 * max(1.0, abs(b)):
            return FilterDecision(
                u_star=u, status=FilterStatus.PROJECTED, margin=m, deviation=_norm(u_nom - u)
            )

    # Both single-set projections failed, so both boundaries are active.
    u = _circle_rows(u_nom[None, :], a[None, :], np.array([b]), alpha, np.array([na2]))[0]
    return FilterDecision(
        u_star=u,
        status=FilterStatus.PROJECTED,
        margin=float(a.dot(u)) - b,
        deviation=_norm(u_nom - u),
    )


def filter_action_batch(
    U: np.ndarray, A: np.ndarray, B: np.ndarray, alpha: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`filter_action` over N independent instances.

    Returns (u_star (N,3), status codes (N,), margins (N,), deviations (N,)).
    Status codes index into FILTER_STATUS_ORDER. Both paths run the same case
    analysis and the same closed-form circle step, so they agree to rounding.
    """
    U = np.asarray(U, dtype=float)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = U.shape[0]
    out = np.empty_like(U)
    status = np.empty(n, dtype=np.int8)

    na2 = np.einsum("ij,ij->i", A, A)
    na = np.sqrt(na2)
    nu = np.linalg.norm(U, axis=1)
    au = np.einsum("ij,ij->i", A, U)

    degenerate = na2 <= _DEGENERATE_NORM
    deg_safe = degenerate & (B <= 0.0)
    deg_stuck = degenerate & (B > 0.0)
    infeasible = ~degenerate & (alpha * na < B)
    solvable = ~(degenerate | infeasible)

    # Degenerate-safe: clip to the ball.
    scale = np.where(nu > alpha, alpha / np.where(nu == 0.0, 1.0, nu), 1.0)
    out[deg_safe] = U[deg_safe] * scale[deg_safe, None]
    status[deg_safe] = _STATUS_CODE[FilterStatus.DEGENERATE_SAFE]
    out[deg_stuck] = 0.0
    status[deg_stuck] = _STATUS_CODE[FilterStatus.INFEASIBLE_FALLBACK]

    # Infeasible: best-effort along a.
    if np.any(infeasible):
        out[infeasible] = A[infeasible] * (alpha / na[infeasible])[:, None]
        status[infeasible] = _STATUS_CODE[FilterStatus.INFEASIBLE_FALLBACK]

    # Feasible and untouched.
    ok = solvable & (au >= B) & (nu <= alpha)
    out[ok] = U[ok]
    status[ok] = _STATUS_CODE[FilterStatus.UNCHANGED]

    # Ball entirely inside the halfspace: only the norm bound can bind.
    contained = solvable & ~ok & (B <= -alpha * na)
    if np.any(contained):
        out[contained] = U[contained] * (alpha / nu[contained])[:, None]
        status[contained] = _STATUS_CODE[FilterStatus.PROJECTED]
    todo = solvable & ~ok & ~contained

    # Halfspace violation: the plane foot, when it lies in the ball.
    half_v = todo & (au < B)
    if np.any(half_v):
        lam = (B[half_v] - au[half_v]) / na2[half_v]
        cand = U[half_v] + lam[:, None] * A[half_v]
        good = np.linalg.norm(cand, axis=1) <= alpha * (1.0 + 1e-12)
        idx = np.flatnonzero(half_v)[good]
        out[idx] = cand[good]
        status[idx] = _STATUS_CODE[FilterStatus.PROJECTED]
        todo[idx] = False

    # Ball clip, kept when the halfspace still holds.
    clip_v = todo & (nu > alpha)
    if np.any(clip_v):
        cand = U[clip_v] * (alpha / nu[clip_v])[:, None]
        m = np.einsum("ij,ij->i", A[clip_v], cand) - B[clip_v]
        keep = m >= -1e-12 * np.maximum(1.0, np.abs(B[clip_v]))
        idx = np.flatnonzero(clip_v)[keep]
        out[idx] = cand[keep]
        status[idx] = _STATUS_CODE[FilterStatus.PROJECTED]
        todo[idx] = False

    # Both boundaries active.
    if np.any(todo):
        out[todo] = _circle_rows(U[todo], A[todo], B[todo], alpha, na2[todo])
        status[todo] = _STATUS_CODE[FilterStatus.PROJECTED]

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


FILTER_STATUS_ORDER = (
    FilterStatus.UNCHANGED,
    FilterStatus.PROJECTED,
    FilterStatus.INFEASIBLE_FALLBACK,
    FilterStatus.DEGENERATE_SAFE,
)
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
    multipliers come from a nonnegative least-squares fit, so dual feasibility
    is enforced rather than assumed; the stationarity residual must fall
    within ``tol`` scaled by the instance magnitude. Not applicable to
    infeasible fallbacks.
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
    M = np.stack(cols, axis=1)
    _, rnorm = scipy.optimize.nnls(M, rhs)
    return rnorm <= tol_s


@dataclass
class PlaneActionField:
    """Safest sampled action per grid node on one axis-aligned plane.

    directions holds the chosen action (norm = speed) per node and zeros where
    unsafe; unsafe marks nodes where every sampled direction violates the
    constraint (nodes inside/too close to the solid count as unsafe).
    """

    plane: str
    offset: float
    coords_u: np.ndarray
    coords_v: np.ndarray
    positions: np.ndarray
    directions: np.ndarray
    unsafe: np.ndarray
    margins: np.ndarray


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

    cu = f.spec.axis_nodes(au)
    cv = f.spec.axis_nodes(av)
    uu, vv = np.meshgrid(cu, cv, indexing="ij")
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

    a = 2.0 * d[:, None] * grad
    c_robust = 2.0 * d * (np.abs(grad) @ params.dw)
    b = -params.gamma * (d * d - params.R * params.R) + c_robust

    margins = speed * (a @ dirs.T) - b[:, None]
    margins[~valid] = -np.inf
    best = np.argmax(margins, axis=1)
    best_margin = margins[np.arange(flat.shape[0]), best]
    unsafe = ~valid | (best_margin < 0.0)

    directions = speed * dirs[best]
    directions[unsafe] = 0.0

    shape = uu.shape
    return PlaneActionField(
        plane=plane,
        offset=float(offset),
        coords_u=cu,
        coords_v=cv,
        positions=pts,
        directions=directions.reshape(shape + (3,)),
        unsafe=unsafe.reshape(shape),
        margins=best_margin.reshape(shape),
    )
