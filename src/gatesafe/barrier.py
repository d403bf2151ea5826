"""Zeroing-barrier safety constraint assembled from a sampled distance field.

The barrier value is h = d^2 - R^2 for clearance d and safety radius R; the
safe set is h >= 0. Requiring dh/dt + gamma*h >= 0 along single-integrator
dynamics xdot = u + w expands to a single linear constraint on the action::

    a . u >= b,   a = 2 d grad(d),
                  b = -gamma (d^2 - R^2) + C.

C bounds the worst effect of the process disturbance w with per-axis support
|w_k| <= dw_k: the tightest constant is C = 2 d sum_k |grad_k| dw_k (attained
at w_k = -sign(grad_k) dw_k), so any action satisfying the constraint keeps
the barrier condition for every admissible disturbance.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .field import DistanceField, _sample
from .geometry import Pose, _axis_bounds, _check_level, _dot, _finite_point, _norm, _positive, _to_gate, _vector

ADMISSIBLE_TOL = 1e-9


@dataclass(eq=False)
class SafetyParams:
    """Safety-filter parameters.

    R: protected clearance radius [m]; gamma: barrier decay rate [1/s];
    alpha: action norm bound [m/s]; dw/dv: per-axis support of the process
    and observation noise [m/s] and [m], each in [0, MAX_LEVEL] like a track
    level, so the positions they move keep finite squares.
    """

    R: float = 0.3
    gamma: float = 4.0
    alpha: float = 3.0
    dw: np.ndarray = (0.1, 0.1, 0.1)  # each made a new array by __post_init__
    dv: np.ndarray = (0.25, 0.25, 0.25)

    def __post_init__(self) -> None:
        self.R = _positive(self.R, "R")
        self.gamma = _positive(self.gamma, "gamma")
        self.alpha = _positive(self.alpha, "alpha")
        self.dw = _noise_bounds(self.dw, "dw")
        self.dv = _noise_bounds(self.dv, "dv")


def _noise_bounds(v, name: str) -> np.ndarray:
    """Three per-axis noise bounds, each in [0, MAX_LEVEL], as a new float array."""
    v = _axis_bounds(v, name)
    _check_level(float(v.max()), name)
    return v


@dataclass(eq=False)
class BarrierEval:
    """Sampled clearance d, its gradient, and the barrier value h = d^2 - R^2."""

    d: float
    grad: np.ndarray
    h: float


@dataclass(eq=False)
class BarrierConstraint:
    """Linear admissibility constraint a . u >= b on the action.

    Whether any action in the alpha-ball can satisfy it (alpha * |a| >= b)
    is decided by the QP kernels, which fall back when none can.
    """

    a: np.ndarray
    b: float


def _barrier_value(d, R: float):
    """h = d^2 - R^2 for a float clearance or an array of them."""
    return d * d - R * R


def eval_barrier_world(
    f: DistanceField, x_world: np.ndarray, gate_pose: Pose, params: SafetyParams
) -> BarrierEval:
    """Sample the field at a world-frame robot position and form the barrier value.

    The gradient is rotated back into the world frame so the constraint acts
    on world-frame actions; ``Pose()`` makes the world frame the gate frame.
    Propagates the field's out-of-bounds / inside-obstacle errors.
    """
    x = _finite_point(x_world)[1]
    d, grad = _world_sample(f, _to_gate(x, gate_pose.heading, gate_pose.position.tolist()), gate_pose.heading)
    return BarrierEval(d=d, grad=np.array(grad), h=_barrier_value(d, params.R))


def _world_sample(f: DistanceField, q: list[float], heading: tuple[float, float]) -> tuple[float, list[float]]:
    """Clearance at the gate-frame point q (three floats) and its gradient in the
    world frame of a gate with this ``Pose.heading``, as three floats."""
    d, gx, gy, gz = _sample(f, q, *q)
    c, s = heading
    return d, [c * gx - s * gy, s * gx + c * gy, gz]


def _constraint(d, grad, h, gamma: float, dw) -> tuple[list, object]:
    """The robust constraint's a, as three components, and b, for one sample or N rows.

    With k = 2d::

        a = (k gx, k gy, k gz),   b = -gamma h + k (|gx| dwx + |gy| dwy + |gz| dwz)

    written per component, the sum left to right. One sample takes floats d
    and h and three float gradient components; N rows take (N,) arrays for
    each. ``dw`` is three floats. Every operation is element-wise, so a
    sample and a row holding the same values give the same bits.
    """
    gx, gy, gz = grad
    k = 2.0 * d
    return [k * gx, k * gy, k * gz], -gamma * h + k * (abs(gx) * dw[0] + abs(gy) * dw[1] + abs(gz) * dw[2])


def assemble_constraint(ev: BarrierEval, params: SafetyParams) -> BarrierConstraint:
    """Build the disturbance-robust linear constraint from a barrier sample."""
    grad = np.asarray(ev.grad, dtype=float).tolist()
    a, b = _constraint(float(ev.d), grad, float(ev.h), params.gamma, params.dw.tolist())
    return BarrierConstraint(a=np.array(a), b=b)


def admissible(u: np.ndarray, con: BarrierConstraint, params: SafetyParams) -> bool:
    """Whether an action satisfies the constraint and the norm bound, within ``ADMISSIBLE_TOL``.

    a . u and |u| are the QP kernels' left-to-right float sums, so an action is
    admissible here exactly when the QP reports it unchanged. Raises
    ValueError unless ``u`` and ``con.a`` are 3-vectors.
    """
    u, a = _vector(u).tolist(), _vector(con.a).tolist()
    return _admits(_dot(a, u), _norm(u), float(con.b), float(params.alpha))


def _admits(au, nu, b, alpha):
    """The admissibility rule on a . u and |u|, for floats or (N,) arrays of rows."""
    return (au >= b - ADMISSIBLE_TOL) & (nu <= alpha + ADMISSIBLE_TOL)
