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

import math
from dataclasses import dataclass, field

import numpy as np

from .field import DistanceField, sample
from .geometry import Pose, world_to_gate

ADMISSIBLE_TOL = 1e-9


@dataclass
class SafetyParams:
    """Safety-filter parameters.

    R: protected clearance radius [m]; gamma: barrier decay rate [1/s];
    alpha: action norm bound [m/s]; dw/dv: per-axis support of the process
    and observation noise [m/s] and [m].
    """

    R: float = 0.3
    gamma: float = 4.0
    alpha: float = 3.0
    dw: np.ndarray = field(default_factory=lambda: np.full(3, 0.1))
    dv: np.ndarray = field(default_factory=lambda: np.full(3, 0.25))

    def __post_init__(self) -> None:
        self.dw = np.asarray(self.dw, dtype=float)
        self.dv = np.asarray(self.dv, dtype=float)
        for name, val in (("R", self.R), ("gamma", self.gamma), ("alpha", self.alpha)):
            if not (math.isfinite(val) and val > 0.0):
                raise ValueError(f"{name} must be positive, got {val}")
        for name, vec in (("dw", self.dw), ("dv", self.dv)):
            if vec.shape != (3,) or not np.all(np.isfinite(vec)) or np.any(vec < 0.0):
                raise ValueError(f"{name} must be three finite non-negative values, got {vec}")


@dataclass
class BarrierEval:
    """Sampled clearance d, its gradient, and the barrier value h = d^2 - R^2."""

    d: float
    grad: np.ndarray
    h: float


@dataclass
class BarrierConstraint:
    """Linear admissibility constraint a . u >= b on the action.

    Whether any action in the alpha-ball can satisfy it (alpha * |a| >= b)
    is decided by the QP kernels, which fall back when none can.
    """

    a: np.ndarray
    b: float


def eval_barrier_world(
    f: DistanceField, x_world: np.ndarray, gate_pose: Pose, params: SafetyParams
) -> BarrierEval:
    """Sample the field at a world-frame robot position and form the barrier value.

    The gradient is rotated back into the world frame so the constraint acts
    on world-frame actions; ``Pose()`` makes the world frame the gate frame.
    Propagates the field's out-of-bounds / inside-obstacle errors.
    """
    d, grad = sample(f, world_to_gate(x_world, gate_pose))
    c, s = math.cos(gate_pose.yaw), math.sin(gate_pose.yaw)
    gx, gy, gz = grad.tolist()
    world_grad = np.array([c * gx - s * gy, s * gx + c * gy, gz])
    return BarrierEval(d=d, grad=world_grad, h=d * d - params.R * params.R)


def assemble_constraint(ev: BarrierEval, params: SafetyParams) -> BarrierConstraint:
    """Build the disturbance-robust linear constraint from a barrier sample."""
    a = 2.0 * ev.d * ev.grad
    c_robust = 2.0 * ev.d * float(np.abs(ev.grad).dot(params.dw))
    b = float(-params.gamma * ev.h + c_robust)
    return BarrierConstraint(a=a, b=b)


def admissible(u: np.ndarray, con: BarrierConstraint, params: SafetyParams) -> bool:
    """Whether an action satisfies the constraint and the norm bound."""
    u = np.asarray(u, dtype=float)
    return bool(
        float(con.a @ u) >= con.b - ADMISSIBLE_TOL
        and float(np.linalg.norm(u)) <= params.alpha + ADMISSIBLE_TOL
    )
