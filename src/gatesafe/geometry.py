"""Square racing-gate obstacle: exact distances, segment tests, frame transforms.

Conventions
-----------
A gate is a square frame of four axis-aligned rectangular bars. In the gate's
local frame the opening lies in the y-z plane and the fly-through direction is
+x. The frame material occupies::

    |x| <= bar_thickness / 2
    inner_size / 2 <= max(|y|, |z|) <= inner_size / 2 + bar_thickness

All distances are Euclidean and in meters. Points strictly inside the solid
get the sentinel distance -1.0; points on the surface get 0.0.

Each bar is modeled as a box spanning the full outer extent along its long
axis, so the four boxes overlap at the corners. That makes "strictly interior
to some bar box" coincide exactly with "strictly interior to the solid frame",
including at the internal interfaces between adjacent bars.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class GateGeometry:
    """Square gate frame dimensions.

    inner_size is the side length of the square opening [m]; bar_thickness is
    the cross-section side of each bar [m] (bars are square in cross-section
    in the y-z sense and bar_thickness deep along x).
    """

    inner_size: float = 1.5
    bar_thickness: float = 0.25

    def __post_init__(self) -> None:
        if not (math.isfinite(self.inner_size) and self.inner_size > 0.0):
            raise ValueError(f"inner_size must be positive, got {self.inner_size}")
        if not (math.isfinite(self.bar_thickness) and self.bar_thickness > 0.0):
            raise ValueError(f"bar_thickness must be positive, got {self.bar_thickness}")

    @property
    def inner_half(self) -> float:
        """Half the opening width [m]."""
        return 0.5 * self.inner_size

    @property
    def outer_half(self) -> float:
        """Half the outer frame width [m]."""
        return 0.5 * self.inner_size + self.bar_thickness

    @property
    def half_depth(self) -> float:
        """Half the frame extent along local x [m]."""
        return 0.5 * self.bar_thickness

    def bar_boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners of the four bar boxes, each shaped (4, 3).

        Order: top (+z), bottom (-z), right (+y), left (-y). The long axis of
        every box spans the full outer extent, so adjacent boxes overlap at
        the corners of the frame.
        """
        hi_in = self.inner_half
        hi_out = self.outer_half
        hd = self.half_depth
        lo = np.array(
            [
                [-hd, -hi_out, hi_in],   # top bar
                [-hd, -hi_out, -hi_out],  # bottom bar
                [-hd, hi_in, -hi_out],   # right bar
                [-hd, -hi_out, -hi_out],  # left bar
            ]
        )
        hi = np.array(
            [
                [hd, hi_out, hi_out],
                [hd, hi_out, -hi_in],
                [hd, hi_out, hi_out],
                [hd, -hi_in, hi_out],
            ]
        )
        return lo, hi


@dataclass(frozen=True)
class Pose:
    """Rigid gate pose: world position of the opening center plus yaw [rad].

    Yaw is rotation about world +z and is normalized to (-pi, pi] on
    construction, which also copies the position and builds the
    world-to-gate rotation. Gates never pitch or roll.
    """

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    yaw: float = 0.0
    to_gate: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        position = np.array(self.position, dtype=float)
        if position.shape != (3,):
            raise ValueError(f"position must be a 3-vector, got shape {position.shape}")
        if not np.all(np.isfinite(position)) or not math.isfinite(self.yaw):
            raise ValueError("pose must be finite")
        yaw = math.remainder(float(self.yaw), math.tau)
        if yaw <= -math.pi:  # remainder can return exactly -pi
            yaw = math.pi
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "yaw", yaw)
        object.__setattr__(self, "to_gate", _rot_z(-yaw))


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D float vector, bit for bit float(np.linalg.norm(v)).

    This is numpy's own formula, sqrt of the dot product of the raveled
    vector, minus its wrapper overhead. It is not a Python-float sum of
    squares: the dot product runs in BLAS, whose kernels may fuse
    multiply-adds, so summing the squares in Python can move the last bit.
    """
    v = v.ravel()
    return math.sqrt(v.dot(v))


def _finite_point(q) -> tuple[np.ndarray, list[float]]:
    """A finite 3-vector as a float array and as its three Python floats."""
    q = np.asarray(q, dtype=float)
    if q.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {q.shape}")
    x, y, z = coords = q.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"point must be finite, got {q}")
    return q, coords


def _axis_bounds(v, name: str) -> np.ndarray:
    """Three finite non-negative per-axis values as a new float array."""
    v = np.array(v, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)) or np.any(v < 0.0):
        raise ValueError(f"{name} must be three finite non-negative values, got {v}")
    return v


def exact_distance(q: np.ndarray, gate: GateGeometry) -> float:
    """Euclidean distance from a gate-frame point to the frame surface [m].

    Returns exactly -1.0 for points strictly inside the solid, 0.0 on the
    surface, and the positive clearance otherwise.
    """
    return float(exact_distance_batch(_finite_point(q)[0][None, :], gate)[0])


def exact_distance_batch(points: np.ndarray, gate: GateGeometry) -> np.ndarray:
    """Vectorized :func:`exact_distance` for an (N, 3) array of points.

    Works box by box on (N,) coordinate columns, so temporaries are O(N).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array, got shape {pts.shape}")
    cols = pts.T.copy()
    lo, hi = gate.bar_boxes()
    d = np.full(len(pts), np.inf)
    inside = np.zeros(len(pts), dtype=bool)
    for box_lo, box_hi in zip(lo.tolist(), hi.tolist()):
        sq = np.zeros(len(pts))
        box_inside = np.ones(len(pts), dtype=bool)
        for c, lk, hk in zip(cols, box_lo, box_hi):  # squares summed in axis order x, y, z
            e = np.maximum(lk - c, 0.0)
            e += np.maximum(c - hk, 0.0)
            e *= e
            sq += e
            box_inside &= (lk < c) & (c < hk)
        np.minimum(d, np.sqrt(sq, out=sq), out=d)
        inside |= box_inside
    d[inside] = -1.0
    return d


def _rot_z(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def world_to_gate(x: np.ndarray, pose: Pose) -> np.ndarray:
    """Map a world point into the gate's local frame."""
    x = _finite_point(x)[0]
    return pose.to_gate.dot(x - pose.position)


def gate_to_world(q: np.ndarray, pose: Pose) -> np.ndarray:
    """Map a gate-frame point back to world coordinates."""
    q = _finite_point(q)[0]
    return _rot_z(pose.yaw) @ q + pose.position


def _slab_hit(p0: list[float], d: list[float], lo: list[float], hi: list[float]) -> bool:
    """Slab test: does the segment p0 + t d, t in [0, 1], touch the closed box [lo, hi]?"""
    tmin, tmax = 0.0, 1.0
    for pk, dk, lk, hk in zip(p0, d, lo, hi):
        if dk == 0.0:
            if pk < lk or pk > hk:
                return False
            continue
        t0, t1 = (lk - pk) / dk, (hk - pk) / dk
        if t0 > t1:
            t0, t1 = t1, t0
        tmin = max(tmin, t0)
        tmax = min(tmax, t1)
        if tmin > tmax:
            return False
    return True


def segment_hits_frame(p0: np.ndarray, p1: np.ndarray, gate: GateGeometry) -> bool:
    """True if the gate-frame segment p0 -> p1 touches the solid frame.

    Standard slab test against each bar box; touching counts as a hit. A miss
    on the outer box [-hd, hd] x [-outer_half, outer_half]^2 returns at once,
    and exactly: every bar box lies inside it, and the rounded slab parameter
    fl((lo - p0) / dk) is monotone in lo, so each bar's per-axis interval lies
    inside the outer box's and a miss there is a miss on all four bars.
    """
    p0 = _finite_point(p0)[1]
    p1 = _finite_point(p1)[1]
    d = [b - a for a, b in zip(p0, p1)]
    hd, ho = gate.half_depth, gate.outer_half
    if not _slab_hit(p0, d, [-hd, -ho, -ho], [hd, ho, ho]):
        return False
    lo, hi = gate.bar_boxes()
    return any(_slab_hit(p0, d, box_lo, box_hi) for box_lo, box_hi in zip(lo.tolist(), hi.tolist()))
