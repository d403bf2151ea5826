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

# Largest coordinate magnitude [m] at which clearances are taken. A clearance
# squares coordinate differences, which overflows past about 1.3e154 m (the
# square root of the largest float); coordinates and gate bounds within 1e150
# of the origin keep every square and every sum of three squares finite.
MAX_LEVEL = 1e150


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
        self.inner_size = _positive(self.inner_size, "inner_size")
        self.bar_thickness = _positive(self.bar_thickness, "bar_thickness")

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
    construction, which also copies the position and takes the heading
    (cos yaw, sin yaw) once: every use of the gate's orientation reads it.
    Gates never pitch or roll.
    """

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    yaw: float = 0.0
    heading: tuple[float, float] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "heading", (math.cos(yaw), math.sin(yaw)))


def _dot(a, v) -> float:
    """a . v for 3-vectors given as three floats each, summed left to right like :func:`_norm`."""
    return a[0] * v[0] + a[1] * v[1] + a[2] * v[2]


def _norm(v) -> float:
    """Euclidean norm of a 3-vector given as three floats: ``sqrt((x*x + y*y) + z*z)``.

    The squares are summed left to right in Python floats and ``math.sqrt``
    takes the root, so the bits depend on no BLAS kernel. A square past the
    largest float is inf, without a warning, and so is the norm.
    """
    x, y, z = v
    return math.sqrt(x * x + y * y + z * z)


def _vector(q) -> np.ndarray:
    """A 3-vector as a float array; any other shape raises ``ValueError``."""
    q = np.asarray(q, dtype=float)
    if q.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {q.shape}")
    return q


def _finite_point(q) -> tuple[np.ndarray, list[float]]:
    """A finite 3-vector as a float array and as its three Python floats."""
    q = _vector(q)
    x, y, z = coords = q.tolist()
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"point must be finite, got {q}")
    return q, coords


def _points(pts) -> np.ndarray:
    """An (N, 3) array of points as a float array."""
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array, got shape {pts.shape}")
    return pts


def _axis_bounds(v, name: str) -> np.ndarray:
    """Three finite non-negative per-axis values as a new float array."""
    v = np.array(v, dtype=float)
    if v.shape != (3,) or not np.all(np.isfinite(v)) or np.any(v < 0.0):
        raise ValueError(f"{name} must be three finite non-negative values, got {v}")
    return v


def _check_level(level: float, name: str) -> None:
    """Raise ValueError naming ``name`` unless 0 <= level <= MAX_LEVEL (NaN fails).

    Gate offsets drift by up to one level per gate, so with MAX_LEVEL also
    bounding the unrolled track, a track that drifts a thousand levels off
    axis keeps every squared clearance finite.
    """
    if not 0.0 <= level <= MAX_LEVEL:
        raise ValueError(
            f"{name} must lie in [0, {MAX_LEVEL:g}] m, where squared clearances stay finite, got {level}"
        )


def _positive(v, name: str) -> float:
    """A finite value > 0 as a Python float."""
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {v}")
    return float(v)


def exact_distance(q: np.ndarray, gate: GateGeometry) -> float:
    """Euclidean distance from a gate-frame point to the frame surface [m].

    Returns exactly -1.0 for points strictly inside the solid, 0.0 on the
    surface, and the positive clearance otherwise.
    """
    return float(exact_distance_batch(_finite_point(q)[0][None, :], gate)[0])


def exact_distance_batch(points: np.ndarray, gate: GateGeometry) -> np.ndarray:
    """Vectorized :func:`exact_distance` for an (N, 3) array of points.

    Runs :func:`_clearance` on the (N,) coordinate columns, so temporaries
    are O(N). The grid build runs it on the grid's axis arrays instead, with
    the per-axis overshoots broadcast and the operation order unchanged.
    """
    return _clearance(_points(points).T.copy(), gate)


def _clearance(cols, gate: GateGeometry, grow=0.0) -> np.ndarray:
    """Exact clearance at the points whose x, y and z coordinates are ``cols``.

    ``grow`` (per axis, or one scalar) widens every bar box to ``lo - grow``,
    ``hi + grow``: the clearance to the frame's Minkowski sum with the box
    +/-grow, the worst case over gate translations within it. Growing by 0
    changes no bound, hence no result.

    The three coordinate arrays broadcast against each other: three (N,)
    columns give N points, and the axis arrays of a grid shaped (nx, 1, 1),
    (1, ny, 1) and (1, 1, nz) give every node. Each bar's per-axis overshoot
    is computed on its own coordinate array, and its square is added to the
    sum over the broadcast shape of the axes read so far: from 0.0 in x, y, z
    order, the same additions of the same values whatever the shapes, so a
    point gets the same bits as a column entry or as a grid node, and a grid
    fills only its last sum, not all three.

    The minimum over the four bars is taken on the squared distances, with
    one square root at the end. That is exact: ``sqrt`` is correctly
    rounded, hence monotone, so the root of the minimum equals the minimum
    of the roots bit for bit.

    Every square stays finite while coordinates and gate bounds lie within
    :data:`MAX_LEVEL` of the origin.
    """
    lo, hi = gate.bar_boxes()
    lo, hi = lo - grow, hi + grow
    d = inside = None
    for box_lo, box_hi in zip(lo.tolist(), hi.tolist()):
        sq = 0.0
        box_inside = True
        for c, lk, hk in zip(cols, box_lo, box_hi):  # squares summed in axis order x, y, z
            e = np.maximum(lk - c, 0.0)
            e += np.maximum(c - hk, 0.0)
            e *= e
            sq = sq + e
            box_inside = box_inside & ((lk < c) & (c < hk))
        d = sq if d is None else np.minimum(d, sq, out=d)
        inside = box_inside if inside is None else np.logical_or(inside, box_inside, out=inside)
    np.sqrt(d, out=d)
    np.copyto(d, -1.0, where=inside)
    return d


def world_to_gate(x: np.ndarray, pose: Pose) -> np.ndarray:
    """Map a world point into the gate's local frame."""
    return np.array(_to_gate(_finite_point(x)[1], pose.heading, pose.position.tolist()))


def _to_gate(x: list[float], heading: tuple[float, float], position: list[float]) -> list[float]:
    """:func:`world_to_gate` of a finite point, for a gate with this ``Pose.heading``
    and position, all as Python floats; returns three floats.

    With (c, s) the heading and (dx, dy, dz) the offset from the gate, the
    gate-frame point is ``[c*dx + s*dy, c*dy - s*dx, dz]``.
    """
    c, s = heading
    dx, dy = x[0] - position[0], x[1] - position[1]
    return [c * dx + s * dy, c * dy - s * dx, x[2] - position[2]]


def gate_to_world(q: np.ndarray, pose: Pose) -> np.ndarray:
    """Map a gate-frame point back to world coordinates: the inverse rotation of
    :func:`world_to_gate`, ``[c*qx - s*qy, s*qx + c*qy, qz]``, plus the gate's position."""
    c, s = pose.heading
    qx, qy, qz = _finite_point(q)[1]
    px, py, pz = pose.position.tolist()
    return np.array([(c * qx - s * qy) + px, (s * qx + c * qy) + py, qz + pz])


def _slab_hit(p0, d, lo, hi) -> bool:
    """Slab test: does the segment p0 + t d, t in [0, 1], touch the closed box [lo, hi]? (Three floats each.)

    The axes are taken in x, y, z order. On each, a zero direction needs p0
    within the slab; otherwise the slab's entry and exit parameters narrow
    [tmin, tmax], which must stay non-empty.
    """
    tmin, tmax = 0.0, 1.0
    px, py, pz = p0
    dx, dy, dz = d
    lx, ly, lz = lo
    hx, hy, hz = hi
    if dx == 0.0:
        if px < lx or px > hx:
            return False
    else:
        t0, t1 = (lx - px) / dx, (hx - px) / dx
        if t0 > t1:
            t0, t1 = t1, t0
        if t0 > tmin:  # tmin = max(tmin, t0)
            tmin = t0
        if t1 < tmax:  # tmax = min(tmax, t1)
            tmax = t1
        if tmin > tmax:
            return False
    if dy == 0.0:
        if py < ly or py > hy:
            return False
    else:
        t0, t1 = (ly - py) / dy, (hy - py) / dy
        if t0 > t1:
            t0, t1 = t1, t0
        if t0 > tmin:
            tmin = t0
        if t1 < tmax:
            tmax = t1
        if tmin > tmax:
            return False
    if dz == 0.0:
        if pz < lz or pz > hz:
            return False
    else:
        t0, t1 = (lz - pz) / dz, (hz - pz) / dz
        if t0 > t1:
            t0, t1 = t1, t0
        if t0 > tmin:
            tmin = t0
        if t1 < tmax:
            tmax = t1
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
    return _segment_hits(_finite_point(p0)[1], _finite_point(p1)[1], *_slab_boxes(gate))


def _slab_boxes(gate: GateGeometry):
    """The outer box and the four bar boxes of :func:`segment_hits_frame`, as (lo, hi) float tuples."""
    hd, ho = gate.half_depth, gate.outer_half
    lo, hi = gate.bar_boxes()
    return ((-hd, -ho, -ho), (hd, ho, ho)), tuple(zip(map(tuple, lo.tolist()), map(tuple, hi.tolist())))


def _segment_hits(p0: list[float], p1: list[float], outer, bars) -> bool:
    """:func:`segment_hits_frame` on finite float endpoints and its :func:`_slab_boxes`."""
    d = [p1[0] - p0[0], p1[1] - p0[1], p1[2] - p0[2]]
    if not _slab_hit(p0, d, *outer):
        return False
    for box_lo, box_hi in bars:
        if _slab_hit(p0, d, box_lo, box_hi):
            return True
    return False
