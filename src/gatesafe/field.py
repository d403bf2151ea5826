"""Precomputed distance fields around a gate, with worst-case inflation.

The field stores, at every node of a regular gate-frame grid, the exact
Euclidean clearance to the frame (sentinel -1.0 strictly inside the solid).
Node gradients are finite differences of those values, derived on demand
for the cells a query reads: a single-point query derives the block of
16^3 cells that holds its cell; a batch query derives the bounding box of the
cells its rows read, plus the one-node halo the differences take, and no
more. Queries between nodes are answered by trilinear interpolation of both
values and gradients.

Worst-case inflation by eps stores, at every node, the minimum clearance
over all gate translations within +/-eps per axis: the exact clearance to
the frame's Minkowski sum with that box, every bar box grown by eps on each
side. It is the clearance kernel run on the grown boxes, exact for any eps
and any bar thickness. Inflated values never exceed nominal ones.

File format (all little-endian)::

    magic   4 bytes  b"ESDF"
    version u32      4
    dims    3 x u32  nx, ny, nz
    origin  3 x f64  grid min corner [m]
    res     f64      node spacing [m]
    infl    3 x f64  inflation applied per axis [m] (0 for a nominal map)
    values  nx*ny*nz x f32, C node order: node (i, j, l) at (i*ny + j)*nz + l, z fastest
    crc32   u32      checksum of every preceding byte

The file holds no gradients: a loaded field derives them from the values,
exactly as a built one does. Grid geometry is kept at full double precision
so node coordinates of a loaded map equal those of the freshly built one
bit for bit; node values are f32 in the in-memory array's own node order,
so a save writes that array as it is and a load reads the file once into
the buffer that becomes it. Version 3 files, whose values were x-fastest,
are refused: such a map must be rebuilt.
"""
from __future__ import annotations

import math
import mmap
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import (
    INSIDE_SENTINEL, GateGeometry, _axis_bounds, _check_count, _clearance, _finite_point, _points, _positive, _vector,
)

MAGIC = b"ESDF"
FORMAT_VERSION = 4
_HEADER = struct.Struct("<4sI3I3dd3d")


def _map_array(shape: tuple[int, ...], dtype) -> np.ndarray:
    """A zero-filled, writable array in an anonymous memory mapping of its own.

    A map's node arrays (built values, the buffer a file is read into, the
    gradients) live in such mappings, not in the C allocator's heap. Their
    pages go back to the system when the map is freed, and pages never
    written are never resident. With ``np.zeros``/``np.empty`` that holds
    only while glibc serves the request with a mapping; once it has freed a
    mapping of that size it serves the next from its heap, where a small
    allocation made meanwhile can keep the freed pages resident, and the
    process's peak memory then varies with allocation order from run to run.
    """
    count = math.prod(shape)
    buf = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1))
    return np.frombuffer(buf, dtype=dtype, count=count).reshape(shape)


# A query may lie this many cells past the outer nodes (rounding slack).
_EDGE_CELLS = 1e-9

# Node gradients are derived per block of this many cells along each axis.
_GRAD_BLOCK = 16

# Largest map coordinate magnitude [m]. Node values are float32: a node within
# 1e37 of the origin lies within 3.5e37 of any gate its grid covers, so
# its clearance fits, and every square the build takes stays far inside the
# geometry.MAX_LEVEL bound.
MAP_BOUND = 1e37


class MapFormatError(Exception):
    """A map file does not conform to the on-disk format."""


class OutOfBoundsError(ValueError):
    """A query point lies outside the grid extent."""


class InsideObstacleError(ValueError):
    """A query cell touches the solid; interpolation is undefined there."""


@dataclass(eq=False)
class GridSpec:
    """Regular grid in the gate frame: min corner, node spacing, node counts."""

    origin: np.ndarray
    resolution: float
    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        self.origin = _finite_point(self.origin, "origin")[0]
        self.resolution = _positive(self.resolution, "resolution")
        self.dims = tuple(_check_count(n, f"dims[{k}]", minimum=2) for k, n in zip(range(3), self.dims, strict=True))

    @property
    def max_corner(self) -> np.ndarray:
        return self.origin + self.resolution * (np.array(self.dims, dtype=float) - 1.0)

    def axis_nodes(self, k: int) -> np.ndarray:
        return self.origin[k] + self.resolution * np.arange(self.dims[k])

    def node_axes(self) -> tuple[np.ndarray, ...]:
        """The axis node arrays shaped (nx, 1, 1), (1, ny, 1) and (1, 1, nz): they broadcast to every node."""
        return tuple(self.axis_nodes(k).reshape([-1 if a == k else 1 for a in range(3)]) for k in range(3))


@dataclass(eq=False)
class DistanceField:
    """Node values (float32, -1 inside the solid) and the gradients derived from them.

    ``gate`` is the geometry a built map was computed from, which
    :func:`inflate_field` grows; a loaded map has none, and its ``values``
    are a writable view of the buffer the file was read into.

    Gradients are derived on demand and kept, in boxes of nodes: each box
    runs :func:`_node_gradients` on its nodes plus a one-node halo, so every
    gradient is bit-identical to a whole-grid derivation, whatever box
    derived it. The grid is split into blocks of ``_GRAD_BLOCK`` cells per
    axis, each with one flag in ``_done``, set once a box has covered the
    block wholly. :func:`sample` derives the block of its cell when that
    flag is unset; :func:`sample_batch` derives the bounding box of the cells
    of its rows in unflagged blocks (rows out of bounds or touching the
    solid read no gradients), so a plane slice derives the two node layers
    around its plane, not the blocks they cross. A later query in a block
    that box covered only in part derives that block again, with the same
    bits.

    The grid's lookup constants are taken once, on construction. For
    :func:`sample` they are one plain tuple, ``_lookup``: the origin as three
    floats, the resolution, ``ny`` and ``nz``, the three upper range limits
    ``(n - 1) + _EDGE_CELLS``, the last cell's index per axis and the block
    strides ``by`` and ``bz``; and the two corner formats. For
    :func:`sample_batch` they are the bounds, strides and corner offsets as
    arrays.

    :func:`sample` reads a cell's corners straight from the arrays' buffers:
    one ``struct.unpack_from`` of ``values`` at byte ``4 * node`` and one of
    the gradients at ``12 * node``, where ``node = (i*ny + j)*nz + l`` is the
    cell's lowest corner. Each format reads two floats per (dx, dy) pair of
    corners and skips the bytes between them, so ``values`` must be float32
    (another dtype raises ``ValueError``) and is made C-ordered. The formats
    and the lookup tuple are plain Python values, so a field pickles and
    deep-copies like its arrays.
    """

    spec: GridSpec
    values: np.ndarray
    inflated_by: np.ndarray = field(default_factory=lambda: np.zeros(3))
    gate: GateGeometry | None = None
    _grads: np.ndarray = field(init=False, repr=False)
    _blocks: tuple[int, int, int] = field(init=False, repr=False)
    _done: bytearray = field(init=False, repr=False)  # one flag per block, x-major
    _lookup: tuple = field(init=False, repr=False)  # sample's grid constants, see __post_init__
    _batch: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _value_corners: str = field(init=False, repr=False)  # struct formats of a cell's corners
    _grad_corners: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.inflated_by = np.asarray(self.inflated_by, dtype=float)
        if self.values.shape != self.spec.dims:
            raise ValueError(f"values shape {self.values.shape} != dims {self.spec.dims}")
        if self.values.dtype != np.float32:
            raise ValueError(f"values dtype {self.values.dtype} is not float32")
        self.values = np.ascontiguousarray(self.values)  # the corner reads take the C node order
        # Zero-filled pages of its own, so those of blocks never derived are never resident.
        self._grads = _map_array(self.spec.dims + (3,), np.float32)
        self._blocks = tuple(-(-(n - 1) // _GRAD_BLOCK) for n in self.spec.dims)
        self._done = bytearray(math.prod(self._blocks))
        nx, ny, nz = self.spec.dims
        _, by, bz = self._blocks
        hi = ((nx - 1) + _EDGE_CELLS, (ny - 1) + _EDGE_CELLS, (nz - 1) + _EDGE_CELLS)  # in-bounds limits
        last = (nx - 2, ny - 2, nz - 2)  # last cell
        self._lookup = (*self.spec.origin.tolist(), self.spec.resolution, ny, nz, *hi, *last, by, bz)
        sx = ny * nz
        self._batch = (
            np.array(hi),
            np.array((nx - 1, ny - 1, nz - 1), dtype=float),  # last node
            np.array(last, dtype=float),
            np.array((by * bz, bz, 1), dtype=np.intp),  # block strides
            np.array((sx, nz, 1), dtype=np.intp),  # node strides
            np.array((0, 1, nz, nz + 1, sx, sx + 1, sx + nz, sx + nz + 1), dtype=np.intp)[:, None],  # corner offsets
        )
        # Corners (dx, dy, 0) and (dx, dy, 1) are adjacent nodes, dx*sx + dy*nz past the lowest.
        self._value_corners = "=2f{}x2f{}x2f{}x2f".format(4 * (nz - 2), 4 * (sx - nz - 2), 4 * (nz - 2))
        self._grad_corners = "=6f{}x6f{}x6f{}x6f".format(12 * (nz - 2), 12 * (sx - nz - 2), 12 * (nz - 2))

    @property
    def gradients(self) -> np.ndarray:
        """Node gradients, (nx, ny, nz, 3) float32, after deriving every missing block."""
        if 0 in self._done:
            layer = len(self._done) // self._blocks[0]
            for start in range(0, len(self._done), layer):  # one x layer of blocks at a time bounds the temporaries
                self._derive(np.arange(start, start + layer))
        return self._grads

    def _derive(self, blocks: np.ndarray) -> None:
        """Derive the bounding box of those of ``blocks`` (flat block numbers) not derived yet."""
        done = np.frombuffer(self._done, dtype=np.uint8)
        missing = np.unravel_index(blocks[done[blocks] == 0], self._blocks)
        if missing[0].size == 0:
            return
        self._derive_nodes(
            [_GRAD_BLOCK * int(m.min()) for m in missing], [_GRAD_BLOCK * (int(m.max()) + 1) + 1 for m in missing]
        )

    def _derive_nodes(self, lo, hi) -> None:
        """Derive the nodes ``lo[k] <= n_k < hi[k]`` (clipped to the grid), then flag the blocks they cover wholly."""
        dims = self.spec.dims
        box = [slice(int(a), min(int(b), n)) for a, b, n in zip(lo, hi, dims)]
        # The box's nodes, then one node more on each side where the grid goes on:
        # a node's rule reads its +/-1 neighbours and whether it is a border node.
        halo = [slice(max(s.start - 1, 0), min(s.stop + 1, n)) for s, n in zip(box, dims)]
        g = _node_gradients(self.values[tuple(halo)], self.spec.resolution)
        self._grads[tuple(box)] = g[tuple(slice(s.start - h.start, s.stop - h.start) for s, h in zip(box, halo))]
        # Block b holds nodes 16 b to min(16 b + 16, n - 1): inside the box from
        # the first block starting in it to the last one ending in it.
        flagged = [
            slice(-(-s.start // _GRAD_BLOCK), nb if s.stop == n else (s.stop - 1) // _GRAD_BLOCK)
            for s, n, nb in zip(box, dims, self._blocks)
        ]
        np.frombuffer(self._done, dtype=np.uint8).reshape(self._blocks)[tuple(flagged)] = 1


def _check_map_axis(ends, name: str) -> None:
    """Raise ValueError naming ``name`` unless both ends of a map axis lie in [-MAP_BOUND, MAP_BOUND] (NaN fails)."""
    if not all(-MAP_BOUND <= v <= MAP_BOUND for v in ends):
        raise ValueError(
            f"{name} must lie in [-{MAP_BOUND:g}, {MAP_BOUND:g}] m, where node clearances fit a float32 map, "
            f"got [{', '.join(f'{v:g}' for v in ends)}]"
        )


def _check_extent(
    gate: GateGeometry,
    spec: GridSpec,
    safety_radius: float,
    inflation: np.ndarray | None,
    axis: str = "grid extent on axis '{}'",
    margins: str = "margins",
) -> None:
    """:func:`build_field`'s rule on the grid extent, per axis in x, y, z order.

    Errors name axis k as ``axis.format(k's letter)`` and the margins as
    ``margins``, so a caller can name them in its own terms.
    """
    infl = np.zeros(3) if inflation is None else _axis_bounds(inflation, "inflation")
    required = np.array([gate.half_depth, gate.outer_half, gate.outer_half])
    required = required + _axis_bounds(np.full(3, safety_radius), "safety_radius") + infl
    for k, letter in enumerate("xyz"):
        lo, hi = spec.origin[k], spec.max_corner[k]
        _check_map_axis((lo, hi), axis.format(letter))
        if lo > -required[k] or hi < required[k]:
            raise ValueError(
                f"{axis.format(letter)} [{lo:g}, {hi:g}] does not cover the gate "
                f"plus {margins} (need at least [-{required[k]:g}, {required[k]:g}])"
            )


def build_field(
    gate: GateGeometry,
    spec: GridSpec,
    *,
    safety_radius: float = 0.0,
    inflation: np.ndarray | None = None,
) -> DistanceField:
    """Evaluate the exact gate clearance at every grid node.

    Each bar's per-axis overshoots are computed on the three axis arrays and
    broadcast over the grid, with no (N, 3) point list. The operation order is
    that of :func:`~gatesafe.geometry.exact_distance_batch`, so every node
    value equals its value at the node's point bit for bit.

    The grid must extend past the gate's outer bounds by ``safety_radius`` plus
    the planned per-axis ``inflation`` (both finite and non-negative) on every
    side, and lie within ``MAP_BOUND`` of the origin; otherwise a
    ``ValueError`` names the offending axis.
    """
    _check_extent(gate, spec, safety_radius, inflation)
    return _gate_field(gate, spec, np.zeros(3))


def _gate_field(gate: GateGeometry, spec: GridSpec, eps: np.ndarray) -> DistanceField:
    """The map of ``gate``'s clearance at ``spec``'s nodes, every bar box grown by ``eps`` (zeros: nominal).

    Both :func:`build_field` and :func:`inflate_field` end here, after their
    checks; so does ``build-map --inflate``, which builds no nominal map.
    """
    values = _clearance(spec.node_axes(), gate, grow=eps, out=_map_array(spec.dims, np.float32))
    return DistanceField(spec=spec, values=values, inflated_by=eps, gate=gate)


def _node_gradients(values: np.ndarray, res: float) -> np.ndarray:
    """Central differences per axis, one-sided at borders and next to -1 cells.

    Nodes inside the solid (value -1) get zero gradient; -1 neighbors are
    excluded from every stencil. Differences are taken in float64 straight
    from the float32 values (the widening is exact, so no float64 copy of the
    grid is needed) and rounded once into the float32 result.
    """
    valid = values != INSIDE_SENTINEL
    grads = np.zeros(values.shape + (3,), dtype=np.float32)

    def along(axis, start, stop):
        sl = [slice(None)] * 3
        sl[axis] = slice(start, stop)
        return tuple(sl)

    for axis in range(3):
        g = grads[..., axis]
        lo, hi, mid = along(axis, 0, -1), along(axis, 1, None), along(axis, 1, -1)
        # A pair of neighbours (k, k + 1), both outside the solid, gives the
        # backward difference at k + 1 and the forward one at k; a node with
        # both neighbours outside the solid takes the central one instead.
        pair = valid[lo] & valid[hi]
        step = np.subtract(values[hi], values[lo], dtype=np.float64) / res
        np.copyto(g[hi], step, where=pair)
        np.copyto(g[lo], step, where=pair)
        del step  # one map-sized float64 temporary at a time bounds every build's and load's peak
        central = np.subtract(values[along(axis, 2, None)], values[along(axis, 0, -2)], dtype=np.float64) / (2.0 * res)
        np.copyto(g[mid], central, where=pair[lo] & pair[hi])
        del central
    return grads


def quantize_inflation(eps: np.ndarray, resolution: float) -> np.ndarray:
    """Round a per-axis inflation up to whole cells of ``resolution`` (never down).

    A count ``eps / resolution`` within 1e-9 cells past a whole number rounds
    to that number, so float noise costs no cell; where that many cells fall
    short of ``eps`` in floats, one cell more is taken. Raises ``ValueError``
    when the rounded inflation overflows.
    """
    eps = _axis_bounds(eps, "eps")
    resolution = _positive(resolution, "resolution")
    with np.errstate(over="ignore"):
        cells = np.maximum(np.ceil(eps / resolution - 1e-9), 0.0)
        cells += cells * resolution < eps
        quantized = cells * resolution
    if not np.all(np.isfinite(quantized)):
        raise ValueError(f"eps {eps.tolist()} overflows when rounded up to whole {resolution:g} m cells")
    return quantized


def inflate_field(f: DistanceField, eps: np.ndarray) -> DistanceField:
    """Worst-case inflation: the clearance to the map's gate with every bar box grown by ``eps``.

    Any finite non-negative ``eps`` per axis is exact, whole cells or not.
    The input must be a nominal map from :func:`build_field`: an inflated
    map, or a loaded one (which records no gate), raises ``ValueError``.
    """
    if np.any(f.inflated_by != 0.0):
        raise ValueError(f"field is already inflated by {f.inflated_by}; inflate a nominal field")
    if f.gate is None:
        raise ValueError("field records no gate (a loaded map); inflate a map from build_field")
    return _gate_field(f.gate, f.spec, _axis_bounds(eps, "eps"))


def sample(f: DistanceField, q: np.ndarray) -> tuple[float, np.ndarray]:
    """Trilinear value and gradient at a gate-frame point.

    Raises :class:`OutOfBoundsError` outside the grid extent and
    :class:`InsideObstacleError` when any corner of the enclosing cell is an
    inside-solid node; a point that is no 3-vector or not finite raises
    ``ValueError``.
    """
    qx, qy, qz = _vector(q).tolist()
    d, *grad = _sample(f, q, qx, qy, qz)
    return d, np.array(grad)


def _sample(f: DistanceField, q, qx: float, qy: float, qz: float) -> tuple[float, float, float, float]:
    """:func:`sample` at the point (qx, qy, qz): the value and the three gradient components.

    ``q`` is the point as the caller holds it, named in the errors; a list
    of floats is named as it is, with no numpy call. Every grid constant
    comes from the field's ``_lookup`` tuple. The cell indices and the
    fractions are clamped by comparisons that replace a value only where
    ``min`` or ``max`` would, so they equal the builtins' results, ``-0.0``
    included. The cell's eight corner values and 24 gradient floats come
    from two ``struct.unpack_from`` reads of the field's buffers (see
    :class:`DistanceField`), widened to float exactly as ``tolist`` would.
    """
    ox, oy, oz, res, ny, nz, hx, hy, hz, lx, ly, lz, by, bz = f._lookup
    # Grid coordinates, checked per axis in x, y, z order; a NaN fails the
    # range test as well and is rejected as non-finite.
    rx = (qx - ox) / res
    if not -_EDGE_CELLS <= rx <= hx:
        _reject_query(q, qx, 0)
    ry = (qy - oy) / res
    if not -_EDGE_CELLS <= ry <= hy:
        _reject_query(q, qy, 1)
    rz = (qz - oz) / res
    if not -_EDGE_CELLS <= rz <= hz:
        _reject_query(q, qz, 2)
    # int() truncates towards zero, so r >= -_EDGE_CELLS gives an index >= 0.
    # Each clamp replaces a value only where min() or max() would, so a
    # fraction of -0.0 stays -0.0.
    i = int(rx)
    if i > lx:
        i = lx
    j = int(ry)
    if j > ly:
        j = ly
    l = int(rz)
    if l > lz:
        l = lz
    tx = rx - i
    if tx < 0.0:
        tx = 0.0
    elif tx > 1.0:
        tx = 1.0
    ty = ry - j
    if ty < 0.0:
        ty = 0.0
    elif ty > 1.0:
        ty = 1.0
    tz = rz - l
    if tz < 0.0:
        tz = 0.0
    elif tz > 1.0:
        tz = 1.0

    # Corner k is (i + dx, j + dy, l + dz) with k = 4 dx + 2 dy + dz.
    node = (i * ny + j) * nz + l
    c0, c1, c2, c3, c4, c5, c6, c7 = struct.unpack_from(f._value_corners, f.values, 4 * node)
    if min(c0, c1, c2, c3, c4, c5, c6, c7) == INSIDE_SENTINEL:
        raise InsideObstacleError(f"query {_listed(q)} touches an inside-solid cell")
    block = (i // _GRAD_BLOCK * by + j // _GRAD_BLOCK) * bz + l // _GRAD_BLOCK
    if not f._done[block]:
        f._derive(np.array([block]))
    (x0, y0, z0, x1, y1, z1, x2, y2, z2, x3, y3, z3,
     x4, y4, z4, x5, y5, z5, x6, y6, z6, x7, y7, z7) = struct.unpack_from(f._grad_corners, f._grads, 12 * node)

    sx, sy, sz = 1 - tx, 1 - ty, 1 - tz
    # Each weight is (wx * wy) * wz; corners 2m and 2m + 1 share wx * wy.
    w = sx * sy
    w0, w1 = w * sz, w * tz
    w = sx * ty
    w2, w3 = w * sz, w * tz
    w = tx * sy
    w4, w5 = w * sz, w * tz
    w = tx * ty
    w6, w7 = w * sz, w * tz
    # Sums start at 0.0 and add the corners in order 0..7 (pinned in test_field).
    d = 0.0 + w0 * c0 + w1 * c1 + w2 * c2 + w3 * c3 + w4 * c4 + w5 * c5 + w6 * c6 + w7 * c7
    gx = 0.0 + w0 * x0 + w1 * x1 + w2 * x2 + w3 * x3 + w4 * x4 + w5 * x5 + w6 * x6 + w7 * x7
    gy = 0.0 + w0 * y0 + w1 * y1 + w2 * y2 + w3 * y3 + w4 * y4 + w5 * y5 + w6 * y6 + w7 * y7
    gz = 0.0 + w0 * z0 + w1 * z1 + w2 * z2 + w3 * z3 + w4 * z4 + w5 * z5 + w6 * z6 + w7 * z7
    return d, gx, gy, gz


def _in_range(f: DistanceField, axis: int, coord: float) -> bool:
    """Whether a world coordinate on ``axis`` passes :func:`sample`'s grid range test."""
    return -_EDGE_CELLS <= (coord - f._lookup[axis]) / f._lookup[3] <= f._lookup[6 + axis]


def _reject_query(q, qk: float, axis: int) -> None:
    """Raise for a query coordinate that failed the grid range test."""
    if not math.isfinite(qk):
        raise ValueError(f"query must be finite, got {q}")
    raise OutOfBoundsError(f"query {_listed(q)} outside grid extent on axis {'xyz'[axis]}")


def _listed(q) -> list:
    """``np.asarray(q).tolist()``, for an error message; a list of floats is already that list."""
    if type(q) is list and all(type(v) is float for v in q):
        return q
    return np.asarray(q).tolist()


# Status codes returned by sample_batch.
SAMPLE_OK = 0
SAMPLE_OOB = 1
SAMPLE_IN_OBSTACLE = 2


# Rows per pass of sample_batch: bounds its temporaries (about 1 kB a row).
_SAMPLE_BLOCK = 8192


def sample_batch(f: DistanceField, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized :func:`sample` with per-point status codes instead of raises.

    Returns (values, gradients, status); entries with nonzero status carry
    NaN values. A point with a non-finite coordinate is out of bounds.

    Every value and gradient is bit-identical to :func:`sample`'s: corner k
    is (i + dx, j + dy, l + dz) with k = 4 dx + 2 dy + dz, its weight is
    (wx * wy) * wz, and each sum starts at 0.0 and adds corners 0..7 in
    order. The rows are processed in blocks of ``_SAMPLE_BLOCK``, so the
    temporaries stay bounded at any N.
    """
    pts = _points(pts)
    n = pts.shape[0]
    vals = np.empty(n)
    grads = np.empty((n, 3))
    status = np.empty(n, dtype=np.int8)
    for s in range(0, n, _SAMPLE_BLOCK):
        e = min(s + _SAMPLE_BLOCK, n)
        vg, status[s:e] = _sample_block(f, pts[s:e])
        vals[s:e] = vg[0]
        grads[s:e] = vg[1:].T
    return vals, grads, status


def _sample_block(f: DistanceField, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One block of :func:`sample_batch`: a (4, N) value-and-gradient array and status."""
    n = pts.shape[0]
    hi, last_node, last_cell, block_strides, node_strides, corners = f._batch
    # A coordinate far outside the grid may overflow to inf; it is out of bounds.
    with np.errstate(over="ignore"):
        rel = (pts - f.spec.origin) / f.spec.resolution
    # A non-finite coordinate fails both comparisons, so its row is out of bounds.
    inside = np.logical_and.reduce((rel >= -_EDGE_CELLS) & (rel <= hi), axis=1)
    # Clamping to the node range keeps each in-bounds row's cell and leaves its
    # fraction in [0, 1]; fmax/fmin also map NaN to a node, so the cast and
    # gather below are safe.
    np.fmin(np.fmax(rel, 0.0, out=rel), last_node, out=rel)
    cell = np.fmin(np.floor(rel), last_cell)
    frac = rel - cell
    cell = cell.astype(np.intp)

    # Values and gradients share one (8, 4, N) array, corner-major: row k
    # holds corner k's value and gradient components of every point. A
    # leading-axis reduce over it adds the corners one by one, while a lone
    # (8,) column (N = 1) would be summed pairwise.
    flat = cell @ node_strides + corners
    vg = np.empty((8, 4, n))
    vg[:, 0] = np.take(f.values, flat)
    in_obs = np.minimum.reduce(vg[:, 0], axis=0) == INSIDE_SENTINEL
    # Rows out of bounds or touching the solid read no gradients.
    todo = inside & ~in_obs
    todo &= np.frombuffer(f._done, dtype=np.uint8)[(cell // _GRAD_BLOCK) @ block_strides] == 0
    if todo.any():
        cells = cell[todo]
        f._derive_nodes(cells.min(axis=0), cells.max(axis=0) + 2)  # each cell's eight corner nodes
    vg[:, 1:] = np.take(f._grads.reshape(-1, 3), flat, axis=0).transpose(0, 2, 1)

    t = np.empty((2, 3, n))
    np.subtract(1.0, frac.T, out=t[0])
    t[1] = frac.T
    w = (t[:, None, None, 0] * t[None, :, None, 1]) * t[None, None, :, 2]
    vg *= w.reshape(8, 1, n)
    vg = np.add.reduce(vg, axis=0, initial=0.0)

    status = np.where(in_obs, np.int8(SAMPLE_IN_OBSTACLE), np.int8(SAMPLE_OK))
    status = np.where(inside, status, np.int8(SAMPLE_OOB))
    bad = ~inside | in_obs
    if bad.any():
        vg[:, bad] = np.nan
    return vg, status


def save_field(f: DistanceField, path: str | Path) -> None:
    """Write a field to disk in the binary map format.

    The values are checksummed and written from the field's own C-ordered
    buffer, so saving copies no part of the map.
    """
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        *f.spec.dims,
        *(float(c) for c in f.spec.origin),
        float(f.spec.resolution),
        *(float(e) for e in f.inflated_by),
    )
    values = f.values.astype("<f4", copy=False)  # the field's own array on a little-endian host
    crc = zlib.crc32(values, zlib.crc32(header))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(values)
        fh.write(struct.pack("<I", crc))


def load_field(path: str | Path) -> DistanceField:
    """Read a field written by :func:`save_field`, verifying the checksum.

    The file is read once, into a writable buffer whose values section
    becomes the loaded map's array, in the file's C node order.
    """
    with open(path, "rb") as fh:
        raw = _map_array((os.fstat(fh.fileno()).st_size,), np.uint8)
        raw = raw[: fh.readinto(raw)]  # a short read leaves a short buffer, refused below
    if len(raw) < 4:
        raise MapFormatError(f"{path}: file shorter than the magic header")
    if bytes(raw[:4]) != MAGIC:
        raise MapFormatError(f"{path}: bad magic {bytes(raw[:4])!r}")
    if len(raw) < _HEADER.size:
        raise MapFormatError(f"{path}: truncated header")
    magic, version, nx, ny, nz, ox, oy, oz, res, ex, ey, ez = _HEADER.unpack_from(raw, 0)
    if version != FORMAT_VERSION:
        raise MapFormatError(
            f"{path}: unsupported format version {version} (this build reads version {FORMAT_VERSION}; rebuild the map)"
        )

    n = nx * ny * nz
    size = _HEADER.size + 4 * n + 4  # values, crc
    if len(raw) < size:
        raise MapFormatError(f"{path}: expected {size} bytes, found {len(raw)}")
    if len(raw) > size:
        raise MapFormatError(f"{path}: {len(raw) - size} trailing bytes after checksum")

    (stored_crc,) = struct.unpack_from("<I", raw, size - 4)
    crc = zlib.crc32(raw[: size - 4])  # a view: no copy of the map
    if crc != stored_crc:
        raise MapFormatError(f"{path}: crc32 {crc:#010x} != stored {stored_crc:#010x}")

    values = np.frombuffer(raw, dtype="<f4", count=n, offset=_HEADER.size).reshape((nx, ny, nz))
    try:
        spec = GridSpec(origin=np.array([ox, oy, oz], dtype=float), resolution=float(res), dims=(nx, ny, nz))
        inflated_by = _axis_bounds((ex, ey, ez), "inflation")
    except ValueError as exc:
        raise MapFormatError(f"{path}: bad grid header: {exc}") from exc
    fault = _values_fault(values, spec.resolution)
    if fault is not None:
        raise MapFormatError(f"{path}: {fault}")
    return DistanceField(spec=spec, values=values, inflated_by=inflated_by)


def _values_fault(values: np.ndarray, res: float) -> str | None:
    """Why node values are no map's, or None: each must be a clearance or -1.

    Every node difference the gradients take lies within the spread of the
    values outside the solid, so a spread that stays finite in float32 over
    ``res`` lets every block be derived without an overflow or NaN. The
    screen copies no part of the map: a plain minimum and maximum, and a
    masked minimum for the least value outside the solid only when the
    sentinel is the least value.
    """
    lo, hi = float(values.min()), float(values.max())  # NaN if any value is NaN
    if lo == INSIDE_SENTINEL:
        if hi == INSIDE_SENTINEL:
            return None  # every node inside the solid
        lo = float(np.min(values, where=values != INSIDE_SENTINEL, initial=math.inf))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return f"node gradients at resolution {res:g}: invalid value: node values must be finite"
    if lo < 0.0:
        return f"node value {lo:g} is neither a clearance (>= 0) nor the inside sentinel {INSIDE_SENTINEL:g}"
    if (hi - lo) / res > float(np.finfo(np.float32).max):
        return f"node gradients at resolution {res:g}: overflow: node values span {hi - lo:g} m"
    return None
