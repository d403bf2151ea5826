"""Precomputed distance fields around a gate, with worst-case inflation.

The field stores, at every node of a regular gate-frame grid, the exact
Euclidean clearance to the frame (sentinel -1.0 strictly inside the solid)
plus finite-difference gradients. Queries between nodes are answered by
trilinear interpolation of both values and gradients.

Worst-case inflation replaces each node value with the minimum over a
(2kx+1) x (2ky+1) x (2kz+1) box of nodes, taken as one separable window
minimum per axis with border nodes repeated; it realizes "minimum clearance
over all gate translations within +/-eps per axis" quantized to whole cells.
Inflated values never exceed nominal ones, and any -1 inside the window wins.

File format (all little-endian)::

    magic   4 bytes  b"ESDF"
    version u32      2
    flags   u32      bit 0 (gradient block present) must be set
    dims    3 x u32  nx, ny, nz
    origin  3 x f64  grid min corner [m]
    res     f64      node spacing [m]
    infl    3 x f64  inflation applied per axis [m] (0 for a nominal map)
    values  nx*ny*nz x f32, x-fastest node order
    grads   3 x f32 per node, same node order
    crc32   u32      checksum of every preceding byte

Grid geometry is kept at full double precision so node coordinates of a
loaded map equal those of the freshly built one bit for bit; node values
and gradients are f32, matching the in-memory arrays.
"""
from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import GateGeometry, _axis_bounds, exact_distance_batch

MAGIC = b"ESDF"
FORMAT_VERSION = 2
FLAG_GRADIENTS = 0x1
_HEADER = struct.Struct("<4sII3I3dd3d")

INSIDE_SENTINEL = -1.0


class MapFormatError(Exception):
    """A map file does not conform to the on-disk format."""


class OutOfBoundsError(ValueError):
    """A query point lies outside the grid extent."""


class InsideObstacleError(ValueError):
    """A query cell touches the solid; interpolation is undefined there."""


@dataclass
class GridSpec:
    """Regular grid in the gate frame: min corner, node spacing, node counts."""

    origin: np.ndarray
    resolution: float
    dims: tuple[int, int, int]

    def __post_init__(self) -> None:
        self.origin = np.asarray(self.origin, dtype=float)
        if self.origin.shape != (3,) or not np.all(np.isfinite(self.origin)):
            raise ValueError("origin must be a finite 3-vector")
        if not (math.isfinite(self.resolution) and self.resolution > 0.0):
            raise ValueError(f"resolution must be positive, got {self.resolution}")
        self.dims = tuple(int(n) for n in self.dims)
        if len(self.dims) != 3 or any(n < 2 for n in self.dims):
            raise ValueError(f"dims must be three counts >= 2, got {self.dims}")

    @property
    def max_corner(self) -> np.ndarray:
        return self.origin + self.resolution * (np.array(self.dims, dtype=float) - 1.0)

    def axis_nodes(self, k: int) -> np.ndarray:
        return self.origin[k] + self.resolution * np.arange(self.dims[k])


@dataclass
class DistanceField:
    """Node values (float32, -1 inside the solid) plus node gradients."""

    spec: GridSpec
    values: np.ndarray
    gradients: np.ndarray
    inflated_by: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        self.inflated_by = np.asarray(self.inflated_by, dtype=float)
        if self.values.shape != self.spec.dims:
            raise ValueError(f"values shape {self.values.shape} != dims {self.spec.dims}")
        if self.gradients.shape != self.spec.dims + (3,):
            raise ValueError(f"gradients shape {self.gradients.shape} != dims + (3,)")


def build_field(
    gate: GateGeometry,
    spec: GridSpec,
    *,
    safety_radius: float = 0.0,
    inflation: np.ndarray | None = None,
) -> DistanceField:
    """Evaluate the exact gate clearance at every grid node.

    The grid must extend past the gate's outer bounds by ``safety_radius`` plus
    the planned per-axis ``inflation`` (both finite and non-negative) on every
    side; otherwise a ``ValueError`` names the offending axis.
    """
    infl = np.zeros(3) if inflation is None else _axis_bounds(inflation, "inflation")
    required = np.array([gate.half_depth, gate.outer_half, gate.outer_half])
    required = required + _axis_bounds(np.full(3, safety_radius), "safety_radius") + infl
    for k, name in enumerate("xyz"):
        lo, hi = spec.origin[k], spec.max_corner[k]
        if lo > -required[k] or hi < required[k]:
            raise ValueError(
                f"grid extent on axis '{name}' [{lo:g}, {hi:g}] does not cover the gate "
                f"plus margins (need at least [-{required[k]:g}, {required[k]:g}])"
            )

    xs, ys, zs = (spec.axis_nodes(k) for k in range(3))
    pts = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)
    values = exact_distance_batch(pts, gate).reshape(spec.dims).astype(np.float32)
    gradients = _node_gradients(values, spec.resolution)
    return DistanceField(spec=spec, values=values, gradients=gradients, inflated_by=np.zeros(3))


def _node_gradients(values: np.ndarray, res: float) -> np.ndarray:
    """Central differences per axis, one-sided at borders and next to -1 cells.

    Nodes inside the solid (value -1) get zero gradient; -1 neighbors are
    excluded from every stencil. Differences are taken in float64 and
    rounded once into the float32 result.
    """
    v = values.astype(np.float64)
    valid = v != INSIDE_SENTINEL
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
        step = (v[hi] - v[lo]) / res
        np.copyto(g[hi], step, where=pair)
        np.copyto(g[lo], step, where=pair)
        central = (v[along(axis, 2, None)] - v[along(axis, 0, -2)]) / (2.0 * res)
        np.copyto(g[mid], central, where=pair[lo] & pair[hi])
    return grads


def quantize_inflation(eps: np.ndarray, resolution: float) -> np.ndarray:
    """Round a per-axis inflation up to whole cells (never down).

    :func:`inflate_field` insists on whole-cell inflations; this helper makes
    the conservative choice for callers holding an arbitrary bound.
    """
    eps = _axis_bounds(eps, "eps")
    cells = np.ceil(eps / resolution - 1e-9)
    return np.maximum(cells, 0.0) * resolution


def inflate_field(f: DistanceField, eps: np.ndarray) -> DistanceField:
    """Worst-case inflation: per-node minimum over a +/-eps window.

    ``eps`` must be whole cell multiples per axis (use
    :func:`quantize_inflation` to round up); the input field must be nominal
    (not already inflated). Gradients are recomputed from the inflated values.
    """
    if np.any(f.inflated_by != 0.0):
        raise ValueError(f"field is already inflated by {f.inflated_by}; inflate a nominal field")
    eps = _axis_bounds(eps, "eps")
    cells = eps / f.spec.resolution
    k = np.rint(cells)
    if np.any(np.abs(cells - k) > 1e-6):
        raise ValueError(
            f"eps {eps.tolist()} is not a whole number of cells at resolution "
            f"{f.spec.resolution:g}; round up explicitly (see quantize_inflation)"
        )
    # Separable box minimum: one window pass per axis over an edge-padded copy.
    values = f.values.copy()  # a new array even when no axis is inflated
    for axis, ka in enumerate(int(ki) for ki in k):
        if ka:
            padded = np.pad(values, [(ka, ka) if a == axis else (0, 0) for a in range(3)], mode="edge")
            for s in range(2 * ka + 1):
                np.minimum(values, padded[(slice(None),) * axis + (slice(s, s + values.shape[axis]),)], out=values)
    return DistanceField(
        spec=f.spec,
        values=values,
        gradients=_node_gradients(values, f.spec.resolution),
        inflated_by=eps,
    )


def sample(f: DistanceField, q: np.ndarray) -> tuple[float, np.ndarray]:
    """Trilinear value and gradient at a gate-frame point.

    Raises :class:`OutOfBoundsError` outside the grid extent and
    :class:`InsideObstacleError` when any corner of the enclosing cell is an
    inside-solid node.
    """
    qx, qy, qz = np.asarray(q, dtype=float).tolist()
    ox, oy, oz = f.spec.origin.tolist()
    nx, ny, nz = f.spec.dims
    res = f.spec.resolution
    # Grid coordinates, checked per axis in x, y, z order; a NaN fails the
    # range test as well and is rejected as non-finite.
    rx = (qx - ox) / res
    if not -1e-9 <= rx <= (nx - 1) + 1e-9:
        _reject_query(q, qx, 0)
    ry = (qy - oy) / res
    if not -1e-9 <= ry <= (ny - 1) + 1e-9:
        _reject_query(q, qy, 1)
    rz = (qz - oz) / res
    if not -1e-9 <= rz <= (nz - 1) + 1e-9:
        _reject_query(q, qz, 2)
    # int() truncates towards zero, so r >= -1e-9 gives an index >= 0.
    i = min(int(rx), nx - 2)
    j = min(int(ry), ny - 2)
    l = min(int(rz), nz - 2)
    tx = min(max(rx - i, 0.0), 1.0)
    ty = min(max(ry - j, 0.0), 1.0)
    tz = min(max(rz - l, 0.0), 1.0)

    # Corner k is (i + dx, j + dy, l + dz) with k = 4 dx + 2 dy + dz.
    ((c0, c1), (c2, c3)), ((c4, c5), (c6, c7)) = f.values[i:i + 2, j:j + 2, l:l + 2].tolist()
    if min(c0, c1, c2, c3, c4, c5, c6, c7) == INSIDE_SENTINEL:
        raise InsideObstacleError(f"query {np.asarray(q).tolist()} touches an inside-solid cell")
    ((g0, g1), (g2, g3)), ((g4, g5), (g6, g7)) = f.gradients[i:i + 2, j:j + 2, l:l + 2].tolist()

    sx, sy, sz = 1 - tx, 1 - ty, 1 - tz
    w0, w1, w2, w3 = sx * sy * sz, sx * sy * tz, sx * ty * sz, sx * ty * tz
    w4, w5, w6, w7 = tx * sy * sz, tx * sy * tz, tx * ty * sz, tx * ty * tz
    # Sums start at 0.0 and add the corners in order 0..7 (pinned in test_field).
    d = 0.0 + w0 * c0 + w1 * c1 + w2 * c2 + w3 * c3 + w4 * c4 + w5 * c5 + w6 * c6 + w7 * c7
    gx = 0.0 + w0 * g0[0] + w1 * g1[0] + w2 * g2[0] + w3 * g3[0] + w4 * g4[0] + w5 * g5[0] + w6 * g6[0] + w7 * g7[0]
    gy = 0.0 + w0 * g0[1] + w1 * g1[1] + w2 * g2[1] + w3 * g3[1] + w4 * g4[1] + w5 * g5[1] + w6 * g6[1] + w7 * g7[1]
    gz = 0.0 + w0 * g0[2] + w1 * g1[2] + w2 * g2[2] + w3 * g3[2] + w4 * g4[2] + w5 * g5[2] + w6 * g6[2] + w7 * g7[2]
    return d, np.array([gx, gy, gz])


def _reject_query(q, qk: float, axis: int) -> None:
    """Raise for a query coordinate that failed the grid range test."""
    if not math.isfinite(qk):
        raise ValueError(f"query must be finite, got {q}")
    raise OutOfBoundsError(f"query {np.asarray(q).tolist()} outside grid extent on axis {'xyz'[axis]}")


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
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array, got {pts.shape}")
    n = pts.shape[0]
    vals = np.empty(n)
    grads = np.empty((n, 3))
    status = np.empty(n, dtype=np.int8)
    for s in range(0, n, _SAMPLE_BLOCK):
        e = min(s + _SAMPLE_BLOCK, n)
        vg, status[s:e] = _sample_block(f, pts[s:e])
        vals[s:e] = vg[:, 0]
        grads[s:e] = vg[:, 1:]
    return vals, grads, status


def _sample_block(f: DistanceField, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One block of :func:`sample_batch`: an (N, 4) value-and-gradient array and status."""
    nx, ny, nz = f.spec.dims
    # A coordinate far outside the grid may overflow to inf; it is out of bounds.
    with np.errstate(over="ignore"):
        rel = (pts - f.spec.origin) / f.spec.resolution
    # A non-finite coordinate fails both comparisons, so its row is out of bounds.
    hi = (nx - 1 + 1e-9, ny - 1 + 1e-9, nz - 1 + 1e-9)
    inside = np.logical_and.reduce((rel >= -1e-9) & (rel <= hi), axis=1)
    # Clamping to the node range keeps each in-bounds row's cell and leaves its
    # fraction in [0, 1]; fmax/fmin also map NaN to a node, so the cast and
    # gather below are safe.
    np.fmin(np.fmax(rel, 0.0, out=rel), (nx - 1, ny - 1, nz - 1), out=rel)
    cell = np.fmin(np.floor(rel), (nx - 2, ny - 2, nz - 2))
    frac = rel - cell
    # Corner-major gather: row k holds corner k of every point.
    sx = ny * nz
    corners = np.array([[0], [1], [nz], [nz + 1], [sx], [sx + 1], [sx + nz], [sx + nz + 1]])
    flat = cell.astype(np.intp) @ (sx, nz, 1) + corners
    cv = np.take(f.values, flat)
    in_obs = np.minimum.reduce(cv, axis=0) == INSIDE_SENTINEL

    t = np.empty((2, 3, pts.shape[0]))
    np.subtract(1.0, frac.T, out=t[0])
    t[1] = frac.T
    w = (t[:, None, None, 0] * t[None, :, None, 1]) * t[None, None, :, 2]
    # Values and gradients share one (8, N, 4) array: a leading-axis reduce
    # over it adds the corners one by one, while a lone (8,) column (N = 1)
    # would be summed pairwise.
    vg = np.empty((8, pts.shape[0], 4))
    vg[:, :, 0] = cv
    vg[:, :, 1:] = np.take(f.gradients.reshape(-1, 3), flat, axis=0)
    vg *= w.reshape(8, -1, 1)
    vg = np.add.reduce(vg, axis=0, initial=0.0)

    status = np.where(in_obs, np.int8(SAMPLE_IN_OBSTACLE), np.int8(SAMPLE_OK))
    status = np.where(inside, status, np.int8(SAMPLE_OOB))
    bad = ~inside | in_obs
    if bad.any():
        vg[bad] = np.nan
    return vg, status


def save_field(f: DistanceField, path: str | Path) -> None:
    """Write a field to disk in the binary map format."""
    header = _HEADER.pack(
        MAGIC,
        FORMAT_VERSION,
        FLAG_GRADIENTS,
        *f.spec.dims,
        *(float(c) for c in f.spec.origin),
        float(f.spec.resolution),
        *(float(e) for e in f.inflated_by),
    )
    # x-fastest node order, with the 3 gradient components adjacent per node.
    g = f.gradients.astype("<f4", copy=False).transpose(2, 1, 0, 3)
    payload = b"".join([
        header,
        np.ascontiguousarray(f.values.astype("<f4", copy=False).ravel(order="F")).tobytes(),
        np.ascontiguousarray(g).tobytes(),
    ])
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    Path(path).write_bytes(payload + struct.pack("<I", crc))


def load_field(path: str | Path) -> DistanceField:
    """Read a field written by :func:`save_field`, verifying the checksum."""
    raw = Path(path).read_bytes()
    if len(raw) < 4:
        raise MapFormatError(f"{path}: file shorter than the magic header")
    if raw[:4] != MAGIC:
        raise MapFormatError(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < _HEADER.size:
        raise MapFormatError(f"{path}: truncated header")
    magic, version, flags, nx, ny, nz, ox, oy, oz, res, ex, ey, ez = _HEADER.unpack_from(raw, 0)
    if version != FORMAT_VERSION:
        raise MapFormatError(f"{path}: unsupported format version {version}")
    if not flags & FLAG_GRADIENTS:
        raise MapFormatError(f"{path}: flags {flags:#x} lack the gradient block")

    n = nx * ny * nz
    size = _HEADER.size + 16 * n + 4  # values, gradients, crc
    if len(raw) < size:
        raise MapFormatError(f"{path}: expected {size} bytes, found {len(raw)}")
    if len(raw) > size:
        raise MapFormatError(f"{path}: {len(raw) - size} trailing bytes after checksum")

    (stored_crc,) = struct.unpack_from("<I", raw, size - 4)
    crc = zlib.crc32(raw[: size - 4]) & 0xFFFFFFFF
    if crc != stored_crc:
        raise MapFormatError(f"{path}: crc32 {crc:#010x} != stored {stored_crc:#010x}")

    offset = _HEADER.size
    values = (
        np.frombuffer(raw, dtype="<f4", count=n, offset=offset)
        .reshape((nx, ny, nz), order="F")
        .copy()
    )
    offset += 4 * n
    gradients = (
        np.frombuffer(raw, dtype="<f4", count=3 * n, offset=offset)
        .reshape((nz, ny, nx, 3))
        .transpose(2, 1, 0, 3)
        .copy()
    )
    try:
        spec = GridSpec(origin=np.array([ox, oy, oz], dtype=float), resolution=float(res), dims=(nx, ny, nz))
        inflated_by = _axis_bounds((ex, ey, ez), "inflation")
    except ValueError as exc:
        raise MapFormatError(f"{path}: bad grid header: {exc}") from exc
    return DistanceField(spec=spec, values=values, gradients=gradients, inflated_by=inflated_by)


def default_grid_spec(resolution: float = 0.1) -> GridSpec:
    """The stock gate-frame grid: x, y in [-6, 6], z in [-4, 4]."""
    nx = int(round(12.0 / resolution)) + 1
    ny = nx
    nz = int(round(8.0 / resolution)) + 1
    return GridSpec(origin=np.array([-6.0, -6.0, -4.0]), resolution=resolution, dims=(nx, ny, nz))
