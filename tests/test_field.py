"""Distance-field build, inflation, interpolation, and file round-trips.

Oracles:
- node values against the exact closed-form distance (and -1 sentinels),
  and against a meshgrid point list bit for bit at every node,
- inflation against the clearance to the bar boxes grown by eps, computed
  independently (to 1e-12 m), AND a dense set of gate translations,
- interpolation against the exact distance with the res*sqrt(3)/2 bound.
"""
import copy
import math
import mmap
import pickle
import re
import struct
import tracemalloc
import types
import warnings
import zlib

import numpy as np
import pytest

from gatesafe.barrier import SafetyParams
from gatesafe.cli import main as cli_main
from gatesafe.config import Config
from gatesafe.field import (
    DistanceField,
    GridSpec,
    InsideObstacleError,
    MapFormatError,
    OutOfBoundsError,
    SAMPLE_IN_OBSTACLE,
    SAMPLE_OK,
    SAMPLE_OOB,
    INSIDE_SENTINEL,
    FORMAT_VERSION,
    MAGIC,
    MAP_BOUND,
    _HEADER,
    _GRAD_BLOCK,
    _SAMPLE_BLOCK,
    _node_gradients,
    build_field,
    inflate_field,
    load_field,
    quantize_inflation,
    sample,
    sample_batch,
    save_field,
)
from gatesafe import field as field_module, geometry
from gatesafe.geometry import GateGeometry, _clearance, exact_distance, exact_distance_batch
from gatesafe.qp import safest_action_field


@pytest.fixture(scope="module")
def small_spec() -> GridSpec:
    # Covers the default gate plus 0.3 m margins on every axis at 0.1 m.
    return GridSpec(origin=np.array([-1.5, -2.0, -2.0]), resolution=0.1, dims=(31, 41, 41))


@pytest.fixture(scope="module")
def small_field(default_gate, small_spec) -> DistanceField:
    return build_field(default_gate, small_spec, safety_radius=0.3, inflation=np.full(3, 0.3))


# ---------------------------------------------------------------------------
# Build
# ---------------------------------------------------------------------------

def test_node_values_match_exact_oracle(default_gate, small_field, rng):
    spec = small_field.spec
    idx = rng.integers(0, np.array(spec.dims), size=(1000, 3))
    pts = spec.origin[None, :] + spec.resolution * idx
    expected = exact_distance_batch(pts, default_gate).astype(np.float32)
    got = small_field.values[idx[:, 0], idx[:, 1], idx[:, 2]]
    np.testing.assert_array_equal(got, expected)


def test_inside_nodes_are_exact_sentinels(default_gate, small_field):
    vals = small_field.values
    assert np.any(vals == -1.0), "grid must contain inside-solid nodes"
    assert np.all(vals >= -1.0)
    assert not np.any((vals > -1.0) & (vals < 0.0)), "only the -1 sentinel may be negative"


def test_build_is_deterministic(default_gate, small_spec):
    a = build_field(default_gate, small_spec)
    b = build_field(default_gate, small_spec)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.gradients, b.gradients)


def _column_clearance(pts: np.ndarray, gate: GateGeometry, grow=0.0) -> np.ndarray:
    """Reference: the clearance loop on (N,) coordinate columns, every bar box
    grown by ``grow``, written out here so that a change to the library
    kernel cannot move both sides."""
    cols = pts.T.copy()
    lo, hi = gate.bar_boxes()
    lo, hi = lo - grow, hi + grow
    d = np.full(len(pts), np.inf)
    inside = np.zeros(len(pts), dtype=bool)
    for box_lo, box_hi in zip(lo.tolist(), hi.tolist()):
        sq = np.zeros(len(pts))
        box_inside = np.ones(len(pts), dtype=bool)
        for c, lk, hk in zip(cols, box_lo, box_hi):
            e = np.maximum(lk - c, 0.0)
            e += np.maximum(c - hk, 0.0)
            e *= e
            sq += e
            box_inside &= (lk < c) & (c < hk)
        np.minimum(d, np.sqrt(sq, out=sq), out=d)
        inside |= box_inside
    d[inside] = -1.0
    return d


@pytest.mark.parametrize(
    "gate, spec",
    [
        pytest.param(GateGeometry(), Config().grid_spec(), id="default"),
        pytest.param(GateGeometry(), "small_spec", id="small_spec"),
        # Nodes on every bar face: x = +/-0.125, y and z = +/-0.75 and +/-1.0.
        pytest.param(GateGeometry(), GridSpec(np.full(3, -1.5), 0.125, (25, 25, 25)), id="on-faces"),
        pytest.param(GateGeometry(), GridSpec(np.full(3, -1.5625), 0.125, (26, 26, 26)), id="half-cell-shift"),
        pytest.param(GateGeometry(inner_size=1.4), GridSpec([-6.0, -6.0, -4.0], 0.5, (25, 25, 17)), id="thin-bars"),
        pytest.param(GateGeometry(), GridSpec(np.full(3, -1.0), 2.0, (2, 2, 2)), id="2x2x2"),
    ],
)
def test_build_matches_the_point_list_at_every_node(gate, spec, request):
    # The grid build broadcasts per-axis overshoots from the axis arrays; a
    # meshgrid point list runs the same operations on (N,) columns. Both agree
    # bit for bit at every node: in float64 (a changed summation order shows
    # only there) and in the stored float32 values.
    if isinstance(spec, str):
        spec = request.getfixturevalue(spec)
    xs, ys, zs = (spec.axis_nodes(k) for k in range(3))
    pts = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)
    expected = _column_clearance(pts, gate)
    np.testing.assert_array_equal(exact_distance_batch(pts, gate).view(np.uint64), expected.view(np.uint64))
    expected = expected.reshape(spec.dims)
    grid = _clearance((xs[:, None, None], ys[None, :, None], zs[None, None, :]), gate)
    np.testing.assert_array_equal(grid.view(np.uint64), expected.view(np.uint64))
    got = build_field(gate, spec).values
    np.testing.assert_array_equal(got.view(np.uint32), expected.astype(np.float32).view(np.uint32))


@pytest.mark.parametrize(
    "gate, axis",
    [
        # Squares that overflow to inf, finite squares whose sum overflows,
        # squares of inf, and finite ones.
        pytest.param(GateGeometry(), [-math.inf, -1e160, -1.4e154, -1.0, 0.0, 0.9, 1e154, 1e160, math.inf], id="huge"),
        # Overshoots of about 1e-170, whose squares underflow to zero.
        pytest.param(GateGeometry(inner_size=3e-170, bar_thickness=1e-170),
                     [-4e-170, -2e-170, -1.6e-170, -5e-171, 0.0, 1e-171, 1.5e-170, 3e-170], id="tiny"),
    ],
)
def test_clearance_at_the_float_edges_matches_the_column_reference(gate, axis):
    # The kernel takes the minimum of squared distances and one root; the
    # reference roots each bar's sum of squares first. Both agree bit for bit
    # where the squares leave the finite normal floats, on the grid path and
    # on the point path.
    xs = np.array(axis)
    pts = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
    with np.errstate(over="ignore"):
        expected = _column_clearance(pts, gate)
        grid = _clearance((xs[:, None, None], xs[None, :, None], xs[None, None, :]), gate)
        points = exact_distance_batch(pts, gate)
    np.testing.assert_array_equal(points.view(np.uint64), expected.view(np.uint64))
    np.testing.assert_array_equal(grid.view(np.uint64), expected.reshape(grid.shape).view(np.uint64))


# Nodes on every bar face, and on the faces grown by 0.125 m in x and 0.25 m in y and z.
_FACES = GridSpec(np.full(3, -1.5), 0.125, (25, 25, 25))
_GROW = np.array([0.125, 0.25, 0.25])


@pytest.mark.parametrize("grow", [0.0, _GROW], ids=["nominal", "grown"])
@pytest.mark.parametrize(
    "slab",
    [
        pytest.param(2 * 25 * 25, id="rows-2"),  # 25 x layers of 625 nodes: 12 slabs of 2 rows, then one of 1
        pytest.param(7 * 25 * 25 + 100, id="rows-7"),  # 3 slabs of 7 rows, then one of 4
        pytest.param(600, id="layer-past-a-slab"),  # one x layer is 625 nodes: a slab of one row each
    ],
)
def test_grid_slab_edges_match_the_column_reference(monkeypatch, slab, grow):
    # The grid path runs its last addition per slab of whole x rows: nodes on
    # each side of a slab edge get the reference's bits, nominal and grown.
    monkeypatch.setattr(geometry, "_CLEARANCE_SLAB", slab)
    xs, ys, zs = (_FACES.axis_nodes(k) for k in range(3))
    pts = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)
    expected = _column_clearance(pts, GateGeometry(), grow).reshape(_FACES.dims)
    assert np.any(expected == INSIDE_SENTINEL) and np.any(expected == 0.0)
    grid = _clearance(_FACES.node_axes(), GateGeometry(), grow=grow)
    np.testing.assert_array_equal(grid.view(np.uint64), expected.view(np.uint64))
    values = _clearance(_FACES.node_axes(), GateGeometry(), grow=grow, dtype=np.float32)
    np.testing.assert_array_equal(values.view(np.uint32), expected.astype(np.float32).view(np.uint32))


@pytest.mark.parametrize("grow", [0.0, _GROW], ids=["nominal", "grown"])
@pytest.mark.parametrize("slab", [1000, None], ids=["slab-1000", "library-slab"])
def test_point_slab_edges_match_the_column_reference(monkeypatch, rng, slab, grow):
    # 2^16 + 123 points, more than one slab with the last one partial: the
    # face nodes, then random points around the gate.
    if slab is not None:
        monkeypatch.setattr(geometry, "_CLEARANCE_SLAB", slab)
    xs = _FACES.axis_nodes(0)
    faces = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = np.concatenate((faces, rng.uniform(-1.5, 1.5, size=((1 << 16) + 123 - len(faces), 3))))
    assert len(pts) > geometry._CLEARANCE_SLAB and len(pts) % geometry._CLEARANCE_SLAB != 0
    expected = _column_clearance(pts, GateGeometry(), grow)
    got = _clearance(pts.T, GateGeometry(), grow=grow)
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
    if np.ndim(grow) == 0:
        np.testing.assert_array_equal(exact_distance_batch(pts, GateGeometry()).view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_clearance_peaks_at_its_output_plus_a_few_slabs(default_gate, dtype):
    # The output is the one array of the grid's size: the kernel's other
    # arrays are per-slab temporaries and the bars' x-y sums, together under
    # four float64 slabs. The former kernel held two more grid-sized float64
    # arrays (and the build a float64 grid before its float32 copy).
    axes = Config().grid_spec().node_axes()
    tracemalloc.start()
    try:
        d = _clearance(axes, default_gate, dtype=dtype)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.dtype == dtype and d.shape == (121, 121, 81)
    assert peak - d.nbytes <= 4 * 8 * geometry._CLEARANCE_SLAB, (peak, d.nbytes)


def test_build_at_the_map_bound_stays_finite_and_refuses_past_it(default_gate):
    # Nodes at +/-MAP_BOUND build with no overflow warning (which fails this
    # suite) and derive finite gradients; one ulp further out is refused,
    # naming the axis.
    spec = GridSpec(np.full(3, -MAP_BOUND), MAP_BOUND, (3, 3, 3))
    f = build_field(default_gate, spec)
    assert np.all(np.isfinite(f.values)) and f.values.max() > MAP_BOUND
    assert np.all(np.isfinite(f.gradients))
    for k, name in enumerate("xyz"):
        origin = np.full(3, -MAP_BOUND)
        origin[k] = math.nextafter(-MAP_BOUND, -math.inf)
        with pytest.raises(ValueError, match=rf"^grid extent on axis '{name}' must lie in \[-1e\+37, 1e\+37\] m"):
            build_field(default_gate, GridSpec(origin, MAP_BOUND, (3, 3, 3)))


def test_build_allocates_no_point_list(default_gate):
    # An (N, 3) float64 point list alone is 24 bytes per node; the former
    # build peaked at 90 bytes per node, the broadcast build at about 50.
    spec = Config().grid_spec()
    tracemalloc.start()
    try:
        build_field(default_gate, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / math.prod(spec.dims) < 64


def test_default_grid_dims():
    spec = Config().grid_spec()
    assert spec.dims == (121, 121, 81)
    np.testing.assert_allclose(spec.max_corner, [6.0, 6.0, 4.0], atol=1e-12)


def test_coverage_error_names_axis(default_gate):
    spec = GridSpec(origin=np.array([-1.5, -2.0, -0.5]), resolution=0.1, dims=(31, 41, 11))
    with pytest.raises(ValueError, match="axis 'z'"):
        build_field(default_gate, spec, safety_radius=0.3)


def test_field_arrays_must_match_the_grid(small_field):
    spec, values = small_field.spec, small_field.values
    with pytest.raises(ValueError, match="values shape"):
        DistanceField(spec, values[:-1])
    with pytest.raises(TypeError, match="gradients"):  # derived from the values, never passed in
        DistanceField(spec, values, gradients=small_field.gradients)
    assert np.array_equal(DistanceField(spec, values).gradients, _node_gradients(values, spec.resolution))
    # The scalar sample reads float32 corners from the values' C-ordered buffer.
    with pytest.raises(ValueError, match="values dtype float64 is not float32"):
        DistanceField(spec, values.astype(np.float64))
    fortran = DistanceField(spec, np.asfortranarray(values))
    assert fortran.values.flags.c_contiguous and fortran.values.dtype == np.float32
    assert np.array_equal(fortran.values, values)


def _grown_box_clearance(gate: GateGeometry, spec: GridSpec, eps: np.ndarray) -> np.ndarray:
    """Node clearance to the bar boxes grown by eps per axis (0 inside): the worst case over shifts."""
    cols = [spec.axis_nodes(k)[tuple(slice(None) if a == k else None for a in range(3))] for k in range(3)]
    lo, hi = gate.bar_boxes()
    squares = [
        sum(np.maximum(np.maximum(lo[b, k] - eps[k] - cols[k], cols[k] - hi[b, k] - eps[k]), 0.0) ** 2
            for k in range(3))
        for b in range(4)
    ]
    return np.sqrt(np.minimum.reduce(squares))


def _assert_matches_grown_box_oracle(f: DistanceField, gate: GateGeometry, eps) -> None:
    """Inflated node values are the grown-box clearance, cast to float32, to 1e-12 m.

    A -1 node lies strictly inside a grown box, so its oracle value is 0; it
    can be -1 where the oracle's 0 sits on a rounded node coordinate.
    """
    kernel = _clearance(f.spec.node_axes(), gate, grow=np.asarray(eps, dtype=float))
    assert np.array_equal(f.values, kernel.astype(np.float32))
    oracle = _grown_box_clearance(gate, f.spec, np.asarray(eps, dtype=float))
    inside = kernel == INSIDE_SENTINEL
    assert np.all(oracle[inside] <= 0.0), "a -1 node with positive worst-case clearance"
    assert np.max(np.abs(kernel[~inside] - oracle[~inside]), initial=0.0) <= 1e-12


def test_inflated_build_with_bars_thinner_than_a_cell_is_the_grown_box_clearance():
    # A 0.25 m bar at 0.5 m resolution: half a cell thick, inflated by one cell.
    spec = GridSpec(origin=np.array([-6.0, -6.0, -4.0]), resolution=0.5, dims=(25, 25, 17))
    eps = np.full(3, 0.5)
    thin = GateGeometry(inner_size=1.4)
    inflated = inflate_field(build_field(thin, spec, safety_radius=0.3, inflation=eps), eps)
    _assert_matches_grown_box_oracle(inflated, thin, eps)
    # Bit for bit here, with -1 read as the oracle's 0.
    want = _grown_box_clearance(thin, spec, eps).astype(np.float32)
    got = np.where(inflated.values == INSIDE_SENTINEL, np.float32(0.0), inflated.values)
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


@pytest.mark.parametrize(
    "margins, name",
    [
        ({"inflation": [math.nan, 0.0, 0.0]}, "inflation"),
        ({"inflation": [-5.0, 0.0, 0.0]}, "inflation"),
        ({"safety_radius": math.nan}, "safety_radius"),
        ({"safety_radius": -5.0}, "safety_radius"),
    ],
    ids=["nan-inflation", "negative-inflation", "nan-radius", "negative-radius"],
)
def test_build_field_rejects_margins_that_would_pass_the_coverage_check(default_gate, margins, name):
    # A grid too small for R = 0.3 on y and z; a NaN or negative margin used
    # to shrink or skip the coverage check and build the map anyway.
    spec = GridSpec(origin=np.array([-1.0, -1.2, -1.2]), resolution=0.1, dims=(21, 25, 25))
    with pytest.raises(ValueError, match="axis 'y'"):
        build_field(default_gate, spec, safety_radius=0.3)
    with pytest.raises(ValueError, match=f"^{name} must be three finite non-negative values"):
        build_field(default_gate, spec, **margins)


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def _excluded_mask(pts: np.ndarray, d: np.ndarray, res: float) -> np.ndarray:
    """Medial-axis exclusion: clear of the solid and of the mirror planes."""
    margin = 2.0 * res
    return (
        (d >= 3.0 * res * math.sqrt(3.0))
        & (np.abs(pts[:, 0]) >= margin)
        & (np.abs(pts[:, 1]) >= margin)
        & (np.abs(pts[:, 2]) >= margin)
        & (np.abs(np.abs(pts[:, 1]) - np.abs(pts[:, 2])) / math.sqrt(2.0) >= margin)
    )


def test_node_gradient_magnitude_bounded(default_gate, small_field):
    spec = small_field.spec
    xs, ys, zs = (spec.axis_nodes(k) for k in range(3))
    pts = np.stack(np.meshgrid(xs, ys, zs, indexing="ij"), axis=-1).reshape(-1, 3)
    vals = small_field.values.reshape(-1)
    keep = _excluded_mask(pts, vals.astype(float), spec.resolution)
    norms = np.linalg.norm(small_field.gradients.reshape(-1, 3)[keep], axis=1)
    assert norms.max() <= 1.1, f"gradient magnitude {norms.max()} exceeds 1.1 away from the medial axis"


def test_sampled_gradient_matches_finite_differences(default_gate, small_field, rng):
    spec = small_field.spec
    res = spec.resolution
    pts = rng.uniform(spec.origin + 3 * res, spec.max_corner - 3 * res, size=(4000, 3))
    d = exact_distance_batch(pts, default_gate)
    keep = _excluded_mask(pts, d, res)
    pts = pts[keep][:300]
    assert len(pts) >= 200
    for q in pts:
        _, grad = sample(small_field, q)
        for k in range(3):
            dq = np.zeros(3)
            dq[k] = res
            hi, _ = sample(small_field, q + dq)
            lo, _ = sample(small_field, q - dq)
            fd = (hi - lo) / (2 * res)
            assert abs(grad[k] - fd) <= 0.15, (
                f"gradient component {k} at {q}: interpolated {grad[k]}, finite difference {fd}"
            )


# ---------------------------------------------------------------------------
# Inflation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "eps",
    [(0.2, 0.2, 0.2), (0.1, 0.0, 0.3), (0.25, 0.13, 0.3), (0.0, 0.0, 0.0), (2.0, 2.5, 3.0), (1e308, 0.0, 0.0)],
    ids=["whole-cells", "mixed-cells", "not-whole-cells", "zero", "wider-than-grid", "no-float-cell-count"],
)
def test_inflation_matches_grown_box_oracle(default_gate, small_field, eps):
    inflated = inflate_field(small_field, np.array(eps))
    _assert_matches_grown_box_oracle(inflated, default_gate, eps)
    assert np.array_equal(inflated.inflated_by, eps), "inflated_by records eps exactly"


def test_zero_inflation_returns_a_new_array(small_field):
    inflated = inflate_field(small_field, np.zeros(3))
    assert np.array_equal(inflated.values.view(np.uint32), small_field.values.view(np.uint32))
    assert not np.shares_memory(inflated.values, small_field.values)


def test_inflation_is_pointwise_conservative(small_field):
    inflated = inflate_field(small_field, np.array([0.3, 0.3, 0.3]))
    assert np.all(inflated.values <= small_field.values)
    np.testing.assert_array_equal(inflated.inflated_by, [0.3, 0.3, 0.3])


def test_inflation_spreads_sentinels(small_field):
    inflated = inflate_field(small_field, np.array([0.1, 0.1, 0.1]))
    v = small_field.values
    inside = v == -1.0
    grown = inflated.values == -1.0
    assert grown.sum() > inside.sum()
    # Every neighbor (within one cell) of an inside node must now be -1.
    shifted = np.zeros_like(inside)
    for axis in range(3):
        for step in (-1, 1):
            shifted |= np.roll(inside, step, axis=axis)
    shifted[0, :, :] = shifted[-1, :, :] = False  # wrap artifacts
    shifted[:, 0, :] = shifted[:, -1, :] = False
    shifted[:, :, 0] = shifted[:, :, -1] = False
    assert np.all(grown[shifted]), "cells adjacent to the solid must inherit the -1 sentinel"


def test_opening_center_inflates_to_half_meter(default_gate):
    # At 0.05 m resolution, 0.25 m is exactly 5 cells, so the canonical
    # "0.75 drops to 0.50" value is realized without quantization.
    spec = GridSpec(origin=np.array([-0.8, -1.6, -1.6]), resolution=0.05, dims=(33, 65, 65))
    nominal = build_field(default_gate, spec, inflation=np.full(3, 0.25))
    inflated = inflate_field(nominal, np.full(3, 0.25))
    d0, _ = sample(nominal, np.zeros(3))
    d1, _ = sample(inflated, np.zeros(3))
    assert d0 == pytest.approx(0.75, abs=1e-6)
    assert d1 == pytest.approx(0.50, abs=1e-6)


def test_inflation_equals_dense_translation_minimum(default_gate):
    # Independent oracle: minimum clearance over a dense grid of gate
    # translations inside the +/-eps box, evaluated with the exact formula.
    spec = GridSpec(origin=np.array([-0.8, -1.6, -1.6]), resolution=0.05, dims=(33, 65, 65))
    inflated = inflate_field(build_field(default_gate, spec, inflation=np.full(3, 0.25)), np.full(3, 0.25))
    rng = np.random.default_rng(7)
    shifts = np.stack(
        np.meshgrid(*[np.linspace(-0.25, 0.25, 11)] * 3, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    queries = rng.uniform([-0.5, -1.3, -1.3], [0.5, 1.3, 1.3], size=(40, 3))
    for q in queries:
        truth = float(np.min(exact_distance_batch(q[None, :] - shifts, default_gate)))
        if truth < 0.1:
            continue  # skip cells the inflated solid may swallow
        got, _ = sample(inflated, q)
        # Exact grown-box nodes, interpolated, vs a dense translation minimum:
        # within a cell diagonal.
        assert abs(got - truth) <= 0.05 * math.sqrt(3.0) + 1e-6, f"at {q}: {got} vs oracle {truth}"


def test_inflate_rejects_a_loaded_map(small_field, tmp_path):
    assert small_field.gate is not None
    save_field(small_field, tmp_path / "m.esdf")
    loaded = load_field(tmp_path / "m.esdf")
    assert loaded.gate is None and np.array_equal(loaded.values, small_field.values)
    with pytest.raises(ValueError, match="records no gate"):
        inflate_field(loaded, np.full(3, 0.1))


def test_inflate_rejects_double_inflation(small_field):
    once = inflate_field(small_field, np.array([0.1, 0.1, 0.1]))
    with pytest.raises(ValueError, match="already inflated"):
        inflate_field(once, np.array([0.1, 0.1, 0.1]))


def test_quantize_inflation_rounds_up():
    np.testing.assert_allclose(quantize_inflation(np.array([0.25, 0.25, 0.25]), 0.1), [0.3, 0.3, 0.3])
    np.testing.assert_allclose(quantize_inflation(np.array([0.3, 0.0, 0.25]), 0.05), [0.3, 0.0, 0.25])
    np.testing.assert_allclose(quantize_inflation(np.zeros(3), 0.1), [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        quantize_inflation(np.array([-0.1, 0.0, 0.0]), 0.1)
    # 1e308 / 0.1 overflows: a ValueError, with no RuntimeWarning on the way.
    with pytest.raises(ValueError, match=r"^eps \[1e\+308, 0\.0, 0\.0\] overflows"):
        quantize_inflation(np.array([1e308, 0.0, 0.0]), 0.1)


@pytest.mark.parametrize(
    "eps, cells",
    [
        (0.3000000001, 4),  # 3 cells less 1e-9 rounds to 3 cells, 0.30000000000000004 < eps
        (0.2000000001, 3),
        (0.3, 3),
        (0.7, 7),
        (0.30000000000000004, 3),  # float noise past 3 cells costs no cell
        (0.25, 3),  # the default run's --inflate
    ],
)
def test_quantize_inflation_never_rounds_down(eps, cells):
    q = quantize_inflation(np.full(3, eps), 0.1)
    assert q.tolist() == [cells * 0.1] * 3
    assert np.all(q >= eps)


@pytest.mark.parametrize("resolution", [-0.1, 0.0, math.nan, math.inf])
def test_quantize_inflation_rejects_a_bad_resolution(resolution):
    with pytest.raises(ValueError, match="^resolution must be finite and positive"):
        quantize_inflation(np.full(3, 0.25), resolution)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def test_sample_is_exact_at_nodes(small_field, rng):
    spec = small_field.spec
    for _ in range(200):
        idx = rng.integers(0, np.array(spec.dims) - 1, size=3)
        node = spec.origin + spec.resolution * idx
        stored = float(small_field.values[tuple(idx)])
        if stored == -1.0:
            continue
        try:
            d, _ = sample(small_field, node)
        except InsideObstacleError:
            continue  # node on a cell that touches the solid
        assert d == pytest.approx(stored, abs=1e-6)


def test_sample_fidelity_bound(default_gate, small_field, rng):
    res = small_field.spec.resolution
    bound = res * math.sqrt(3.0) / 2.0 + 1e-6
    count = 0
    while count < 500:
        q = rng.uniform(small_field.spec.origin, small_field.spec.max_corner)
        truth = exact_distance(q, default_gate)
        if truth < 0.0:
            continue
        try:
            d, _ = sample(small_field, q)
        except InsideObstacleError:
            continue
        assert abs(d - truth) <= bound, f"interpolation error {abs(d - truth)} at {q}"
        count += 1


def test_sample_out_of_bounds(small_field):
    with pytest.raises(OutOfBoundsError):
        sample(small_field, np.array([5.0, 0.0, 0.0]))
    with pytest.raises(OutOfBoundsError):
        sample(small_field, np.array([0.0, -2.5, 0.0]))


def test_sample_inside_obstacle(small_field):
    with pytest.raises(InsideObstacleError):
        sample(small_field, np.array([0.0, 0.875, 0.0]))


def test_sample_batch_matches_scalar(small_field, rng):
    pts = rng.uniform(small_field.spec.origin - 0.2, small_field.spec.max_corner + 0.2, size=(500, 3))
    vals, grads, status = sample_batch(small_field, pts)
    for q, v, g, s in zip(pts, vals, grads, status):
        if s == SAMPLE_OOB:
            with pytest.raises(OutOfBoundsError):
                sample(small_field, q)
        elif s == SAMPLE_IN_OBSTACLE:
            with pytest.raises(InsideObstacleError):
                sample(small_field, q)
        else:
            assert s == SAMPLE_OK
            d, grad = sample(small_field, q)
            assert v == pytest.approx(d, abs=1e-12)
            np.testing.assert_allclose(g, grad, atol=1e-12)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def test_save_load_round_trip_bit_exact(small_field, tmp_path):
    path = tmp_path / "gate.esdf"
    save_field(small_field, path)
    loaded = load_field(path)
    assert loaded.spec.dims == small_field.spec.dims
    assert np.array_equal(loaded.values, small_field.values)
    assert np.array_equal(loaded.gradients, small_field.gradients)
    assert path.stat().st_size == _HEADER.size + 4 * math.prod(small_field.spec.dims) + 4
    # Version 4 stores the values in the array's own C node order, z fastest.
    raw = path.read_bytes()
    assert struct.unpack_from("<I", raw, 4)[0] == FORMAT_VERSION == 4
    assert raw[_HEADER.size:-4] == small_field.values.astype("<f4").tobytes(order="C")
    assert loaded.values.flags.c_contiguous and loaded.values.flags.writeable
    assert np.array_equal(loaded.spec.origin, small_field.spec.origin), (
        "grid origin must round-trip bit-exactly so node coordinates are stable"
    )
    assert loaded.spec.resolution == small_field.spec.resolution


def test_save_load_preserves_inflation_metadata(small_field, tmp_path):
    inflated = inflate_field(small_field, np.array([0.3, 0.3, 0.3]))
    path = tmp_path / "inflated.esdf"
    save_field(inflated, path)
    loaded = load_field(path)
    np.testing.assert_allclose(loaded.inflated_by, [0.3, 0.3, 0.3], atol=1e-7)
    assert np.array_equal(loaded.values, inflated.values)


def test_load_rejects_bad_magic(small_field, tmp_path):
    path = tmp_path / "bad.esdf"
    save_field(small_field, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    with pytest.raises(MapFormatError, match="bad magic b'JUNK'"):
        load_field(path)


def test_load_rejects_unsupported_version(small_field, tmp_path):
    path = tmp_path / "v999.esdf"
    save_field(small_field, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (999).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(MapFormatError, match="unsupported format version 999"):
        load_field(path)


def test_load_rejects_corrupted_payload(small_field, tmp_path):
    path = tmp_path / "flip.esdf"
    save_field(small_field, path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(MapFormatError, match="crc32 0x[0-9a-f]{8} != stored 0x[0-9a-f]{8}"):
        load_field(path)


def test_load_rejects_truncation(small_field, tmp_path):
    path = tmp_path / "cut.esdf"
    save_field(small_field, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(MapFormatError, match=f"expected {len(raw)} bytes, found {len(raw) // 2}"):
        load_field(path)
    path.write_bytes(raw[:2])
    with pytest.raises(MapFormatError, match="file shorter than the magic header"):
        load_field(path)
    path.write_bytes(raw[: _HEADER.size - 1])
    with pytest.raises(MapFormatError, match="truncated header"):
        load_field(path)


def test_load_rejects_trailing_garbage(small_field, tmp_path):
    path = tmp_path / "extra.esdf"
    save_field(small_field, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(MapFormatError):
        load_field(path)


def test_load_rejects_format_version_2(small_field, tmp_path, capsys):
    # A CRC-valid file in the version 2 layout: a flags word after the
    # version and a gradient block after the values. Gradients are now
    # derived from the values, so such a file is refused, not half-read.
    n = math.prod(small_field.spec.dims)
    header = struct.pack(
        "<4sII3I3dd3d", MAGIC, 2, 1, *small_field.spec.dims, *small_field.spec.origin,
        small_field.spec.resolution, *small_field.inflated_by,
    )
    payload = header + small_field.values.ravel(order="F").tobytes() + bytes(12 * n)
    path = tmp_path / "v2.esdf"
    path.write_bytes(payload + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little"))
    with pytest.raises(MapFormatError, match="unsupported format version 2"):
        load_field(path)
    out = tmp_path / "f.csv"
    argv = ["field", "--map", str(path), "--plane", "yz", "--offset", "0", "--speed", "2", "--out", str(out)]
    assert cli_main(argv) == 2
    assert "unsupported format version 2" in capsys.readouterr().err
    assert not out.exists()


def test_load_refuses_a_version_3_map_in_the_x_fastest_layout(small_field, tmp_path, capsys):
    # A CRC-valid file as version 3 wrote it: the same header fields and
    # values, the values x-fastest. Read in the C order they would land on
    # other nodes, so the file is refused, naming its version, and nothing
    # is exported.
    spec = small_field.spec
    header = _HEADER.pack(MAGIC, 3, *spec.dims, *spec.origin, spec.resolution, *small_field.inflated_by)
    payload = header + small_field.values.ravel(order="F").tobytes()
    path = tmp_path / "v3.esdf"
    path.write_bytes(payload + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little"))
    with pytest.raises(MapFormatError, match=r"unsupported format version 3 \(this build reads version 4; rebuild"):
        load_field(path)
    out = tmp_path / "f.csv"
    argv = ["field", "--map", str(path), "--plane", "yz", "--offset", "0", "--speed", "2", "--out", str(out)]
    assert cli_main(argv) == 2
    assert "unsupported format version 3" in capsys.readouterr().err
    assert not out.exists()


def test_load_refuses_a_short_read_as_truncation(small_field, tmp_path, monkeypatch):
    # The file shrinks between the size query and the read: the buffer holds
    # what was read, and is refused as truncated.
    path = tmp_path / "short.esdf"
    save_field(small_field, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-100])
    monkeypatch.setattr(field_module.os, "fstat", lambda fd: types.SimpleNamespace(st_size=len(raw)))
    with pytest.raises(MapFormatError, match=f"expected {len(raw)} bytes, found {len(raw) - 100}$"):
        load_field(path)


def test_save_and_load_copy_no_part_of_the_map(default_env, tmp_path):
    # save_field checksums and writes the field's own array. load_field reads
    # the file once into the buffer that becomes the map's values. That buffer
    # and the zero-filled gradient array (three floats a node) are mappings of
    # their own, outside the heap tracemalloc sees, so the traced peak of the
    # load is the sentinel mask of the value screen (one byte a node).
    f, path = default_env.nominal_field, tmp_path / "map.esdf"
    nbytes = f.values.nbytes
    tracemalloc.start()
    try:
        save_field(f, path)
        held, saved = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loaded = load_field(path)
        loaded_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert saved < nbytes // 100, saved
    assert nbytes // 4 <= loaded_peak < nbytes // 4 + nbytes // 100, (loaded_peak, nbytes)
    assert np.array_equal(loaded.values, f.values)
    assert len(_mapping(loaded.values)) == path.stat().st_size
    assert len(_mapping(loaded._grads)) == 3 * nbytes


def _mapping(a: np.ndarray) -> mmap.mmap:
    """The anonymous mapping an array's buffer lies in."""
    while isinstance(a, (np.ndarray, memoryview)):
        a = a.base if isinstance(a, np.ndarray) else a.obj
    assert isinstance(a, mmap.mmap), type(a)
    return a


def test_built_map_arrays_are_mappings_of_their_own(small_spec, default_gate):
    # A built map's values and its gradients each lie in a mapping of their
    # own size, so freeing the map returns their pages whatever the heap holds.
    f = build_field(default_gate, small_spec)
    assert len(_mapping(f.values)) == f.values.nbytes
    assert len(_mapping(f._grads)) == 3 * f.values.nbytes
    assert f.values.flags.writeable and not f._grads.any()


def test_load_rejects_values_without_finite_differences(small_field, tmp_path):
    # Two neighbouring infinite values in a CRC-valid file: their difference
    # is not a number, which the loader refuses instead of warning about it.
    path = tmp_path / "inf.esdf"
    save_field(small_field, path)
    raw = bytearray(path.read_bytes()[:-4])
    raw[_HEADER.size:_HEADER.size + 8] = np.full(2, np.inf, dtype="<f4").tobytes()
    path.write_bytes(bytes(raw) + (zlib.crc32(raw) & 0xFFFFFFFF).to_bytes(4, "little"))
    with pytest.raises(MapFormatError, match="node gradients at resolution 0.1: invalid value"):
        load_field(path)


@pytest.mark.parametrize(
    "value, message",
    [
        (math.nan, "node gradients at resolution 0.1: invalid value"),
        (math.inf, "node gradients at resolution 0.1: invalid value"),
        (-0.5, "node value -0.5 is neither a clearance"),
    ],
    ids=["nan", "inf", "-0.5"],
)
def test_load_rejects_node_values_that_are_no_clearance(small_field, tmp_path, capsys, value, message):
    # One node in a CRC-valid file: a value is a clearance (>= 0) or the -1 sentinel.
    path = tmp_path / "bad-node.esdf"
    save_field(small_field, path)
    raw = bytearray(path.read_bytes()[:-4])
    raw[_HEADER.size + 400:_HEADER.size + 404] = np.array([value], dtype="<f4").tobytes()
    path.write_bytes(bytes(raw) + (zlib.crc32(raw) & 0xFFFFFFFF).to_bytes(4, "little"))
    with pytest.raises(MapFormatError, match=message):
        load_field(path)
    out = tmp_path / "f.csv"
    argv = ["field", "--map", str(path), "--plane", "yz", "--offset", "0", "--speed", "2", "--out", str(out)]
    assert cli_main(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_map_of_only_inside_nodes_loads_and_every_query_is_in_the_obstacle(tmp_path):
    # CRC-valid, every node the inside sentinel: no clearance to check, so it
    # loads, and each query's cell touches the solid.
    dims, path = (3, 3, 3), tmp_path / "solid.esdf"
    payload = _HEADER.pack(MAGIC, FORMAT_VERSION, *dims, 0.0, 0.0, 0.0, 0.5, 0.0, 0.0, 0.0)
    payload += np.full(math.prod(dims), INSIDE_SENTINEL, dtype="<f4").tobytes()
    path.write_bytes(payload + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little"))
    f = load_field(path)
    assert np.all(f.values == INSIDE_SENTINEL)
    with pytest.raises(InsideObstacleError):
        sample(f, np.array([0.5, 0.5, 0.5]))
    status = sample_batch(f, np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.5], [0.9, 0.1, 1.0]]))[2]
    assert status.tolist() == [SAMPLE_IN_OBSTACLE] * 3


def _map_with_header(path, dims, origin, res, inflation) -> None:
    """A map file with the given header geometry, values 0, 1, 2, ... and a valid CRC."""
    n = math.prod(dims)
    payload = _HEADER.pack(MAGIC, FORMAT_VERSION, *dims, *origin, res, *inflation) + np.arange(n, dtype="<f4").tobytes()
    path.write_bytes(payload + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little"))


@pytest.mark.parametrize(
    "dims, origin, res, inflation, message",
    [
        ((1, 4, 4), (0.0, 0.0, 0.0), 0.1, (0.0, 0.0, 0.0), "dims"),
        ((0, 4, 4), (0.0, 0.0, 0.0), 0.1, (0.0, 0.0, 0.0), "dims"),
        ((4, 4, 4), (0.0, 0.0, 0.0), 0.0, (0.0, 0.0, 0.0), "resolution"),
        ((4, 4, 4), (0.0, 0.0, 0.0), -0.1, (0.0, 0.0, 0.0), "resolution"),
        ((4, 4, 4), (math.nan, 0.0, 0.0), 0.1, (0.0, 0.0, 0.0), "origin"),
        ((4, 4, 4), (0.0, 0.0, 0.0), 0.1, (math.nan, -1.0, 0.0), "inflation"),
        ((4, 4, 4), (0.0, 0.0, 0.0), 0.1, (0.0, -0.1, 0.0), "inflation"),
        ((4, 4, 4), (0.0, 0.0, 0.0), 0.1, (0.0, 0.0, math.inf), "inflation"),
        # Valid geometry, but node differences over 1e-300 m overflow float32.
        ((4, 4, 4), (0.0, 0.0, 0.0), 1e-300, (0.0, 0.0, 0.0), "resolution 1e-300: overflow"),
    ],
    ids=[
        "nx=1", "nx=0", "res=0", "res<0", "nan-origin", "nan-inflation", "negative-inflation", "inf-inflation",
        "res=1e-300",
    ],
)
def test_load_rejects_bad_header_geometry_with_valid_crc(tmp_path, dims, origin, res, inflation, message):
    path = tmp_path / "geometry.esdf"
    _map_with_header(path, dims, origin, res, inflation)
    with pytest.raises(MapFormatError, match=message) as info:
        load_field(path)
    assert str(path) in str(info.value)


def test_hand_built_map_with_sound_header_loads(tmp_path):
    path = tmp_path / "sound.esdf"
    _map_with_header(path, (2, 3, 4), (-1.0, -2.0, -3.0), 0.5, (0.0, 0.5, 0.0))
    f = load_field(path)
    assert f.spec.dims == (2, 3, 4) and f.spec.resolution == 0.5
    assert f.inflated_by.tolist() == [0.0, 0.5, 0.0]


def _reference_sample(f: DistanceField, q: np.ndarray) -> tuple[float, np.ndarray]:
    """Per-corner trilinear sample: one scalar read per corner, grad += w * g."""
    res = f.spec.resolution
    idx, frac = [], []
    for k in range(3):
        r = (float(q[k]) - float(f.spec.origin[k])) / res
        n = f.spec.dims[k]
        if r < -1e-9 or r > (n - 1) + 1e-9:
            raise OutOfBoundsError("outside")
        i = min(max(int(r), 0), n - 2)
        idx.append(i)
        frac.append(min(max(r - i, 0.0), 1.0))
    i, j, l = idx
    corners = [(i + dx, j + dy, l + dz) for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)]
    c = [float(f.values[n]) for n in corners]
    if min(c) == -1.0:
        raise InsideObstacleError("inside")
    tx, ty, tz = frac
    w = [
        (tx if dx else 1 - tx) * (ty if dy else 1 - ty) * (tz if dz else 1 - tz)
        for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)
    ]
    grad = np.zeros(3)
    for wi, n in zip(w, corners):
        grad += wi * f.gradients[n].astype(np.float64)
    return float(sum(wi * ci for wi, ci in zip(w, c))), grad


def test_sample_is_bit_identical_to_per_corner_reference(small_field):
    rng = np.random.default_rng(6)
    spec = small_field.spec
    inflated = inflate_field(small_field, np.full(3, 0.3))
    pts = np.concatenate([
        rng.uniform(-1.0, 1.0, size=(4000, 3)) * [0.5, 1.5, 1.5],       # near the frame
        rng.uniform(spec.origin - 0.05, spec.max_corner + 0.05, size=(4000, 3)),  # whole grid and past it
        spec.origin + spec.resolution * rng.integers(0, np.array(spec.dims), size=(2000, 3)),  # nodes
    ])
    outcomes = set()
    for fld in (small_field, inflated):
        for q in pts:
            try:
                want = _reference_sample(fld, q)
            except (OutOfBoundsError, InsideObstacleError) as exc:
                with pytest.raises(type(exc)):
                    sample(fld, q)
                outcomes.add(type(exc))
                continue
            d, grad = sample(fld, q)
            assert d == want[0] and math.copysign(1.0, d) == math.copysign(1.0, want[0])
            assert grad.dtype == np.float64
            assert grad.tobytes() == want[1].tobytes(), f"gradient differs at {q.tolist()}"
            outcomes.add("ok")
    assert outcomes == {"ok", OutOfBoundsError, InsideObstacleError}


def _loop_sample(f: DistanceField, q) -> tuple[float, np.ndarray]:
    """Per-axis loop over (origin, dims) with the cell read as two flat slices."""
    idx, frac = [], []
    for k, (lo, n) in enumerate(zip(f.spec.origin.tolist(), f.spec.dims)):
        qk = float(q[k])
        if not math.isfinite(qk):
            raise ValueError(f"query must be finite, got {q}")
        r = (qk - lo) / f.spec.resolution
        if r < -1e-9 or r > (n - 1) + 1e-9:
            raise OutOfBoundsError(f"query {np.asarray(q).tolist()} outside grid extent on axis {'xyz'[k]}")
        i = min(max(int(r), 0), n - 2)
        idx.append(i)
        frac.append(min(max(r - i, 0.0), 1.0))
    i, j, l = idx
    c = f.values[i:i + 2, j:j + 2, l:l + 2].ravel().tolist()
    if min(c) == -1.0:
        raise InsideObstacleError(f"query {np.asarray(q).tolist()} touches an inside-solid cell")
    tx, ty, tz = frac
    w = (
        (1 - tx) * (1 - ty) * (1 - tz), (1 - tx) * (1 - ty) * tz,
        (1 - tx) * ty * (1 - tz), (1 - tx) * ty * tz,
        tx * (1 - ty) * (1 - tz), tx * (1 - ty) * tz,
        tx * ty * (1 - tz), tx * ty * tz,
    )
    d = gx = gy = gz = 0.0
    cell_grads = f.gradients[i:i + 2, j:j + 2, l:l + 2].reshape(8, 3).tolist()
    for wi, ci, (cx, cy, cz) in zip(w, c, cell_grads):
        d += wi * ci
        gx += wi * cx
        gy += wi * cy
        gz += wi * cz
    return d, np.array([gx, gy, gz])


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:  # OutOfBoundsError and InsideObstacleError are ValueErrors
        return type(exc), str(exc)


def test_sample_is_bit_identical_to_loop_reference(small_field):
    rng = np.random.default_rng(16)
    spec = small_field.spec
    inflated = inflate_field(small_field, np.full(3, 0.3))
    lo, hi, res = spec.origin, spec.max_corner, spec.resolution
    nodes = lo + res * rng.integers(0, np.array(spec.dims), size=(1000, 3))
    pts = np.concatenate([
        rng.uniform(-1.0, 1.0, size=(4000, 3)) * [0.5, 1.5, 1.5],
        rng.uniform(lo - 0.05, hi + 0.05, size=(4000, 3)),
        nodes,
        np.nextafter(nodes, nodes + rng.choice([-1.0, 1.0], size=nodes.shape)),
        # Faces of the extent and a hair (inside the 1e-9 cell tolerance) past them.
        np.where(rng.random((500, 3)) < 0.3, rng.choice([0.0, 1.0], size=(500, 3)), rng.random((500, 3)))
        * (hi - lo) + lo + rng.choice([-1e-11, 0.0, 1e-11], size=(500, 3)),
    ])
    seen = set()
    for fld in (small_field, inflated):
        for q in pts:
            want, got = _outcome(_loop_sample, fld, q), _outcome(sample, fld, q)
            if isinstance(want[0], type):
                assert got == want
                seen.add(want[0])
                continue
            assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes(), f"value differs at {q.tolist()}"
            assert got[1].dtype == np.float64 and got[1].tobytes() == want[1].tobytes(), f"gradient differs at {q.tolist()}"
            seen.add("ok")
    assert seen == {"ok", OutOfBoundsError, InsideObstacleError}


@pytest.mark.parametrize("q, error", [
    ([100.0, math.nan, 0.0], OutOfBoundsError),  # x is checked before y
    ([math.nan, 100.0, 0.0], ValueError),
    ([0.0, math.inf, math.nan], ValueError),
    ([0.0, 0.0, -math.inf], ValueError),
    ([0.0, -9.0, math.nan], OutOfBoundsError),
    ([1e308, 0.0, 0.0], OutOfBoundsError),  # finite, but its grid coordinate overflows
])
def test_sample_raises_per_axis_in_order(small_field, q, error):
    with pytest.raises(ValueError) as exc_info:
        sample(small_field, np.array(q))
    assert type(exc_info.value) is error
    assert (type(exc_info.value), str(exc_info.value)) == _outcome(_loop_sample, small_field, np.array(q))


def test_sample_batch_flags_non_finite_rows_out_of_bounds(small_field):
    pts = np.array([
        [0.0, 0.0, 0.5],
        [math.nan, 0.0, 0.5],
        [0.0, math.inf, 0.5],
        [0.0, 0.0, -math.inf],
        [math.nan, math.nan, math.nan],
        [1e308, 0.0, 0.5],  # finite, but the grid coordinate overflows
        [0.0, -1e308, 0.5],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vals, grads, status = sample_batch(small_field, pts)
    assert status.tolist() == [SAMPLE_OK] + [SAMPLE_OOB] * 6
    assert np.isfinite(vals[0]) and np.all(np.isnan(vals[1:])) and np.all(np.isnan(grads[1:]))
    d, grad = sample(small_field, pts[0])
    assert vals[0] == pytest.approx(d, abs=1e-12)


@pytest.mark.parametrize("shape", [(3, 1), (1, 3), (2,), (4,), ()])
def test_sample_rejects_a_point_that_is_no_3_vector(small_field, shape):
    with pytest.raises(ValueError, match=rf"^expected a 3-vector, got shape {re.escape(str(shape))}$"):
        sample(small_field, np.zeros(shape))


@pytest.mark.parametrize("q", [[5.0, 0.0, 0.0], [0.0, 0.875, 0.0], [0, 5, 0]])
def test_sample_errors_name_a_list_query_as_its_array_does(small_field, q):
    # A list of floats is named as is, without numpy; every other query as
    # np.asarray(q).tolist() names it.
    assert _outcome(sample, small_field, q) == _outcome(sample, small_field, np.array(q))


@pytest.mark.parametrize("shape", [(3,), (4, 2), (2, 3, 1)])
def test_sample_batch_rejects_non_n_by_3_points(small_field, shape):
    with pytest.raises(ValueError, match=r"expected an \(N, 3\) array"):
        sample_batch(small_field, np.zeros(shape))


def _per_corner_sample_batch(f: DistanceField, pts: np.ndarray):
    """sample_batch as one pass per corner: fancy-index gathers, sums in corner order."""
    pts = np.asarray(pts, dtype=float)
    n = pts.shape[0]
    res = f.spec.resolution
    dims = np.array(f.spec.dims)
    with np.errstate(over="ignore"):
        rel = (pts - f.spec.origin[None, :]) / res
    oob = ~np.all((rel >= -1e-9) & (rel <= (dims - 1)[None, :] + 1e-9), axis=1)
    rel[oob] = 0.0

    idx = np.clip(np.floor(rel).astype(int), 0, (dims - 2)[None, :])
    frac = np.clip(rel - idx, 0.0, 1.0)

    i, j, l = idx[:, 0], idx[:, 1], idx[:, 2]
    tx, ty, tz = frac[:, 0], frac[:, 1], frac[:, 2]
    v = f.values
    g = f.gradients
    vals = np.zeros(n)
    grads = np.zeros((n, 3))
    corner_min = np.full(n, np.inf)
    for dx in (0, 1):
        wx = tx if dx else (1.0 - tx)
        for dy in (0, 1):
            wy = ty if dy else (1.0 - ty)
            for dz in (0, 1):
                wz = tz if dz else (1.0 - tz)
                w = wx * wy * wz
                cv = v[i + dx, j + dy, l + dz].astype(np.float64)
                corner_min = np.minimum(corner_min, cv)
                vals += w * cv
                grads += w[:, None] * g[i + dx, j + dy, l + dz].astype(np.float64)
    in_obs = corner_min == INSIDE_SENTINEL

    status = np.zeros(n, dtype=np.int8)
    status[in_obs] = SAMPLE_IN_OBSTACLE
    status[oob] = SAMPLE_OOB
    bad = status != SAMPLE_OK
    vals[bad] = np.nan
    grads[bad] = np.nan
    return vals, grads, status


def _query_mix(rng, spec, n: int) -> np.ndarray:
    """Grid-wide points plus cells at the frame, nodes, upper and lower faces and non-finite or overflowing rows."""
    lo, hi, res = spec.origin, spec.max_corner, spec.resolution
    pts = rng.uniform(lo - 0.05, hi + 0.05, size=(n, 3))
    kind = rng.integers(0, 6, size=n)
    near = kind == 1  # cells touching the solid and their neighbours
    pts[near] = rng.uniform(-1.0, 1.0, size=(near.sum(), 3)) * [0.5, 1.5, 1.5]
    node = kind == 2
    pts[node] = lo + res * rng.integers(0, np.array(spec.dims), size=(node.sum(), 3))
    face = np.flatnonzero(kind == 3)  # on an upper face, or a hair (inside the tolerance) past it
    axis = rng.integers(0, 3, size=face.size)
    pts[face, axis] = hi[axis] + rng.choice([0.0, 1e-11, -1e-11], size=face.size)
    bad = np.flatnonzero(kind == 4)
    pts[bad, rng.integers(0, 3, size=bad.size)] = rng.choice([math.nan, math.inf, -math.inf, 1e308, -1e308], size=bad.size)
    # On a lower face, a hair (inside the tolerance) below it, or -0.0 on a
    # face at 0; picked by row number, so the stream of draws stays as it was.
    low = np.flatnonzero(kind == 5)
    axis = low % 3
    offset = np.array([0.0, -1e-11, -0.0])[low // 3 % 3]
    pts[low, axis] = np.where(lo[axis] == 0.0, offset, lo[axis] + offset)
    pts[low[::4]] = lo  # the grid's min corner itself
    return pts


def test_sample_batch_is_bit_identical_to_per_corner_reference(small_field, default_env):
    rng = np.random.default_rng(41)
    fields = (small_field, default_env.nominal_field, default_env.inflated_field)
    seen = set()
    for n in (0, 1, 7, 120, _SAMPLE_BLOCK + 1, 10_000):
        for trial in range(40 if n < 10 else 2):
            fld = fields[trial % 3]
            pts = _query_mix(rng, fld.spec, n)
            want = _per_corner_sample_batch(fld, pts)
            got = sample_batch(fld, pts)
            for g, w in zip(got[:2], want[:2]):
                assert g.dtype == w.dtype == np.float64 and g.shape == w.shape
                assert np.array_equal(g.view(np.uint64), w.view(np.uint64)), (n, trial)
            assert got[2].dtype == np.int8 and got[2].shape == (n,) and np.array_equal(got[2], want[2])
            seen.update(want[2].tolist())
    assert seen == {SAMPLE_OK, SAMPLE_OOB, SAMPLE_IN_OBSTACLE}


def _last_cell_queries(rng, spec: GridSpec, n: int) -> np.ndarray:
    """Points in the last cell along one axis and along all three, and the grid's far corner."""
    lo, res = spec.origin, spec.resolution
    last = np.array(spec.dims) - 2
    pts = [lo + res * rng.uniform(0.0, np.array(spec.dims) - 1.0, size=(n, 3)) for _ in range(4)]
    for axis in range(3):
        pts[axis][:, axis] = lo[axis] + res * (last[axis] + rng.random(n))
    pts[3] = lo + res * (last + rng.random((n, 3)))
    return np.concatenate(pts + [spec.max_corner[None, :]])


def test_sample_batch_single_rows_match_scalar_sample_bit_for_bit(small_field):
    # A batch of one row sums its eight corners in order as well. sample_batch
    # gathers with numpy, so it checks sample's corner reads, also on grids
    # whose reads skip no byte between corner pairs, in the last cell of each
    # axis (a read that ends at the buffer's last byte) and on a field built
    # from Fortran-ordered values.
    rng = np.random.default_rng(43)
    fields = [(small_field, _query_mix(rng, small_field.spec, 3000))]
    grids = [((-0.3, 0.2, -1.0), dims) for dims in ((2, 2, 2), (3, 2, 5), (4, 3, 2), small_field.spec.dims)]
    grids.append(((0.0, -0.2, 0.0), (5, 4, 3)))  # faces at 0, where a query may be -0.0
    for origin, dims in grids:
        spec = GridSpec(origin=np.array(origin), resolution=0.1, dims=dims)
        values = _blob_values(rng, dims)
        pts = np.concatenate([_query_mix(rng, spec, 300), _last_cell_queries(rng, spec, 100)])
        fields += [(DistanceField(spec, values), pts), (DistanceField(spec, np.asfortranarray(values)), pts)]
    errors = {SAMPLE_OOB: (OutOfBoundsError, ValueError), SAMPLE_IN_OBSTACLE: InsideObstacleError}
    for fld, pts in fields:
        ok = 0
        for q in pts:
            vals, grads, status = sample_batch(fld, q[None, :])
            if status[0] != SAMPLE_OK:
                with pytest.raises(errors[status[0]]):
                    sample(fld, q)
                continue
            d, grad = sample(fld, q)
            assert np.float64(d).tobytes() == vals[0].tobytes() and grad.tobytes() == grads[0].tobytes(), q.tolist()
            ok += 1
        assert ok > len(pts) // 10, fld.spec.dims


def _sample_bits(f: DistanceField, q) -> bytes | tuple:
    """sample's value and gradient as bytes, or its error's type and message."""
    try:
        d, grad = sample(f, q)
    except ValueError as exc:
        return type(exc), str(exc)
    return np.float64(d).tobytes() + grad.tobytes()


def test_pickled_and_copied_maps_sample_like_the_original(small_field, tmp_path):
    save_field(small_field, tmp_path / "gate.esdf")
    rng = np.random.default_rng(44)
    for original in (small_field, load_field(tmp_path / "gate.esdf")):
        pts = _query_mix(rng, original.spec, 2000)
        sample_batch(original, pts[:200])  # some blocks derived before the copy, the rest after
        for twin in (pickle.loads(pickle.dumps(original)), copy.deepcopy(original)):
            assert twin.values is not original.values and np.array_equal(twin.values, original.values)
            assert [_sample_bits(twin, q) for q in pts] == [_sample_bits(original, q) for q in pts]


def _roll_gradients(values: np.ndarray, res: float) -> np.ndarray:
    """Per-axis np.roll neighbours with masked wrap-around and nested np.where."""
    v = values.astype(np.float64)
    valid = v != -1.0
    grads = np.zeros(values.shape + (3,), dtype=np.float64)
    for axis in range(3):
        vl = np.roll(v, 1, axis=axis)
        vr = np.roll(v, -1, axis=axis)
        has_l = np.roll(valid, 1, axis=axis).copy()
        has_r = np.roll(valid, -1, axis=axis).copy()
        sl_first = [slice(None)] * 3
        sl_first[axis] = slice(0, 1)
        sl_last = [slice(None)] * 3
        sl_last[axis] = slice(-1, None)
        has_l[tuple(sl_first)] = False
        has_r[tuple(sl_last)] = False
        central = (vr - vl) / (2.0 * res)
        fwd = (vr - v) / res
        bwd = (v - vl) / res
        g = np.where(has_l & has_r, central, np.where(has_r, fwd, np.where(has_l, bwd, 0.0)))
        grads[..., axis] = np.where(valid, g, 0.0)
    return grads.astype(np.float32)


def _assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
    assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


def test_node_gradients_are_bit_identical_on_default_maps(default_env):
    for fld in (default_env.nominal_field, default_env.inflated_field):
        _assert_same_bits(fld.gradients, _roll_gradients(fld.values, fld.spec.resolution))


def _blob_values(rng, shape, blobs: int = 4) -> np.ndarray:
    """Clearance-like float32 values (repeats, exact zeros) with -1 boxes, most stretched to a border."""
    values = rng.uniform(0.0, 3.0, size=shape).astype(np.float32)
    values[rng.random(shape) < 0.1] = 0.0
    values[rng.random(shape) < 0.1] = values.flat[0]
    for _ in range(rng.integers(0, blobs)):
        lo = rng.integers(0, shape)
        hi = np.minimum(lo + rng.integers(1, 4, size=3), shape)
        axis = rng.integers(0, 3)
        side = rng.random()
        if side < 0.4:
            lo[axis] = 0
        elif side < 0.8:
            hi[axis] = shape[axis]
        values[tuple(slice(a, b) for a, b in zip(lo, hi))] = -1.0
    return values


def test_node_gradients_are_bit_identical_with_border_blobs():
    rng = np.random.default_rng(17)
    for shape in [(2, 2, 2), (2, 5, 3), (7, 2, 4), (6, 5, 9), (12, 11, 10)]:
        for trial in range(20):
            values = _blob_values(rng, shape)
            res = float(rng.choice([0.1, 0.25, 0.3]))
            _assert_same_bits(_node_gradients(values, res), _roll_gradients(values, res))


# ---------------------------------------------------------------------------
# Gradients derived block by block
# ---------------------------------------------------------------------------

def _derived_blocks(f: DistanceField) -> np.ndarray:
    """The per-block derived flags as a (bx, by, bz) bool array."""
    return np.frombuffer(f._done, dtype=np.uint8).reshape(f._blocks) != 0


def _block_edge_queries(rng, spec: GridSpec) -> np.ndarray:
    """Random points, plus mid-cell points in the cells on both sides of every block edge and at the grid's ends."""
    res = spec.resolution
    pts = [rng.uniform(spec.origin, spec.max_corner, size=(200, 3))]
    for axis, n in enumerate(spec.dims):
        cells = {0, n - 2} | {c for e in range(_GRAD_BLOCK, n - 1, _GRAD_BLOCK) for c in (e - 1, e)}
        for c in sorted(cells):
            p = rng.uniform(spec.origin, spec.max_corner, size=(5, 3))
            p[:, axis] = spec.origin[axis] + (c + 0.5) * res
            pts.append(p)
    return np.concatenate(pts)


@pytest.mark.parametrize("dims", [(37, 2, 20), (17, 33, 18), (2, 2, 2), (16, 49, 3)])
@pytest.mark.parametrize("first", ["sample", "sample_batch", "gradients"])
def test_block_gradients_are_bit_identical_whatever_derives_first(dims, first, monkeypatch):
    # Dims that are and are not a multiple of the block size, a 2-node axis,
    # and cells on both sides of each block edge; -1 boxes reach the borders.
    rng = np.random.default_rng(sum(dims))
    spec = GridSpec(origin=np.array([-0.3, 0.2, -1.0]), resolution=0.1, dims=dims)
    values = _blob_values(rng, dims, blobs=8)
    want = _node_gradients(values, spec.resolution)
    full = DistanceField(spec, values)
    _assert_same_bits(full.gradients, want)
    assert _derived_blocks(full).all()

    f = DistanceField(spec, values)
    assert not _derived_blocks(f).any()
    pts = _block_edge_queries(rng, spec)

    def scalar_pass(fld):
        out = []
        for q in pts:
            try:
                d, g = sample(fld, q)
            except InsideObstacleError:
                continue
            out.append(np.float64(d).tobytes() + g.tobytes())
        return out

    def batch_pass(fld):
        return [a.tobytes() for a in sample_batch(fld, pts)]

    run = {"sample": scalar_pass, "sample_batch": batch_pass}.get(first)
    if run is not None:
        got = run(f)
        assert got == run(full)
        derived = _derived_blocks(f)
        # Those queries span the grid, so every block they touch is derived
        # now: a repeat derives nothing.
        monkeypatch.setattr("gatesafe.field._node_gradients", lambda *a: pytest.fail("derived again"))
        assert run(f) == got
        monkeypatch.undo()
        assert np.array_equal(_derived_blocks(f), derived)
    _assert_same_bits(f.gradients, want)
    assert _derived_blocks(f).all()


def test_scalar_sample_derives_the_one_block_of_its_cell():
    spec = GridSpec(origin=np.zeros(3), resolution=0.1, dims=(40, 40, 40))
    values = np.random.default_rng(3).uniform(0.5, 3.0, size=spec.dims).astype(np.float32)  # no -1 nodes
    for cell in (15, 16, 31, 32, 38):
        f = DistanceField(spec, values)
        sample(f, np.full(3, (cell + 0.5) * 0.1))
        blocks = _derived_blocks(f)
        k = cell // _GRAD_BLOCK
        assert blocks.sum() == 1 and blocks[k, k, k], cell


def test_sample_batch_rows_out_of_bounds_derive_no_block(small_spec):
    f = DistanceField(small_spec, np.ones(small_spec.dims, dtype=np.float32))
    far = np.array([[100.0, 0.0, 0.0], [math.nan, 0.0, 0.0], [0.0, -1e308, 0.0]])
    assert sample_batch(f, far)[2].tolist() == [SAMPLE_OOB] * 3
    assert not _derived_blocks(f).any()


def test_build_inflate_and_load_derive_no_block(default_gate, small_spec, tmp_path):
    nominal = build_field(default_gate, small_spec, safety_radius=0.3, inflation=np.full(3, 0.3))
    inflated = inflate_field(nominal, np.full(3, 0.3))
    save_field(inflated, tmp_path / "m.esdf")
    loaded = load_field(tmp_path / "m.esdf")
    for f in (nominal, inflated, loaded):
        assert not _derived_blocks(f).any()


@pytest.mark.parametrize("plane, axis", [("yz", 0), ("xy", 2)])
def test_plane_export_derives_only_the_two_node_layers_around_its_plane(default_gate, small_spec, plane, axis):
    f = build_field(default_gate, small_spec, safety_radius=0.3, inflation=np.full(3, 0.3))
    # The last cell of the first block layer, at mid-cell, so rounding cannot
    # move the plane to a neighbouring cell; the plane cuts the frame.
    cell = _GRAD_BLOCK - 1
    offset = float(small_spec.origin[axis] + (cell + 0.5) * small_spec.resolution)
    exported = safest_action_field(f, SafetyParams(), speed=2.0, plane=plane, offset=offset)
    assert exported.unsafe.any() and not exported.unsafe.all()
    layers = np.moveaxis(f._grads, axis, 0).any(axis=(1, 2, 3))
    assert np.flatnonzero(layers).tolist() == [cell, cell + 1]
    assert not _derived_blocks(f).any()  # two layers cover no block wholly
    # Later queries, in those blocks and elsewhere, read whole-map bits.
    want = _node_gradients(f.values, f.spec.resolution)
    full = DistanceField(f.spec, f.values)
    _assert_same_bits(full.gradients, want)
    pts = np.random.default_rng(axis).uniform(small_spec.origin, small_spec.max_corner, size=(300, 3))
    pts[::2, axis] = offset + np.random.default_rng(axis).uniform(-0.05, 0.05, size=150)
    for q in pts:
        try:
            got = sample(f, q)
        except InsideObstacleError:
            continue
        ref = sample(full, q)
        assert (np.float64(got[0]).tobytes(), got[1].tobytes()) == (np.float64(ref[0]).tobytes(), ref[1].tobytes())
    _assert_same_bits(f.gradients, want)


@pytest.mark.parametrize("dims", [(37, 2, 20), (17, 33, 18), (16, 49, 3), (2, 2, 2)])
def test_a_node_box_derives_its_nodes_and_flags_the_blocks_it_covers_wholly(dims):
    rng = np.random.default_rng(sum(dims))
    spec = GridSpec(origin=np.zeros(3), resolution=0.1, dims=dims)
    values = _blob_values(rng, dims)
    want = _node_gradients(values, spec.resolution)
    # Boxes that start and end at block edges, one node either side, and random ones.
    edges = ((0, 100), (0, 16), (1, 17), (0, 17), (16, 33))
    boxes = [([min(a, n - 1) for n in dims], [min(b, n) for n in dims]) for a, b in edges]
    for _ in range(40):
        lo = [int(rng.integers(0, n)) for n in dims]
        boxes.append((lo, [int(rng.integers(a + 1, n + 1)) for a, n in zip(lo, dims)]))
    for lo, hi in boxes:
        f = DistanceField(spec, values)
        f._derive_nodes(lo, hi)
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        _assert_same_bits(f._grads[box], want[box])
        outside = np.ones(dims, dtype=bool)
        outside[box] = False
        assert not f._grads[outside].any()
        # Block k holds nodes 16 k to min(16 k + 16, n - 1).
        covered = [
            all(a <= _GRAD_BLOCK * k and min(_GRAD_BLOCK * k + _GRAD_BLOCK, n - 1) < b
                for k, a, b, n in zip(block, lo, hi, dims))
            for block in np.ndindex(*f._blocks)
        ]
        assert _derived_blocks(f).ravel().tolist() == covered, (lo, hi)


def test_sample_batch_rows_touching_the_solid_derive_nothing(small_spec):
    values = np.ones(small_spec.dims, dtype=np.float32)
    values[10, 10, 10] = INSIDE_SENTINEL
    f = DistanceField(small_spec, values)
    # Mid-cell points in the eight cells around that node.
    cells = np.array(list(np.ndindex(2, 2, 2))) + 9
    pts = small_spec.origin + (cells + 0.5) * small_spec.resolution
    assert sample_batch(f, pts)[2].tolist() == [SAMPLE_IN_OBSTACLE] * 8
    assert not f._grads.any() and not _derived_blocks(f).any()
