"""Distance-field build, inflation, interpolation, and file round-trips.

Oracles:
- node values against the exact closed-form distance (and -1 sentinels),
- inflation against a hand-rolled window minimum, scipy's minimum_filter
  (bit for bit) AND a dense set of gate translations,
- interpolation against the exact distance with the res*sqrt(3)/2 bound.
"""
import math
import warnings
import zlib

import numpy as np
import pytest

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
    _HEADER,
    _SAMPLE_BLOCK,
    _node_gradients,
    build_field,
    default_grid_spec,
    inflate_field,
    load_field,
    quantize_inflation,
    sample,
    sample_batch,
    save_field,
)
from gatesafe.geometry import GateGeometry, exact_distance, exact_distance_batch


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


def test_default_grid_dims():
    spec = default_grid_spec()
    assert spec.dims == (121, 121, 81)
    np.testing.assert_allclose(spec.max_corner, [6.0, 6.0, 4.0], atol=1e-12)


def test_coverage_error_names_axis(default_gate):
    spec = GridSpec(origin=np.array([-1.5, -2.0, -0.5]), resolution=0.1, dims=(31, 41, 11))
    with pytest.raises(ValueError, match="axis 'z'"):
        build_field(default_gate, spec, safety_radius=0.3)


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

def test_inflation_matches_window_minimum_oracle(small_field):
    # Cubic, non-cubic and zero-width windows.
    v = small_field.values
    nx, ny, nz = v.shape
    for eps in ([0.2, 0.2, 0.2], [0.1, 0.0, 0.3], [0.0, 0.3, 0.1]):
        inflated = inflate_field(small_field, np.array(eps))
        kx, ky, kz = (round(e / 0.1) for e in eps)
        expected = np.full_like(v, np.inf)
        for ox in range(-kx, kx + 1):
            for oy in range(-ky, ky + 1):
                for oz in range(-kz, kz + 1):
                    sx = slice(max(0, -ox), min(nx, nx - ox))
                    sy = slice(max(0, -oy), min(ny, ny - oy))
                    sz = slice(max(0, -oz), min(nz, nz - oz))
                    tx = slice(max(0, ox), min(nx, nx + ox))
                    ty = slice(max(0, oy), min(ny, ny + oy))
                    tz = slice(max(0, oz), min(nz, nz + oz))
                    expected[sx, sy, sz] = np.minimum(expected[sx, sy, sz], v[tx, ty, tz])
        np.testing.assert_array_equal(inflated.values, expected, err_msg=f"eps {eps}")


def test_inflation_is_bit_identical_to_scipy_minimum_filter(small_field):
    from scipy import ndimage

    v = small_field.values
    assert np.any(v == -1.0), "the map must hold inside-solid sentinels"
    # Windows wider than the grid on some axes as well.
    for k in [(2, 2, 2), (1, 0, 3), (5, 1, 2), (0, 0, 1), (20, 25, 30)]:
        got = inflate_field(small_field, 0.1 * np.array(k)).values
        want = ndimage.minimum_filter(v, size=tuple(2 * ki + 1 for ki in k), mode="nearest")
        assert got.dtype == want.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32)), f"half-widths {k}"


def test_zero_inflation_returns_a_new_array(small_field):
    inflated = inflate_field(small_field, np.zeros(3))
    np.testing.assert_array_equal(inflated.values, small_field.values)
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
        # Discrete window min vs dense translation min: both conservative
        # within a cell diagonal plus interpolation error.
        assert abs(got - truth) <= 0.05 * math.sqrt(3.0) + 1e-6, f"at {q}: {got} vs oracle {truth}"


def test_inflate_rejects_non_whole_cell_eps(small_field):
    with pytest.raises(ValueError, match="whole number of cells"):
        inflate_field(small_field, np.array([0.25, 0.25, 0.25]))


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


def test_load_rejects_trailing_garbage(small_field, tmp_path):
    path = tmp_path / "extra.esdf"
    save_field(small_field, path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(MapFormatError):
        load_field(path)


def test_load_rejects_map_without_gradient_block(small_field, tmp_path):
    # A well-formed file (valid CRC) whose flags drop the gradient block:
    # sampling needs gradients, so the loader must refuse it.
    path = tmp_path / "nograd.esdf"
    save_field(small_field, path)
    raw = bytearray(path.read_bytes())
    n = math.prod(small_field.spec.dims)
    header = len(raw) - 16 * n - 4
    raw[8:12] = (0).to_bytes(4, "little")
    payload = bytes(raw[: header + 4 * n])
    path.write_bytes(payload + (zlib.crc32(payload) & 0xFFFFFFFF).to_bytes(4, "little"))
    with pytest.raises(MapFormatError, match="gradient"):
        load_field(path)


def _map_with_header(path, dims, origin, res, inflation) -> None:
    """A map file with the given header geometry, zero payload and a valid CRC."""
    n = math.prod(dims)
    payload = _HEADER.pack(b"ESDF", 2, 1, *dims, *origin, res, *inflation) + bytes(16 * n)
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
    ],
    ids=["nx=1", "nx=0", "res=0", "res<0", "nan-origin", "nan-inflation", "negative-inflation", "inf-inflation"],
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
    """Grid-wide points plus cells at the frame, nodes, upper faces and non-finite or overflowing rows."""
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


def test_sample_batch_single_rows_match_scalar_sample_bit_for_bit(small_field):
    # A batch of one row sums its eight corners in order as well.
    rng = np.random.default_rng(43)
    for q in _query_mix(rng, small_field.spec, 3000):
        vals, grads, status = sample_batch(small_field, q[None, :])
        if status[0] != SAMPLE_OK:
            continue
        d, grad = sample(small_field, q)
        assert np.float64(d).tobytes() == vals[0].tobytes() and grad.tobytes() == grads[0].tobytes()


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


def test_node_gradients_are_bit_identical_with_border_blobs():
    rng = np.random.default_rng(17)
    for shape in [(2, 2, 2), (2, 5, 3), (7, 2, 4), (6, 5, 9), (12, 11, 10)]:
        for trial in range(20):
            values = rng.uniform(0.0, 3.0, size=shape).astype(np.float32)
            # Clearance-like values: repeats and exact zeros as well.
            values[rng.random(shape) < 0.1] = 0.0
            values[rng.random(shape) < 0.1] = values.flat[0]
            # -1 blobs: small boxes, most of them stretched to a low or high border.
            for _ in range(rng.integers(0, 4)):
                lo = rng.integers(0, shape)
                hi = np.minimum(lo + rng.integers(1, 4, size=3), shape)
                axis = rng.integers(0, 3)
                side = rng.random()
                if side < 0.4:
                    lo[axis] = 0
                elif side < 0.8:
                    hi[axis] = shape[axis]
                values[tuple(slice(a, b) for a, b in zip(lo, hi))] = -1.0
            res = float(rng.choice([0.1, 0.25, 0.3]))
            _assert_same_bits(_node_gradients(values, res), _roll_gradients(values, res))
