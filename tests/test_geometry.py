"""Gate geometry: classification, exact distance, frame transforms.

The exact-distance oracle here is brute force: sample the frame surface
densely and take the minimum point-to-sample distance. The closed-form
min-over-boxes distance must agree from below within the sampling pitch.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatesafe.geometry import (
    GateGeometry,
    Pose,
    Region,
    _norm,
    classify_point,
    exact_distance,
    exact_distance_batch,
    gate_to_world,
    segment_hits_frame,
    world_to_gate,
)


# ---------------------------------------------------------------------------
# Brute-force surface-sampling oracle
# ---------------------------------------------------------------------------

def _surface_samples(gate: GateGeometry, pitch: float) -> np.ndarray:
    """Dense point samples covering every face of every bar box."""
    lo, hi = gate.bar_boxes()
    pts = []
    for b in range(lo.shape[0]):
        axes = [np.arange(lo[b, k], hi[b, k] + 0.5 * pitch, pitch) for k in range(3)]
        for k in range(3):
            for bound in (lo[b, k], hi[b, k]):
                grids = [axes[0], axes[1], axes[2]]
                grids[k] = np.array([bound])
                g = np.meshgrid(*grids, indexing="ij")
                pts.append(np.stack([c.ravel() for c in g], axis=1))
    return np.concatenate(pts, axis=0)


def test_distance_matches_surface_sampling_oracle(default_gate, rng):
    pitch = 0.02
    surface = _surface_samples(default_gate, pitch)
    pts = rng.uniform([-2.5, -2.5, -2.5], [2.5, 2.5, 2.5], size=(300, 3))
    d = exact_distance_batch(pts, default_gate)
    outside = d >= 0.0
    assert outside.sum() > 200, "sanity: most random points should be outside"
    for q, dq in zip(pts[outside], d[outside]):
        d_oracle = float(np.min(np.linalg.norm(surface - q, axis=1)))
        # The sampled surface can only overestimate the true distance, and by
        # at most half the sample diagonal.
        assert dq <= d_oracle + 1e-12, f"closed form above oracle at {q}"
        assert d_oracle <= dq + pitch * math.sqrt(2.0) / 2.0 + 1e-12, (
            f"closed form {dq} too far below sampled surface {d_oracle} at {q}"
        )


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classify_opening_center_is_outside(default_gate):
    assert classify_point(np.zeros(3), default_gate) is Region.OUTSIDE


def test_classify_point_in_bar_is_inside(default_gate):
    # Midline of the right bar: |y| in [0.75, 1.0] at z = 0.
    assert classify_point(np.array([0.0, 0.875, 0.0]), default_gate) is Region.INSIDE


def test_classify_outer_face_is_boundary(default_gate):
    assert classify_point(np.array([0.125, 1.0, 0.0]), default_gate) is Region.BOUNDARY


def test_classify_respects_boundary_tolerance(default_gate):
    just_out = np.array([0.0, 0.75 - 5e-10, 0.0])
    assert classify_point(just_out, default_gate) is Region.BOUNDARY
    clearly_out = np.array([0.0, 0.75 - 1e-6, 0.0])
    assert classify_point(clearly_out, default_gate) is Region.OUTSIDE


def test_classify_rejects_nonfinite(default_gate):
    with pytest.raises(ValueError):
        classify_point(np.array([np.nan, 0.0, 0.0]), default_gate)
    with pytest.raises(ValueError):
        classify_point(np.array([np.inf, 0.0, 0.0]), default_gate)


def test_bar_interface_points_are_inside(default_gate):
    # Where two bars meet inside the material (|y| and |z| both past the
    # opening), the point is interior to the solid, not on a boundary.
    assert classify_point(np.array([0.0, 0.875, 0.8]), default_gate) is Region.INSIDE


# ---------------------------------------------------------------------------
# Exact distance: pinned values
# ---------------------------------------------------------------------------

def test_distance_at_opening_center(default_gate):
    assert exact_distance(np.zeros(3), default_gate) == pytest.approx(0.75, abs=1e-12)


def test_distance_above_gate(default_gate):
    # Nearest solid point is (0, 0, 1.0) on the top bar's outer edge.
    assert exact_distance(np.array([0.0, 0.0, 3.0]), default_gate) == pytest.approx(2.0, abs=1e-12)


def test_distance_inside_is_sentinel(default_gate):
    assert exact_distance(np.array([0.0, 0.875, 0.0]), default_gate) == -1.0


def test_distance_on_surface_is_zero(default_gate):
    assert exact_distance(np.array([0.125, 1.0, 0.0]), default_gate) == 0.0


def test_distance_region_consistency(default_gate, rng):
    pts = rng.uniform([-1.5, -1.5, -1.5], [1.5, 1.5, 1.5], size=(2000, 3))
    d = exact_distance_batch(pts, default_gate)
    for q, dq in zip(pts, d):
        region = classify_point(q, default_gate)
        if region is Region.INSIDE:
            assert dq == -1.0
        elif region is Region.BOUNDARY:
            assert abs(dq) <= 1e-9
        else:
            assert dq > 0.0


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------

def test_distance_is_lipschitz_outside(default_gate, rng):
    p = rng.uniform([-3, -3, -3], [3, 3, 3], size=(20000, 3))
    q = p + rng.normal(scale=0.5, size=p.shape)
    dp = exact_distance_batch(p, default_gate)
    dq = exact_distance_batch(q, default_gate)
    both_out = (dp >= 0.0) & (dq >= 0.0)
    assert both_out.sum() >= 10000
    gap = np.abs(dp[both_out] - dq[both_out])
    step = np.linalg.norm(p[both_out] - q[both_out], axis=1)
    assert np.all(gap <= step + 1e-9), "distance must be 1-Lipschitz outside the solid"


def test_distance_reflection_symmetry(default_gate, rng):
    pts = rng.uniform([-2, -2, -2], [2, 2, 2], size=(500, 3))
    base = exact_distance_batch(pts, default_gate)
    for flip in ([-1, 1, 1], [1, -1, 1], [1, 1, -1]):
        mirrored = exact_distance_batch(pts * np.array(flip, dtype=float), default_gate)
        np.testing.assert_allclose(mirrored, base, atol=1e-12)
    # The square frame is also symmetric under swapping y and z.
    swapped = exact_distance_batch(pts[:, [0, 2, 1]], default_gate)
    np.testing.assert_allclose(swapped, base, atol=1e-12)


def test_geometry_validation():
    with pytest.raises(ValueError):
        GateGeometry(inner_size=0.0)
    with pytest.raises(ValueError):
        GateGeometry(bar_thickness=-0.1)


# ---------------------------------------------------------------------------
# Frame transforms
# ---------------------------------------------------------------------------

def test_world_to_gate_pinned_example():
    pose = Pose(position=np.array([2.0, -1.0, 0.5]), yaw=math.pi / 2)
    q = world_to_gate(pose.position + np.array([1.0, 0.0, 0.0]), pose)
    np.testing.assert_allclose(q, [0.0, -1.0, 0.0], atol=1e-12)


def test_transform_round_trip(rng):
    for _ in range(200):
        pose = Pose(position=rng.uniform(-10, 10, 3), yaw=float(rng.uniform(-4 * math.pi, 4 * math.pi)))
        x = rng.uniform(-10, 10, 3)
        back = gate_to_world(world_to_gate(x, pose), pose)
        np.testing.assert_allclose(back, x, atol=1e-12)


def test_yaw_normalization():
    assert Pose(yaw=3 * math.pi).yaw == pytest.approx(math.pi)
    assert Pose(yaw=-math.pi).yaw == pytest.approx(math.pi)  # (-pi, pi]: -pi maps to pi
    assert Pose(yaw=math.pi / 4).yaw == pytest.approx(math.pi / 4)
    assert -math.pi < Pose(yaw=-5.5 * math.pi).yaw <= math.pi


@settings(max_examples=200, deadline=None)
@given(
    px=st.floats(-50, 50), py=st.floats(-50, 50), pz=st.floats(-50, 50),
    yaw=st.floats(-20, 20),
    x=st.floats(-50, 50), y=st.floats(-50, 50), z=st.floats(-50, 50),
)
def test_round_trip_property(px, py, pz, yaw, x, y, z):
    pose = Pose(position=np.array([px, py, pz]), yaw=yaw)
    world = np.array([x, y, z])
    back = gate_to_world(world_to_gate(world, pose), pose)
    np.testing.assert_allclose(back, world, atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(
    y=st.floats(-3, 3), z=st.floats(-3, 3), x=st.floats(-3, 3),
    dy=st.floats(-1, 1), dz=st.floats(-1, 1), dx=st.floats(-1, 1),
)
def test_lipschitz_property(x, y, z, dx, dy, dz):
    gate = GateGeometry()
    p = np.array([x, y, z])
    q = p + np.array([dx, dy, dz])
    dp = exact_distance(p, gate)
    dq = exact_distance(q, gate)
    if dp >= 0.0 and dq >= 0.0:
        assert abs(dp - dq) <= np.linalg.norm(p - q) + 1e-9


# ---------------------------------------------------------------------------
# Segment-vs-frame test
# ---------------------------------------------------------------------------

def test_segment_through_opening_misses(default_gate):
    assert not segment_hits_frame(np.array([-1.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]), default_gate)


def test_segment_through_bar_hits(default_gate):
    assert segment_hits_frame(np.array([-1.0, 0.875, 0.0]), np.array([1.0, 0.875, 0.0]), default_gate)


def test_segment_beside_gate_misses(default_gate):
    assert not segment_hits_frame(np.array([-1.0, 1.5, 0.0]), np.array([1.0, 1.5, 0.0]), default_gate)


def test_segment_endpoint_inside_hits(default_gate):
    assert segment_hits_frame(np.array([0.0, 0.875, 0.0]), np.array([0.0, 3.0, 0.0]), default_gate)


def test_segment_oracle_against_dense_walk(default_gate, rng):
    # A segment hits iff some finely spaced interior point is inside/on the solid.
    for _ in range(300):
        p0 = rng.uniform([-1.5, -1.5, -1.5], [1.5, 1.5, 1.5])
        p1 = rng.uniform([-1.5, -1.5, -1.5], [1.5, 1.5, 1.5])
        ts = np.linspace(0.0, 1.0, 400)
        walk = p0[None, :] + ts[:, None] * (p1 - p0)[None, :]
        d = exact_distance_batch(walk, default_gate)
        dense_hit = bool(np.any(d <= 1e-12))
        slab_hit = segment_hits_frame(p0, p1, default_gate)
        if dense_hit:
            assert slab_hit, f"slab test missed a hit between {p0} and {p1}"
        elif not slab_hit:
            pass  # agree on miss
        else:
            # Slab said hit but the walk missed: must be a graze shallower
            # than the walk pitch.
            assert float(np.min(d)) < 0.01, f"claimed hit but clearance is {np.min(d)}"


# ---------------------------------------------------------------------------
# Bit-exact references: the per-box distance and the four-box slab loop
# ---------------------------------------------------------------------------

def _reference_distance_batch(pts: np.ndarray, gate: GateGeometry) -> np.ndarray:
    """(N, boxes, 3) broadcast over all bar boxes at once, then min over boxes."""
    lo, hi = gate.bar_boxes()
    over = np.maximum(lo[None, :, :] - pts[:, None, :], 0.0)
    under = np.maximum(pts[:, None, :] - hi[None, :, :], 0.0)
    d = np.min(np.sqrt(np.sum((over + under) ** 2, axis=2)), axis=1)
    inside = np.any(
        np.all((lo[None, :, :] < pts[:, None, :]) & (pts[:, None, :] < hi[None, :, :]), axis=2),
        axis=1,
    )
    d[inside] = -1.0
    return d


def _reference_segment_hits(p0: np.ndarray, p1: np.ndarray, gate: GateGeometry) -> bool:
    """Slab test against each bar box in turn, on numpy scalars, no early reject."""
    d = p1 - p0
    lo, hi = gate.bar_boxes()
    for box in range(lo.shape[0]):
        tmin, tmax = 0.0, 1.0
        hit = True
        for k in range(3):
            dk = d[k]
            if dk == 0.0:
                if p0[k] < lo[box, k] or p0[k] > hi[box, k]:
                    hit = False
                    break
                continue
            t0 = (lo[box, k] - p0[k]) / dk
            t1 = (hi[box, k] - p0[k]) / dk
            if t0 > t1:
                t0, t1 = t1, t0
            tmin = max(tmin, t0)
            tmax = min(tmax, t1)
            if tmin > tmax:
                hit = False
                break
        if hit:
            return True
    return False


def _face_lattice(gate: GateGeometry) -> np.ndarray:
    """Points whose coordinates sit on, just inside and just outside every face plane."""
    hd, hi_in, ho = gate.half_depth, gate.inner_half, gate.outer_half
    planes_x = [0.0, hd, 1.5 * hd]
    planes_yz = [0.0, hi_in, 0.5 * (hi_in + ho), ho, 1.2 * ho]
    axes = []
    for planes in (planes_x, planes_yz, planes_yz):
        vals = set()
        for p in planes:
            for s in (p, -p):
                vals.update((s, np.nextafter(s, -np.inf), np.nextafter(s, np.inf)))
        axes.append(np.array(sorted(vals)))
    g = np.meshgrid(*axes, indexing="ij")
    return np.stack([c.ravel() for c in g], axis=1)


def test_distance_batch_is_bit_identical_to_reference(default_gate):
    rng = np.random.default_rng(4)
    pts = np.concatenate([
        rng.uniform(-1.5, 1.5, size=(5000, 3)),    # near the frame
        rng.uniform(-8.0, 8.0, size=(5000, 3)),    # far from it
        _face_lattice(default_gate),               # on, just inside, just outside faces
    ])
    got = exact_distance_batch(pts, default_gate)
    want = _reference_distance_batch(pts, default_gate)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert np.any(want == -1.0) and np.any(want == 0.0)
    regions = [classify_point(q, default_gate) for q in pts[::7]]
    for region, dq in zip(regions, want[::7]):
        assert (region is Region.INSIDE) == (dq == -1.0)


def test_segment_hits_frame_is_bit_identical_to_reference(default_gate):
    rng = np.random.default_rng(5)
    lattice = _face_lattice(default_gate)
    segs = []
    for _ in range(4000):  # short steps near the frame, long chords far and near
        p0 = rng.uniform(-1.5, 1.5, 3)
        segs.append((p0, p0 + rng.normal(scale=0.06, size=3)))
        segs.append((rng.uniform(-8.0, 8.0, 3), rng.uniform(-8.0, 8.0, 3)))
    for _ in range(4000):  # lattice endpoints: zero components, faces, parallel runs
        a, b = lattice[rng.integers(len(lattice), size=2)]
        segs.append((a, b))
        c = b.copy()
        c[rng.integers(3)] = a[rng.integers(3)]
        segs.append((a, c))
    hd, ho = default_gate.half_depth, default_gate.outer_half
    for s in (-1.0, 1.0):  # along the outer faces x = +/-hd and |y| = outer_half
        segs.append((np.array([s * hd, -2.0, 0.0]), np.array([s * hd, 2.0, 0.0])))
        segs.append((np.array([-1.0, s * ho, 0.3]), np.array([1.0, s * ho, 0.3])))
        segs.append((np.array([s * hd, s * ho, -2.0]), np.array([s * hd, s * ho, 2.0])))
        segs.append((np.array([-1.0, 0.0, s * ho]), np.array([1.0, 0.0, s * ho])))
        segs.append((np.array([s * hd, 0.0, 0.0]), np.array([s * hd, 0.0, 0.0])))
    hits = 0
    for p0, p1 in segs:
        got = segment_hits_frame(p0, p1, default_gate)
        with np.errstate(over="ignore"):  # subnormal steps overflow t to inf, as in the kernel
            want = _reference_segment_hits(p0, p1, default_gate)
        assert got == want, f"{p0.tolist()} -> {p1.tolist()}"
        hits += got
    assert 0.05 * len(segs) < hits < 0.95 * len(segs), "sanity: both outcomes occur"


def test_norm_helper_is_bit_identical_to_linalg_norm():
    rng = np.random.default_rng(41)
    vecs = rng.normal(size=(10_000, 6)) * rng.choice([0.0, 1e-160, 1e-3, 1.0, 1e3, 1e150], size=(10_000, 1))
    vecs[rng.random(vecs.shape) < 0.05] = -0.0
    for v in vecs:
        for part in (v[:3], v[3:], v[::2], v[::-2]):  # contiguous and strided views
            got = _norm(part)
            assert type(got) is float and np.float64(got).tobytes() == np.float64(np.linalg.norm(part)).tobytes()


def test_world_to_gate_is_bit_identical_to_matmul_reference():
    rng = np.random.default_rng(43)
    for _ in range(10_000):
        yaw = float(rng.choice([0.0, -0.0, math.pi, rng.uniform(-math.pi, math.pi)]))
        pose = Pose(position=rng.uniform(-100.0, 100.0, size=3), yaw=yaw)
        x = pose.position + rng.normal(scale=float(rng.choice([0.01, 1.0, 30.0])), size=3)
        c, s = math.cos(-pose.yaw), math.sin(-pose.yaw)
        want = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]) @ (x - pose.position)
        assert world_to_gate(x, pose).tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [[math.nan, 0.0, 0.0], [0.0, math.inf, 0.0], [0.0, 0.0, -math.inf]])
def test_non_finite_points_are_rejected(default_gate, bad):
    pose = Pose(position=np.zeros(3), yaw=0.3)
    with pytest.raises(ValueError, match="finite"):
        world_to_gate(np.array(bad), pose)
    with pytest.raises(ValueError, match="finite"):
        segment_hits_frame(np.array(bad), np.zeros(3), default_gate)
    with pytest.raises(ValueError, match="finite"):
        segment_hits_frame(np.zeros(3), np.array(bad), default_gate)
    with pytest.raises(ValueError, match="3-vector"):
        segment_hits_frame(np.zeros(2), np.zeros(3), default_gate)
