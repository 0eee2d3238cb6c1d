import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

import declutter as dc
from declutter.neighbors import NeighborIndex


def test_circle_grid_four_points():
    shape = dc.Circle((0.0, 0.0), 1.0)
    kref, sample = dc.sample_shape(shape, 4, seed=None)
    angles = np.mod(np.arctan2(sample[:, 1], sample[:, 0]), 2 * math.pi)
    assert angles == pytest.approx([0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
                                   abs=1e-9)
    assert kref.cloud.n >= 40


def test_polyline_two_vertices_three_points():
    shape = dc.Polyline(np.array([[0.0, 0.0], [2.0, 0.0]]))
    _, sample = dc.sample_shape(shape, 3, seed=None)
    assert sample == pytest.approx(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]))


def test_invalid_shapes():
    with pytest.raises(dc.GeometryError):
        dc.Circle((0.0, 0.0), -1.0)
    with pytest.raises(dc.GeometryError):
        dc.Polyline(np.array([[0.0, 0.0]]))
    with pytest.raises(dc.GeometryError):
        dc.TwoScaleLoops(1.0, 2.0, 8)  # loop radius must stay below the ring


def test_on_shape_within_tolerance():
    shapes = [dc.Circle((0.3, -0.2), 1.7),
              dc.Polyline(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])),
              dc.TwoScaleLoops(2.0, 0.25, 6),
              dc.torus_grid(2.0, 0.5)]
    for shape in shapes:
        _, sample = dc.sample_shape(shape, 60, seed=11)
        assert np.all(shape.point_distance(sample) <= 1e-9)


def test_reference_density_pitch():
    shape = dc.Circle((0.0, 0.0), 1.0)
    kref, sample = dc.sample_shape(shape, 50, seed=None)
    assert kref.cloud.n >= 10 * 50
    # every on-shape point has a reference point within the grid pitch
    pitch = shape.length / kref.cloud.n
    d = dc.cross_distances(dc.Metric(), sample, kref.points).min(axis=1)
    assert np.all(d <= pitch)


def test_seed_determinism_and_distinctness():
    shape = dc.Circle((0.0, 0.0), 1.0)
    _, a = dc.sample_shape(shape, 40, seed=5)
    _, b = dc.sample_shape(shape, 40, seed=5)
    _, c = dc.sample_shape(shape, 40, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_two_scale_loops_k2_vs_k10_qualitative():
    shape = dc.TwoScaleLoops(2.0, 0.25, 8)
    _, sample = dc.sample_shape(shape, 240, seed=None)
    cloud = dc.PointCloud.from_coords(
        dc.perturb_gaussian(sample, 0.005, 1))
    metric = dc.Metric()
    small = dc.declutter(cloud, metric, 2)
    big = dc.declutter(cloud, metric, 10)
    assert big.kept.size < small.kept.size  # coarser scale keeps fewer points


def test_perturb_gaussian_zero_and_determinism():
    pts = np.random.default_rng(2).normal(size=(30, 2))
    assert np.array_equal(dc.perturb_gaussian(pts, 0.0, 9), pts)
    a = dc.perturb_gaussian(pts, 0.05, 9)
    b = dc.perturb_gaussian(pts, 0.05, 9)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, pts)


def test_perturb_gaussian_adaptive_scales():
    pts = np.zeros((3, 2))
    scales = np.array([0.0, 1.0, 10.0])
    out = dc.perturb_gaussian(pts, 0.1, 3, scales=scales)
    assert np.array_equal(out[0], pts[0])  # zero scale leaves the point alone
    assert np.linalg.norm(out[2]) > 0


def test_add_ambient_noise_basic():
    pts = np.zeros((10, 2))
    out, tags = dc.add_ambient_noise(pts, (np.array([-1.0, -1.0]),
                                           np.array([1.0, 1.0])), 0, 4)
    assert np.array_equal(out, pts) and not tags.any()
    out, tags = dc.add_ambient_noise(pts, (np.array([-1.0, -1.0]),
                                           np.array([1.0, 1.0])), 25, 4)
    assert out.shape[0] == 35 and tags.sum() == 25
    assert np.all(out[tags] >= -1.0) and np.all(out[tags] <= 1.0)


def test_add_ambient_noise_degenerate_box():
    with pytest.raises(dc.GeometryError):
        dc.add_ambient_noise(np.zeros((3, 2)),
                             (np.zeros(2), np.zeros(2)), 5, 0)


def test_add_ambient_noise_clearance():
    ref = np.zeros((1, 2))
    pts = np.zeros((1, 2))
    out, tags = dc.add_ambient_noise(pts, (np.full(2, -4.0), np.full(2, 4.0)),
                                     200, 7, min_clearance=2.0,
                                     clearance_points=ref)
    d = np.linalg.norm(out[tags], axis=1)
    assert np.all(d >= 2.0)
    with pytest.raises(dc.GeometryError):
        dc.add_ambient_noise(pts, (np.full(2, -1.0), np.full(2, 1.0)), 10, 7,
                             min_clearance=5.0, clearance_points=ref)


@pytest.mark.parametrize("clearance, clear_of", [
    (5.0, None),
    (float("nan"), np.zeros((1, 2))),
    (float("nan"), None),
    (-1.0, np.zeros((1, 2))),
])
def test_add_ambient_noise_refuses_an_unusable_clearance(clearance, clear_of):
    # each used to be ignored: 5.0 with no points to keep clear of returned an
    # ambient point 0.107 from the origin
    for m in (0, 10):
        with pytest.raises(dc.GeometryError, match="clearance"):
            dc.add_ambient_noise(np.zeros((1, 2)), (np.full(2, -1.0), np.full(2, 1.0)),
                                 m, 7, min_clearance=clearance,
                                 clearance_points=clear_of)


def test_clearance_sampler_equals_plain_rejection_sampling():
    # the fig2 recipe at reduced size: every ambient point is far from a
    # dense reference, where the tree's nearest answers hold most ties
    t = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    x = np.sign(np.cos(t)) * np.abs(np.cos(t)) ** 0.5
    y = np.sign(np.sin(t)) * np.abs(np.sin(t)) ** 0.5
    kref, sample = dc.sample_shape(dc.Polyline(np.column_stack([x, y]), closed=True),
                                   500, seed=None)
    noisy = dc.perturb_gaussian(sample, 0.01, 3)
    lo, hi = noisy.min(axis=0) - 7.0, noisy.max(axis=0) + 7.0
    got, tags = dc.add_ambient_noise(noisy, (lo, hi), 200, 4, min_clearance=5.0,
                                     clearance_points=kref.points)
    rng = np.random.default_rng(4)
    accepted, total = [], 0
    while total < 200:
        draw = rng.uniform(lo, hi, size=(max(200, 4 * (200 - total)), 2))
        draw = draw[cdist(draw, kref.points).min(axis=1) >= 5.0]
        accepted.append(draw)
        total += draw.shape[0]
    want = np.vstack([noisy, *accepted])[:700]
    assert got.tobytes() == want.tobytes()
    assert tags.tolist() == [False] * 500 + [True] * 200


def test_clearance_sampler_takes_a_second_draw_as_plain_rejection_sampling_does(
        monkeypatch):
    # about a fifth of the box is clear of the circle, so the first draw of
    # 4m points falls short of m and the second is tested in chunks too,
    # up to the m-th accepted point only
    kref, sample = dc.sample_shape(dc.Circle((0.0, 0.0), 1.0), 300, seed=None)
    lo, hi = np.full(2, -1.5), np.full(2, 1.5)
    m, seed = 150, 11
    tested = []
    real = NeighborIndex._clear_of
    monkeypatch.setattr(NeighborIndex, "_clear_of", lambda self, q, r: (
        tested.append(len(q)), real(self, q, r))[1])
    got, tags = dc.add_ambient_noise(sample, (lo, hi), m, seed, min_clearance=0.6,
                                     clearance_points=kref.points)
    rng = np.random.default_rng(seed)
    accepted, total, drawn = [], 0, []
    while total < m:
        draw = rng.uniform(lo, hi, size=(max(m, 4 * (m - total)), 2))
        drawn.append(draw.shape[0])
        draw = draw[cdist(draw, kref.points).min(axis=1) >= 0.6]
        accepted.append(draw)
        total += draw.shape[0]
    assert len(drawn) >= 2 and drawn[0] <= sum(tested) < sum(drawn)
    want = np.vstack([sample, *accepted])[:300 + m]
    assert got.tobytes() == want.tobytes()
    assert tags.tolist() == [False] * 300 + [True] * m


def test_adaptive_sampling_density_tracks_feature():
    shape = dc.Circle((0.0, 0.0), 1.0)
    f = dc.feature_from_anchor([1.0, 0.0], 0.1)
    kref, sample = dc.sample_shape(shape, 200, mode="adaptive", feature_fn=f)
    assert kref.has_feature_sizes
    # positive (checked by GroundTruthRef) and 1-Lipschitz over every pair
    f_ref, pts = kref.feature_sizes, kref.points
    gap = np.abs(f_ref[:, None] - f_ref[None, :])
    assert np.all(gap <= dc.cross_distances(dc.Metric(), pts, pts) + 1e-9)
    # spacing grows with f: points near the anchor are denser
    near = np.linalg.norm(sample - np.array([1.0, 0.0]), axis=1) < 0.5
    far = np.linalg.norm(sample - np.array([-1.0, 0.0]), axis=1) < 0.5
    assert near.sum() > 2 * far.sum()


def test_adaptive_mode_needs_feature_fn():
    with pytest.raises(dc.GeometryError):
        dc.sample_shape(dc.Circle((0.0, 0.0), 1.0), 10, mode="adaptive")


def test_surface_grid_sampling():
    shape = dc.torus_grid(2.0, 0.5, nu=40, nv=20)
    kref, sample = dc.sample_shape(shape, 64, seed=3)
    assert sample.shape == (64, 3)
    assert kref.points.shape[1] == 3
    with pytest.raises(dc.GeometryError):
        shape.sample(40 * 20 + 1, seed=3)
