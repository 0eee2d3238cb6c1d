import numpy as np
import pytest

import declutter as dc
from conftest import dist_euclidean, dist_manhattan, random_cloud


def test_distance_l2_345():
    assert dc.distance(dc.Metric(), [0.0, 0.0], [3.0, 4.0]) == 5.0


def test_distance_l1_sum():
    assert dc.distance(dc.Metric("manhattan"), [0.0, 0.0], [3.0, 4.0]) == 7.0


def test_distance_matrix_lookup():
    m = np.zeros((3, 3))
    m[1, 2] = m[2, 1] = 0.5
    m[0, 1] = m[1, 0] = 1.0
    m[0, 2] = m[2, 0] = 1.0
    metric = dc.Metric("precomputed", matrix=m)
    assert dc.distance(metric, 1, 2) == 0.5


def test_distance_dimension_mismatch():
    with pytest.raises(dc.GeometryError):
        dc.distance(dc.Metric(), [0.0], [1.0, 2.0])


def test_distance_matrix_index_out_of_range():
    m = np.zeros((2, 2))
    metric = dc.Metric("precomputed", matrix=m)
    with pytest.raises(dc.GeometryError):
        dc.distance(metric, 0, 5)


def test_metric_matrix_validation():
    with pytest.raises(dc.GeometryError):
        dc.Metric("precomputed", matrix=np.ones((2, 3)))
    bad_diag = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(dc.GeometryError):
        dc.Metric("precomputed", matrix=bad_diag)
    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(dc.GeometryError):
        dc.Metric("precomputed", matrix=asym)


def test_cloud_validation():
    with pytest.raises(dc.GeometryError):
        dc.PointCloud.from_coords(np.array([[np.nan, 0.0]]))
    with pytest.raises(dc.GeometryError):
        dc.PointCloud.from_coords(np.empty((0, 2)))
    cloud = dc.PointCloud.from_coords([[1.0, 2.0]])
    assert cloud.n == 1 and cloud.dim == 2


def test_symmetry_and_identity_random_pairs():
    cloud, _ = random_cloud(0, n_max=80)
    rng = np.random.default_rng(1)
    for kind in ("euclidean", "manhattan"):
        metric = dc.Metric(kind)
        for _ in range(1000):
            i, j = rng.integers(0, cloud.n, size=2)
            a, b = cloud.coords[i], cloud.coords[j]
            assert dc.distance(metric, a, b) == dc.distance(metric, b, a)
        assert dc.distance(metric, cloud.coords[0], cloud.coords[0]) == 0.0


def test_cross_distances_match_oracle():
    cloud, _ = random_cloud(3, n_max=40)
    block = dc.cross_distances(dc.Metric(), cloud.coords[:5], cloud.coords)
    for i in range(5):
        for j in range(cloud.n):
            assert block[i, j] == pytest.approx(
                dist_euclidean(cloud.coords[i], cloud.coords[j]), abs=1e-12)
    block1 = dc.cross_distances(dc.Metric("manhattan"), cloud.coords[:3], cloud.coords)
    for i in range(3):
        for j in range(cloud.n):
            assert block1[i, j] == pytest.approx(
                dist_manhattan(cloud.coords[i], cloud.coords[j]), abs=1e-12)


def test_triangle_constant_exact_metrics():
    for kind in ("euclidean", "manhattan"):
        cloud, _ = random_cloud(7, n_max=60)
        est = dc.estimate_triangle_constant(cloud, dc.Metric(kind), 5000, 0)
        assert est == pytest.approx(1.0, abs=1e-12)


def test_triangle_constant_relaxed_matrix():
    m = np.zeros((3, 3))
    m[0, 2] = m[2, 0] = 10.0
    m[0, 1] = m[1, 0] = 1.0
    m[1, 2] = m[2, 1] = 1.0
    metric = dc.Metric("precomputed", matrix=m)
    cloud = dc.PointCloud.matrix_backed(3)
    est = dc.estimate_triangle_constant(cloud, metric, 1000, 0)
    assert est >= 5.0  # 10 / (1 + 1), hit by exhaustive triple enumeration
    assert est == pytest.approx(5.0)


def test_triangle_constant_degenerate():
    m = np.zeros((3, 3))
    metric = dc.Metric("precomputed", matrix=m)
    cloud = dc.PointCloud.matrix_backed(3)
    with pytest.raises(dc.GeometryError):
        dc.estimate_triangle_constant(cloud, metric, 100, 0)


def test_ground_truth_feature_validation():
    cloud = dc.PointCloud.from_coords(np.zeros((3, 2)))
    with pytest.raises(dc.GeometryError):
        dc.GroundTruthRef(cloud, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(dc.GeometryError):
        dc.GroundTruthRef(cloud, np.array([1.0, 2.0]))
    ref = dc.GroundTruthRef(cloud, np.array([1.0, 2.0, 3.0]))
    assert ref.has_feature_sizes


def test_point_file_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    pts = rng.normal(size=(50, 3))
    path = tmp_path / "points.csv"
    dc.save_points(path, pts)
    back = dc.load_points(path)
    assert np.array_equal(back, pts)


def test_point_file_whitespace_and_comments(tmp_path):
    path = tmp_path / "points.txt"
    path.write_text("# header\n0 0\n3 4\n")
    pts = dc.load_points(path)
    assert pts.shape == (2, 2)


def test_loader_rejects_nan(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("0,0\nnan,1\n")
    with pytest.raises(dc.GeometryError):
        dc.load_points(path)


def test_matrix_loader_rejects_non_square(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0,1,2\n1,0,1\n")
    with pytest.raises(dc.GeometryError):
        dc.load_matrix(path)


def test_subset_cloud_matrix_mode():
    m = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    metric = dc.Metric("precomputed", matrix=m)
    cloud = dc.PointCloud.matrix_backed(3)
    sub, sub_metric = dc.subset_cloud(cloud, metric, [0, 2])
    assert sub.n == 2
    assert dc.distance(sub_metric, 0, 1) == 2.0


@pytest.mark.parametrize("ids", [[-1], [0, 4], [9], [1.5], [True]])
def test_subset_cloud_rejects_invalid_ids(ids):
    coords = dc.PointCloud.from_coords(np.arange(8.0).reshape(4, 2))
    m = dc.cross_distances(dc.Metric(), coords.coords, coords.coords)
    metric = dc.Metric("precomputed", matrix=m)
    with pytest.raises(dc.GeometryError):
        dc.subset_cloud(coords, dc.Metric(), ids)
    with pytest.raises(dc.GeometryError):
        dc.subset_cloud(dc.PointCloud.matrix_backed(4), metric, ids)
    with pytest.raises(dc.GeometryError):
        metric.subset(ids)


def test_subset_metric_equals_validated_slice():
    cloud, _ = random_cloud(8, n_max=40)
    m = dc.cross_distances(dc.Metric("manhattan"), cloud.coords, cloud.coords)
    metric = dc.Metric("precomputed", relaxation=1.5, matrix=m)
    ids = np.array([3, 0, 0, cloud.n - 1, 2])  # unsorted, with a repeat
    sub, sub_metric = dc.subset_cloud(dc.PointCloud.matrix_backed(cloud.n),
                                      metric, ids)
    validated = dc.Metric("precomputed", relaxation=1.5, matrix=m[np.ix_(ids, ids)])
    assert sub.n == ids.size
    assert (sub_metric.kind, sub_metric.relaxation) == (validated.kind,
                                                        validated.relaxation)
    assert sub_metric.matrix.dtype == validated.matrix.dtype
    assert sub_metric.matrix.tobytes() == validated.matrix.tobytes()
    assert metric.matrix.tobytes() == m.tobytes()  # the source is not touched
