import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import declutter as dc
from conftest import dist_manhattan, line_cloud, oracle_knn_ids, random_cloud


def test_line_example_query_at_outlier():
    cloud, metric = line_cloud()
    index = dc.build_index(cloud, metric, "brute")
    got = index.k_nearest(np.array([100.0]), 2)
    assert got == [(3, 0.0), (2, 98.0)]


def test_member_is_own_first_neighbor():
    cloud, metric = random_cloud(2)
    index = dc.build_index(cloud, metric)
    for i in (0, cloud.n // 2, cloud.n - 1):
        first = index.k_nearest(cloud.coords[i], 1)[0]
        assert first == (i, 0.0)


def test_k_equals_n_returns_everything_sorted():
    cloud, metric = random_cloud(4, n_max=30)
    index = dc.build_index(cloud, metric)
    got = index.k_nearest(cloud.coords[0], cloud.n)
    assert len(got) == cloud.n
    dists = [d for _, d in got]
    assert dists == sorted(dists)
    assert sorted(i for i, _ in got) == list(range(cloud.n))


def test_k_out_of_range_errors():
    cloud, metric = random_cloud(5, n_max=20)
    index = dc.build_index(cloud, metric)
    with pytest.raises(dc.GeometryError):
        index.k_nearest(cloud.coords[0], 0)
    with pytest.raises(dc.GeometryError):
        index.k_nearest(cloud.coords[0], cloud.n + 1)


def test_build_one_point_cloud():
    cloud = dc.PointCloud.from_coords([[0.0, 0.0, 0.0]])
    index = dc.build_index(cloud, dc.Metric(), "brute")
    assert index.k_nearest(np.zeros(3), 1) == [(0, 0.0)]


def test_spatial_tree_rejects_matrix_cloud():
    m = np.array([[0.0, 1.0], [1.0, 0.0]])
    cloud = dc.PointCloud.matrix_backed(2)
    metric = dc.Metric("precomputed", matrix=m)
    with pytest.raises(dc.GeometryError):
        dc.build_index(cloud, metric, "kdtree")
    index = dc.build_index(cloud, metric)  # auto falls back to brute
    assert index.strategy == "brute"
    assert index.k_nearest(0, 2) == [(0, 0.0), (1, 1.0)]


def test_matrix_mode_rejects_external_query():
    m = np.zeros((2, 2))
    cloud = dc.PointCloud.matrix_backed(2)
    index = dc.build_index(cloud, dc.Metric("precomputed", matrix=m))
    with pytest.raises(dc.GeometryError):
        index.k_nearest(np.array([0.5]), 1)


def test_matrix_subcloud_queries_are_matrix_rows():
    line = dc.PointCloud.from_coords(np.arange(6.0))
    metric = dc.Metric("precomputed",
                       matrix=dc.cross_distances(dc.Metric(), line.coords, line.coords))
    sub, _ = dc.subset_cloud(dc.PointCloud.matrix_backed(6), metric, [5, 0, 3])
    index = dc.build_index(sub, metric)
    # row 4 is not a member; answers are member ids of the sub-cloud
    assert index.k_nearest(4, 2) == [(0, 1.0), (2, 1.0)]
    assert [b.tolist() for b in index.ball_ids_many([4, 0], [1.0, 0.0])] == [[0, 2], [1]]
    for row in (-1, 6):
        with pytest.raises(dc.GeometryError):
            index.k_nearest(row, 1)
    with pytest.raises(dc.GeometryError):  # the matrix must be n-by-n
        dc.build_index(dc.PointCloud.matrix_backed(5), metric)


def test_tie_break_by_lower_id():
    pts = np.array([[0.0], [1.0], [-1.0], [1.0]])  # ids 1 and 3 coincide
    cloud = dc.PointCloud.from_coords(pts)
    for strategy in ("brute", "kdtree"):
        index = dc.build_index(cloud, dc.Metric(), strategy)
        got = index.k_nearest(np.array([0.0]), 3)
        assert [i for i, _ in got] == [0, 1, 2]
        got = index.k_nearest(np.array([0.0]), 4)
        assert [i for i, _ in got] == [0, 1, 2, 3]


def test_oracle_equivalence_random_clouds():
    rng = np.random.default_rng(11)
    for seed in range(100):
        cloud, metric = random_cloud(seed, n_max=120, d_max=5)
        brute = dc.build_index(cloud, metric, "brute")
        tree = dc.build_index(cloud, metric, "kdtree")
        k = int(rng.integers(1, cloud.n + 1))
        if rng.random() < 0.5:
            query = cloud.coords[int(rng.integers(cloud.n))]
        else:
            query = rng.normal(size=cloud.dim)
        got_b = brute.k_nearest(query, k)
        got_t = tree.k_nearest(query, k)
        assert got_b == got_t
        ids = oracle_knn_ids(cloud.coords, query, k)
        assert [i for i, _ in got_b] == ids


def test_monotone_and_prefix_containment():
    cloud, metric = random_cloud(21, n_max=60)
    index = dc.build_index(cloud, metric)
    query = np.zeros(cloud.dim)
    prev = []
    for k in range(1, cloud.n + 1):
        got = index.k_nearest(query, k)
        dists = [d for _, d in got]
        assert dists == sorted(dists)
        assert got[: len(prev)] == prev
        prev = got


def test_manhattan_tree_matches_brute():
    cloud, _ = random_cloud(31, n_max=100)
    metric = dc.Metric("manhattan")
    brute = dc.build_index(cloud, metric, "brute")
    tree = dc.build_index(cloud, metric, "kdtree")
    rng = np.random.default_rng(31)
    for _ in range(25):
        q = rng.normal(size=cloud.dim)
        k = int(rng.integers(1, cloud.n + 1))
        got = tree.k_nearest(q, k)
        assert got == brute.k_nearest(q, k)
        top = got[0]
        assert top[1] == pytest.approx(
            min(dist_manhattan(q, p) for p in cloud.coords), abs=1e-12)


def test_ball_ids_closed_boundary():
    pts = np.array([[0.0], [1.0], [2.0], [3.0]])
    cloud = dc.PointCloud.from_coords(pts)
    for strategy in ("brute", "kdtree"):
        index = dc.build_index(cloud, dc.Metric(), strategy)
        ids = index.ball_ids(np.array([0.0]), 2.0)
        assert ids.tolist() == [0, 1, 2]  # boundary point included
        assert index.ball_ids(np.array([0.0]), 0.0).tolist() == [0]


def test_ball_ids_many_matches_single():
    cloud, metric = random_cloud(41, n_max=80)
    rng = np.random.default_rng(5)
    queries = rng.normal(size=(10, cloud.dim))
    radii = rng.uniform(0.1, 2.0, size=10)
    for strategy in ("brute", "kdtree"):
        index = dc.build_index(cloud, metric, strategy)
        many = index.ball_ids_many(queries, radii)
        for q, r, ids in zip(queries, radii, many):
            assert ids.tolist() == index.ball_ids(q, r).tolist()


def test_knn_distance_rows_match_k_nearest():
    cloud, metric = random_cloud(51, n_max=70)
    index = dc.build_index(cloud, metric, "brute")
    rows = index.knn_distance_rows(cloud.coords, 5)
    for i in range(cloud.n):
        expect = [d for _, d in index.k_nearest(cloud.coords[i], 5)]
        assert rows[i].tolist() == expect


@pytest.mark.parametrize("k", [2.0, 2.5, True, np.bool_(True)])
def test_non_integer_k_errors(k):
    cloud, metric = random_cloud(5, n_max=20)
    index = dc.build_index(cloud, metric)
    with pytest.raises(dc.GeometryError):
        index.k_nearest(cloud.coords[0], k)
    with pytest.raises(dc.GeometryError):
        index.knn_distance_rows(cloud.coords[:3], k)


def test_member_rows_leave_the_distance_matrix_untouched():
    # knn_distance_rows partitions each block in place; on a matrix-backed
    # cloud that block must be a copy, not a view of the metric's matrix
    pts = np.random.default_rng(52).normal(size=(400, 2))
    matrix = dc.cross_distances(dc.Metric(), pts, pts)
    metric = dc.Metric("precomputed", matrix=matrix.copy())
    index = dc.build_index(dc.PointCloud.matrix_backed(400), metric)
    rows = index.member_rows(150)
    assert np.array_equal(metric.matrix, matrix)
    assert rows.tolist() == np.sort(matrix, axis=1)[:, :150].tolist()


def test_member_rows_concurrent_readers():
    # threads released together fill one fresh index's table at different k;
    # each reader must get its own k, whichever table was stored last
    cloud, metric = random_cloud(19, n_max=120)
    expect = np.sort(dc.cross_distances(metric, cloud.coords, cloud.coords), axis=1)
    ks = np.linspace(1, cloud.n, 8).astype(int)
    gate = threading.Barrier(ks.size)

    def read(index, k):
        gate.wait(timeout=30)
        assert index.member_rows(int(k)).tolist() == expect[:, :k].tolist()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=ks.size) as pool:
            for _ in range(40):
                index = dc.build_index(cloud, metric)
                futures = [pool.submit(read, index, k) for k in ks]
                for f in futures:
                    f.result(timeout=60)
    finally:
        sys.setswitchinterval(old)
