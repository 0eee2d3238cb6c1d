from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

import declutter as dc
from declutter import geometry, neighbors
from declutter.neighbors import NeighborIndex, nearest_cross
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


def test_matrix_ids_of_any_shape_are_read_flat():
    # [[0, 1, 5]] asks the same three queries as [0, 1, 5] on every path
    pts = np.random.default_rng(8).normal(size=(7, 2))
    metric = dc.Metric("precomputed",
                       matrix=dc.cross_distances(dc.Metric(), pts, pts))
    index = dc.build_index(dc.PointCloud.matrix_backed(7), metric)
    flat = np.array([0, 1, 5])
    calls = (lambda q: nearest_cross(metric, q, [[2, 4], [6, 1]]),
             lambda q: index._nearest_rows(q, 3),
             lambda q: (dc.values_at(index, q, 3),),
             lambda q: (index.knn_distance_rows(q, 3),))
    for call in calls:
        want = call(flat)
        assert want[0].shape[0] == 3
        for got, w in zip(call(flat[None, :]), want):
            assert got.tobytes() == w.tobytes()


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


def test_ball_radii_must_be_non_negative_numbers():
    cloud, metric = random_cloud(41, n_max=80)
    for strategy in ("brute", "kdtree"):
        index = dc.build_index(cloud, metric, strategy)
        for radius in (np.nan, -1.0):  # NaN used to give an empty ball
            with pytest.raises(dc.GeometryError, match="non-negative"):
                index.ball_ids_many(cloud.coords[:2], [1.0, radius])
            with pytest.raises(dc.GeometryError, match="non-negative"):
                index.ball_ids(cloud.coords[0], radius)


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


def test_knn_rows_leave_the_distance_matrix_untouched():
    # knn_distance_rows sorts each block in place; on a matrix-backed
    # cloud that block must be a copy, not a view of the metric's matrix
    pts = np.random.default_rng(52).normal(size=(400, 2))
    matrix = dc.cross_distances(dc.Metric(), pts, pts)
    metric = dc.Metric("precomputed", matrix=matrix.copy())
    cloud = dc.PointCloud.matrix_backed(400)
    index = dc.build_index(cloud, metric)
    for k in (150, 300):  # a partition and a whole-row sort
        rows = index.knn_distance_rows(cloud.points, k)
        assert np.array_equal(metric.matrix, matrix)
        assert rows.tolist() == np.sort(matrix, axis=1)[:, :k].tolist()
        dc.values_at_scales(index, cloud.points, [k, 7], dc.RMS_K, threads=2)
        assert np.array_equal(metric.matrix, matrix)


# -- the tree candidate path ----------------------------------------------------
# The 2-D and 3-D clouds below are large enough that the crossover rule picks
# the tree at the k used; the 9-D ones are not (the rule needs n >= k * 2**13
# there), so their tree path is called directly.

def _grid(side, dim):
    axes = np.meshgrid(*[np.arange(side, dtype=float)] * dim)
    return np.stack(axes, -1).reshape(-1, dim)


def _tree_cases():
    rng = np.random.default_rng(61)
    clusters = np.repeat(rng.normal(size=(120, 3)), 11, axis=0)  # coincident points
    clusters = clusters[rng.permutation(clusters.shape[0])]
    gauss = rng.normal(size=(900, 9))
    # one vector under 300 coordinate permutations: equally far from the
    # origin, but summing in a different order rounds differently
    v = rng.uniform(0.5, 2.0, size=9)
    permuted = np.vstack([v[rng.permutation(9)] for _ in range(300)]
                         + [rng.normal(size=(100, 9)) + 20.0])
    huge = rng.normal(size=(600, 2))
    huge *= 2.5e159 / np.abs(huge).max()  # the distances overflow float64
    # a dense closed curve (a square's outline at spacing 1/64) and sparse
    # points far outside it. A far point's nearest curve points are nearly
    # equally far, and exactly so at a half-spacing offset (the first four)
    side = np.arange(-128, 128) / 64.0
    edge = np.full(256, 2.0)
    square = np.vstack([np.column_stack(c) for c in
                        ((side, -edge), (edge, side), (-side, edge), (-edge, -side))])
    half = 1.0 / 128
    angle = rng.uniform(0.0, 2 * np.pi, size=60)
    outliers = np.vstack([[[half, -5.0], [5.0, half], [-half, 5.0], [-5.0, -half]],
                          rng.uniform(5.0, 8.0, size=(60, 1))
                          * np.column_stack([np.cos(angle), np.sin(angle)])])
    return {
        "grid-euclidean-k3": (_grid(24, 2), "euclidean", 3),
        "grid-manhattan-k3": (_grid(24, 2), "manhattan", 3),
        "lattice3-manhattan-k6": (_grid(10, 3), "manhattan", 6),
        "clusters-euclidean-k5": (clusters, "euclidean", 5),
        "clusters-manhattan-k10": (clusters, "manhattan", 10),
        "gauss9-euclidean-k14": (gauss, "euclidean", 14),
        "gauss9-manhattan-k1": (gauss, "manhattan", 1),
        "overflow-euclidean-k4": (huge, "euclidean", 4),
        "permuted-euclidean-k5": (permuted, "euclidean", 5),
        "permuted-manhattan-k5": (permuted, "manhattan", 5),
        "outliers-euclidean-k2": (np.vstack([square, outliers]), "euclidean", 2),
    }


def _tree_queries(pts):
    # members, half-integer offsets (equidistant from several grid points)
    # and fresh points
    rng = np.random.default_rng(62)
    return np.vstack([pts, pts[::7] + 0.5, np.zeros(pts.shape[1]),
                      rng.normal(size=(40, pts.shape[1])) * np.abs(pts).max()])


@pytest.mark.parametrize("case", sorted(_tree_cases()))
def test_tree_rows_equal_dense_rows(case, monkeypatch):
    pts, kind, k = _tree_cases()[case]
    cloud, metric = dc.PointCloud.from_coords(pts), dc.Metric(kind)
    brute = dc.build_index(cloud, metric, "brute")
    tree = dc.build_index(cloud, metric, "kdtree")
    assert tree._tree_serves(k) == (cloud.dim <= 3)
    q = _tree_queries(pts)
    ball_rows = []
    real = NeighborIndex._ball_rows
    monkeypatch.setattr(NeighborIndex, "_ball_rows", lambda self, qq, *rest: (
        ball_rows.append(qq.shape[0]), real(self, qq, *rest))[1])
    want_rows = brute.knn_distance_rows(q, k)
    want_d, want_ids = brute._nearest_rows(q, k)
    assert want_d.tobytes() == want_rows.tobytes()
    for threads in (1, 2):
        assert tree.knn_distance_rows(q, k, threads).tobytes() == want_rows.tobytes()
        for got_d, got_ids in (tree._nearest_rows(q, k, threads),
                               tree._tree_rows(q, k, threads)):
            assert got_d.tobytes() == want_d.tobytes()
            assert np.array_equal(got_ids, want_ids)
    for i in range(0, q.shape[0], 29):
        assert tree.k_nearest(q[i], k) == brute.k_nearest(q[i], k)
    # ties at the k-th distance send rows to the ball fallback
    tie_heavy = case.startswith(("grid", "lattice", "clusters", "permuted", "outliers"))
    assert (sum(ball_rows) > 0) == tie_heavy


# every layout of the benchmark's grid (BENCH_tree_layout.json), scipy's
# default (leafsize 16, compact and balanced) among them, and leafsize 1
_LAYOUTS = [{"leafsize": leaf, "compact_nodes": compact, "balanced_tree": balanced}
            for leaf in (1, 8, 16, 32, 64) for compact in (True, False)
            for balanced in (True, False)]


@pytest.mark.parametrize("case", sorted(_tree_cases()))
def test_answers_do_not_depend_on_the_tree_layout(case):
    # the tree only proposes candidates: canonical distances, the slack tie
    # test and the closed-ball fallback decide every row, id and mask
    pts, kind, k = _tree_cases()[case]
    cloud, metric = dc.PointCloud.from_coords(pts), dc.Metric(kind)
    brute = dc.build_index(cloud, metric, "brute")
    q = _tree_queries(pts)
    want_d, want_ids = brute._nearest_rows(q, k)
    want_rows = brute.knn_distance_rows(q, k)
    # each query's k-th distance puts members on the closed boundaries
    want_mask = brute._captured(q, want_d[:, -1])
    index = dc.build_index(cloud, metric, "kdtree")
    for layout in _LAYOUTS:
        index._tree = cKDTree(pts, **layout)
        got_d, got_ids = index._nearest_rows(q, k)
        assert got_d.tobytes() == want_d.tobytes(), layout
        assert np.array_equal(got_ids, want_ids), layout
        assert index.knn_distance_rows(q, k).tobytes() == want_rows.tobytes(), layout
        assert np.array_equal(index._captured(q, want_d[:, -1]), want_mask), layout


def test_tree_rows_recheck_rounding_near_ties():
    # coordinate permutations of one vector are equally far from the origin,
    # but the tree sums squares in another order than the canonical kernel:
    # the tree's nearest group is not the canonical one, and only the slack
    # around the k-th tree distance sends the row to the exact fallback
    rng = np.random.default_rng(6)
    v = rng.uniform(0.5, 2.0, size=12)
    pts = np.vstack([v[rng.permutation(12)] for _ in range(40)]
                    + [rng.normal(size=(60, 12)) + 20.0])
    origin = np.zeros((1, 12))
    tree = dc.build_index(dc.PointCloud.from_coords(pts), dc.Metric(), "kdtree")
    tree_d = tree._tree.query(origin[0], k=pts.shape[0])[0]
    k = int((tree_d == tree_d[0]).sum())
    canonical = dc.cross_distances(dc.Metric(), origin, pts)[0]
    want = np.lexsort((np.arange(pts.shape[0]), canonical))[:k]
    assert set(want) != set(tree._tree.query(origin, k=k)[1].reshape(-1))
    dist, ids = tree._tree_rows(origin, k, 1)
    assert ids[0].tolist() == want.tolist()
    assert dist[0].tobytes() == canonical[want].tobytes()


@pytest.mark.parametrize("case", ["grid-manhattan-k3", "clusters-euclidean-k5",
                                  "gauss9-euclidean-k14"])
def test_tree_rows_at_k_equal_n(case):
    # with k = n no (k+1)-th neighbour exists and every row is taken as is
    pts, kind, _ = _tree_cases()[case]
    pts = pts[:70]
    cloud, metric = dc.PointCloud.from_coords(pts), dc.Metric(kind)
    q = _tree_queries(pts)
    want = dc.build_index(cloud, metric, "brute")._nearest_rows(q, cloud.n)
    got = dc.build_index(cloud, metric, "kdtree")._tree_rows(q, cloud.n, 1)
    assert got[0].tobytes() == want[0].tobytes()
    assert np.array_equal(got[1], want[1])


@pytest.mark.parametrize("case", sorted(c for c, (pts, _, _) in _tree_cases().items()
                                         if pts.shape[1] <= 3))
def test_nearest_cross_on_the_tree_equals_dense(case):
    targets, kind, _ = _tree_cases()[case]
    metric = dc.Metric(kind)
    assert dc.build_index(dc.PointCloud.from_coords(targets), metric)._tree_serves(1)
    q = _tree_queries(targets)
    block = dc.cross_distances(metric, q, targets)
    inputs = [(metric, q, targets)]
    # the same points as rows of a distance matrix, where one exists
    both = np.vstack([q, targets])
    matrix = dc.cross_distances(metric, both, both)
    if np.all(np.isfinite(matrix)):
        ids = np.arange(both.shape[0])
        inputs.append((dc.Metric("precomputed", matrix=matrix),
                       ids[:q.shape[0]], ids[q.shape[0]:]))
    for threads in (1, 2):
        for m, queries, to in inputs:
            dist, idx = nearest_cross(m, queries, to, threads=threads)
            assert np.array_equal(idx, block.argmin(axis=1))  # ties -> lowest id
            assert dist.tobytes() == block.min(axis=1).tobytes()
    for m, queries, to in inputs:
        got = dc.directed_hausdorff(queries, to, m, threads=2)
        assert got == block.min(axis=1).max()


@pytest.mark.parametrize("case", ["grid-euclidean-k3", "grid-manhattan-k3",
                                  "clusters-manhattan-k10"])
def test_ball_ids_many_on_the_tree_equal_dense(case):
    pts, kind, _ = _tree_cases()[case]
    cloud, metric = dc.PointCloud.from_coords(pts), dc.Metric(kind)
    q = _tree_queries(pts)
    # integer radii put grid points exactly on the closed boundary
    radii = np.random.default_rng(63).integers(0, 4, size=q.shape[0]).astype(float)
    want = dc.build_index(cloud, metric, "brute").ball_ids_many(q, radii)
    got = dc.build_index(cloud, metric, "kdtree").ball_ids_many(q, radii)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tolist() == w.tolist()
    assert dc.build_index(cloud, metric, "kdtree").ball_ids_many(q[:0], radii[:0]) == []


@pytest.mark.parametrize("case", ["grid-manhattan-k3", "clusters-euclidean-k5"])
def test_ball_ids_many_on_the_tree_in_row_blocks(case, monkeypatch):
    # the tree's ball queries run in row blocks sized for balls that hold the
    # whole cloud, and blocking changes no result
    pts, kind, _ = _tree_cases()[case]
    cloud, metric = dc.PointCloud.from_coords(pts), dc.Metric(kind)
    tree = dc.build_index(cloud, metric, "kdtree")
    q = _tree_queries(pts)
    radii = np.random.default_rng(64).integers(0, 4, size=q.shape[0]).astype(float)
    want = tree.ball_ids_many(q, radii)
    monkeypatch.setattr(geometry, "_CHUNK_CELLS", 5 * tree._ball_cells())
    blocks = []
    real = NeighborIndex._ball_candidates
    monkeypatch.setattr(NeighborIndex, "_ball_candidates", lambda self, qq, *rest: (
        blocks.append(qq.shape[0]), real(self, qq, *rest))[1])
    got = tree.ball_ids_many(q, radii)
    assert max(blocks) == 5 and len(blocks) == -(-q.shape[0] // 5)
    assert [g.tolist() for g in got] == [w.tolist() for w in want]


@pytest.mark.parametrize("dim, n, k_max", [(1, 1000, 31), (2, 1000, 15),
                                           (3, 1000, 7), (9, 50000, 6)])
def test_tree_crossover_halves_per_dimension(dim, n, k_max):
    # the tree answers while k * 2**(d + 4) <= n: the largest k it serves is
    # a fraction of n that halves with each dimension
    cloud = dc.PointCloud.from_coords(np.zeros((n, dim)))
    tree = dc.build_index(cloud, dc.Metric(), "kdtree")
    assert tree._tree_serves(k_max) and not tree._tree_serves(k_max + 1)
    assert not dc.build_index(cloud, dc.Metric(), "brute")._tree_serves(1)


# -- the clearance predicate ----------------------------------------------------

@settings(max_examples=80, deadline=None)
@given(dim=st.sampled_from([1, 2, 3, 9]), kind=st.sampled_from(["euclidean", "manhattan"]),
       exponent=st.sampled_from([-540, -500, 0, 500]), huge=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_clear_of_equals_the_canonical_nearest_distance(dim, kind, exponent, huge, seed):
    # True exactly where cdist's nearest distance is at least the radius, on
    # radii that equal attained distances and their neighbouring floats, with
    # duplicated members, scaled coordinates and distances that overflow. In
    # 9-D the tree sums squares in another order than cdist, so its nearest
    # distance can sit an ulp off the canonical one
    rng = np.random.default_rng(seed)
    grid = np.round(rng.normal(size=(40, dim)) * 8) / 8  # exact ties
    pts = np.vstack([grid, grid[:10], rng.normal(size=(30, dim))]) * 2.0 ** exponent
    q = np.vstack([pts[::7], rng.normal(size=(40, dim)) * 3,
                   (np.round(rng.normal(size=(20, dim)) * 8) + 0.5) / 8]) * 2.0 ** exponent
    if huge:  # members and queries far apart enough that distances overflow
        pts[-3:] = -1.7e308
        q = np.vstack([q, np.full((3, dim), 1.7e308), np.full((2, dim), -1.7e308)])
    block = cdist(q, pts, "cityblock" if kind == "manhattan" else "euclidean")
    nearest = block.min(axis=1)
    attained = np.concatenate([rng.choice(nearest, size=6), rng.choice(block.ravel(), size=3)])
    radii = np.concatenate([attained, np.nextafter(attained, np.inf),
                            np.nextafter(attained, 0.0), [0.0, 2.0 ** exponent]])
    cloud, metric = dc.PointCloud.from_coords(pts), dc.Metric(kind)
    brute = dc.build_index(cloud, metric, "brute")
    tree = dc.build_index(cloud, metric, "kdtree")
    with mock.patch.object(neighbors, "_TREE_SHIFT", -10):  # the tree answers
        assert tree._tree_serves(1)
        for r in radii:
            want = nearest >= r
            assert np.array_equal(brute._clear_of(q, r), want), r
            assert np.array_equal(tree._clear_of(q, r), want), r


# -- resampling's captured mask -------------------------------------------------

def _captured_every_way(index, q, radii):
    """The kd-tree index's mask with the nearest-centre phase forced on, at
    the load rule, and off."""
    masks = []
    for load in (0, neighbors._CAPTURE_LOAD, np.inf):
        with mock.patch.object(neighbors, "_CAPTURE_LOAD", load):
            masks.append(index._captured(q, radii))
    return masks


@settings(max_examples=80, deadline=None)
@given(dim=st.sampled_from([1, 2, 3]), kind=st.sampled_from(["euclidean", "manhattan"]),
       exponent=st.sampled_from([-540, 0, 500]), huge=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_captured_on_the_tree_equals_brute(dim, kind, exponent, huge, seed):
    # integer grids with duplicated members, radii equal to attained
    # distances (members on the closed boundaries) and their neighbouring
    # floats, radius-0 balls, far centres with radii that reach one member,
    # scaled coordinates and tree distances that overflow
    rng = np.random.default_rng(seed)
    grid = np.round(rng.normal(size=(60, dim)) * 3)
    pts = np.vstack([grid, grid[:15], rng.normal(size=(20, dim))]) * 2.0 ** exponent
    far = np.round(rng.normal(size=(4, dim)) * 3 + 40) * 2.0 ** exponent
    q = np.vstack([pts[::5], (np.round(rng.normal(size=(10, dim)) * 3) + 0.5)
                   * 2.0 ** exponent, far])
    if huge:  # members and centres far apart enough that distances overflow
        pts[-3:] = -1.7e308
        q = np.vstack([q, np.full((2, dim), 1.7e308)])
    metric = dc.Metric(kind)
    block = dc.cross_distances(metric, q, pts)
    radii = block[np.arange(q.shape[0]), rng.integers(0, pts.shape[0], size=q.shape[0])]
    radii = np.where(np.isfinite(radii), radii, 0.0)
    radii[rng.random(q.shape[0]) < 0.3] = 0.0
    step = rng.random(q.shape[0])
    radii[step < 0.2] = np.nextafter(radii[step < 0.2], np.inf)
    radii[step > 0.8] = np.nextafter(radii[step > 0.8], 0.0)
    cloud = dc.PointCloud.from_coords(pts)
    want = (block <= radii[:, None]).any(axis=0)
    assert np.array_equal(dc.build_index(cloud, metric, "brute")._captured(q, radii), want)
    for got in _captured_every_way(dc.build_index(cloud, metric, "kdtree"), q, radii):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("kind", ["euclidean", "manhattan"])
def test_a_member_only_a_far_centre_captures(kind):
    # the member at 0 has its nearest centre at 0.5 with a radius-0 ball, and
    # only the far centre at 100, whose radius is exactly its distance,
    # captures it: the nearest-centre check leaves it open and the ball pass
    # marks it
    pts = np.array([[0.0, 0.0], [0.25, 0.0], [3.0, 0.0], [50.0, 0.0]])
    q = np.array([[0.5, 0.0], [100.0, 0.0]])
    radii = np.array([0.0, 100.0])
    index = dc.build_index(dc.PointCloud.from_coords(pts), dc.Metric(kind), "kdtree")
    for got in _captured_every_way(index, q, radii):
        assert got.tolist() == [True, True, True, True]
    radii[1] = np.nextafter(100.0, 0.0)
    for got in _captured_every_way(index, q, radii):
        assert got.tolist() == [False, True, True, True]


def test_no_ball_is_walked_when_every_nearest_centre_captures(monkeypatch):
    # 20 balls that each hold the whole cloud: the nearest-centre check
    # captures every member and no ball query runs
    pts = np.random.default_rng(65).uniform(size=(500, 2))
    index = dc.build_index(dc.PointCloud.from_coords(pts), dc.Metric(), "kdtree")
    walked = []
    real = NeighborIndex._ball_candidates
    monkeypatch.setattr(NeighborIndex, "_ball_candidates", lambda self, qq, *rest: (
        walked.append(qq.shape[0]), real(self, qq, *rest))[1])
    assert index._captured(pts[:20], np.full(20, 2.0)).all()
    # members on the closed boundary of their nearest centre's ball
    line = dc.build_index(dc.PointCloud.from_coords(np.arange(4.0)[:, None]),
                          dc.Metric("manhattan"), "kdtree")
    with mock.patch.object(neighbors, "_CAPTURE_LOAD", 0):
        assert line._captured(np.array([[0.0], [2.0]]), np.ones(2)).all()
    assert walked == []
    # a ball that misses some member is walked, over the open members only
    radii = np.full(20, 2.0)
    pts_far = np.vstack([pts, [[9.0, 9.0]]])
    index = dc.build_index(dc.PointCloud.from_coords(pts_far), dc.Metric(), "kdtree")
    sizes = []
    monkeypatch.setattr(NeighborIndex, "_ball_candidates", lambda self, qq, *rest: (
        sizes.append(self.cloud.n), real(self, qq, *rest))[1])
    assert index._captured(pts[:20], radii).tolist() == [True] * 500 + [False]
    assert sizes == [1]


@pytest.mark.parametrize("strategy", ["brute", "kdtree"])
def test_captured_with_no_ball_and_with_one(strategy):
    pts = np.random.default_rng(66).normal(size=(200, 2))
    index = dc.build_index(dc.PointCloud.from_coords(pts), dc.Metric(), strategy)
    assert index.ball_ids_many(pts[:0], np.zeros(0)) == []
    assert not index._captured(pts[:0], np.zeros(0)).any()
    radius = dc.cross_distances(dc.Metric(), pts[:1], pts)[0, 17]
    want = dc.cross_distances(dc.Metric(), pts[:1], pts)[0] <= radius
    assert index._captured(pts[:1], np.array([radius])).tolist() == want.tolist()
    assert index.ball_ids_many(pts[:1], [radius])[0].tolist() == np.flatnonzero(want).tolist()
