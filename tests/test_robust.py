import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import declutter as dc
import declutter.geometry as geometry
import declutter.robust as robust
from declutter.neighbors import NeighborIndex
from conftest import line_cloud, oracle_robust, random_cloud


def test_line_example_all_kinds():
    cloud, metric = line_cloud()
    index = dc.build_index(cloud, metric)
    q = [[100.0]]
    assert dc.values_at(index, q, 2, dc.RMS_K)[0] == pytest.approx(
        98.0 / math.sqrt(2.0), abs=1e-9)
    assert dc.values_at(index, q, 2, dc.AVG_K)[0] == pytest.approx(49.0)
    assert dc.values_at(index, q, 2, dc.KTH_NN)[0] == 98.0


def test_a_kind_given_by_name_is_rejected_before_any_result():
    pts = np.random.default_rng(4).normal(size=(40, 2))
    cloud, metric = dc.PointCloud.from_coords(pts), dc.Metric()
    kref = dc.GroundTruthRef(dc.PointCloud.from_coords(pts[:10]))
    index = dc.build_index(cloud, metric)
    single = dc.PointCloud.from_coords(pts[:1])  # a degenerate parfree run
    calls = (lambda: dc.declutter(cloud, metric, 4, kind="avg-k"),
             lambda: dc.parfree_declutter(cloud, metric, kind="avg-k"),
             lambda: dc.parfree_declutter(single, metric, kind="avg-k"),
             lambda: dc.values_at(index, pts[:3], 4, kind="avg-k"),
             lambda: dc.certify(cloud, metric, kref, 4, kind="avg-k"))
    for call in calls:
        with pytest.raises(dc.GeometryError, match="parse_kind"):
            call()


def test_equidistant_neighbors_any_kind():
    # four points on the unit circle, query at the center
    ang = np.arange(4) * (math.pi / 2.0)
    pts = np.column_stack([np.cos(ang), np.sin(ang)])
    cloud = dc.PointCloud.from_coords(pts)
    index = dc.build_index(cloud, dc.Metric())
    for kind in (dc.RMS_K, dc.AVG_K, dc.KTH_NN):
        assert dc.values_at(index, np.zeros((1, 2)), 4, kind)[0] == pytest.approx(
            1.0, abs=1e-12)


def test_profile_line_example():
    cloud, metric = line_cloud()
    index = dc.build_index(cloud, metric)
    prof = dc.profile(cloud, index, 2, dc.RMS_K)
    expect = [math.sqrt(0.5)] * 3 + [98.0 / math.sqrt(2.0)]
    assert prof.values == pytest.approx(expect, abs=1e-9)


def test_profile_k1_is_zero_and_singleton():
    cloud, metric = random_cloud(3, n_max=40)
    index = dc.build_index(cloud, metric)
    assert np.all(dc.profile(cloud, index, 1).values == 0.0)
    single = dc.PointCloud.from_coords([[2.0, 3.0]])
    idx1 = dc.build_index(single, dc.Metric(), "brute")
    assert dc.profile(single, idx1, 1).values.tolist() == [0.0]


def test_profile_matches_per_query_and_oracle():
    cloud, metric = random_cloud(13, n_max=60)
    index = dc.build_index(cloud, metric)
    for kind in (dc.RMS_K, dc.AVG_K, dc.KTH_NN):
        prof = dc.profile(cloud, index, 4, kind)
        for i in range(cloud.n):
            one = dc.values_at(index, cloud.coords[i:i + 1], 4, kind)[0]
            assert prof.values[i] == one  # identical accumulation path
            assert one == pytest.approx(
                oracle_robust(cloud.coords, cloud.coords[i], 4, kind.name),
                abs=1e-9)


def test_values_at_scales_matches_single_scale():
    cloud, metric = random_cloud(17, n_max=80)
    index = dc.build_index(cloud, metric)
    ks = [1, 2, 5, 9]
    for kind in (dc.RMS_K, dc.AVG_K, dc.KTH_NN):
        multi = dc.values_at_scales(index, cloud.coords, ks, kind)
        for k in ks:
            single = dc.values_at(index, cloud.coords, k, kind)
            assert np.array_equal(multi[k], single)


def test_lipschitz_property_all_kinds():
    cloud, metric = random_cloud(23, n_max=100)
    index = dc.build_index(cloud, metric)
    rng = np.random.default_rng(23)
    X = rng.normal(scale=2.0, size=(1000, cloud.dim))
    Y = rng.normal(scale=2.0, size=(1000, cloud.dim))
    gap = np.sqrt(((X - Y) ** 2).sum(axis=1))
    k = min(7, cloud.n)
    for kind in (dc.RMS_K, dc.AVG_K, dc.KTH_NN):
        vx = dc.values_at(index, X, k, kind)
        vy = dc.values_at(index, Y, k, kind)
        assert np.all(np.abs(vx - vy) <= gap + 1e-9)


def test_condition_a_dominates_set_distance():
    cloud, metric = random_cloud(29, n_max=100)
    index = dc.build_index(cloud, metric)
    rng = np.random.default_rng(29)
    Q = rng.normal(scale=2.0, size=(1000, cloud.dim))
    d_set = dc.cross_distances(metric, Q, cloud.coords).min(axis=1)
    k = min(6, cloud.n)
    for kind in (dc.RMS_K, dc.AVG_K, dc.KTH_NN):
        v = dc.values_at(index, Q, k, kind)
        assert np.all(d_set <= v + 1e-12)


def test_monotone_in_k():
    cloud, metric = random_cloud(37, n_max=60)
    index = dc.build_index(cloud, metric)
    for kind in (dc.RMS_K, dc.AVG_K):
        prev = None
        for k in range(1, cloud.n + 1):
            v = dc.values_at(index, cloud.coords, k, kind)
            if prev is not None:
                assert np.all(v >= prev - 1e-12)
            prev = v


def test_nn_tail_bound_rms():
    # distance to the i-th neighbor is bounded by sqrt(k/(k-i+1)) * rms value
    for seed in range(20):
        cloud, metric = random_cloud(seed + 100, n_max=120)
        index = dc.build_index(cloud, metric)
        k = min(9, cloud.n)
        rows = index.knn_distance_rows(cloud.coords, k)
        rms = dc.values_at(index, cloud.coords, k, dc.RMS_K)
        factors = np.sqrt(k / (k - np.arange(1, k + 1) + 1.0))
        assert np.all(rows <= factors[None, :] * rms[:, None] + 1e-9)


def test_kind_validation_and_parse():
    with pytest.raises(dc.GeometryError):
        dc.DistanceKind("median-k")
    assert dc.parse_kind("kth-nn") is dc.KTH_NN
    assert dc.parse_kind(dc.AVG_K) is dc.AVG_K


def test_profile_reads_smaller_k_off_the_sweep():
    cloud, _ = random_cloud(17, n_max=150)
    n = cloud.n
    clouds = [(cloud, dc.Metric(), s) for s in ("brute", "kdtree")]
    matrix = dc.cross_distances(dc.Metric("manhattan"), cloud.coords, cloud.coords)
    clouds.append((dc.PointCloud.matrix_backed(n),
                   dc.Metric("precomputed", matrix=matrix), "brute"))
    schedule = [n - 1, 9, 4, 1]
    for c, metric, strategy in clouds:
        full = np.sort(dc.cross_distances(metric, c.points, c.points), axis=1)
        index = dc.build_index(c, metric, strategy)
        for k in schedule:
            assert index.knn_distance_rows(c.points, k).tolist() == full[:, :k].tolist()
        for kind in (dc.RMS_K, dc.AVG_K, dc.KTH_NN):
            sweep = dc.values_at_scales(index, c.points, schedule, kind)
            for k in schedule:
                got = dc.profile(c, index, k, kind).values
                assert got.tobytes() == sweep[k].tobytes()
                fresh = dc.values_at(dc.build_index(c, metric, strategy),
                                     c.points, k, kind)
                assert got.tobytes() == fresh.tobytes()


def _full_sort_values(metric, points, k, kind):
    """Robust values at k off each point's fully sorted distance row."""
    rows = np.sort(dc.cross_distances(metric, points, points), axis=1)
    if kind is dc.KTH_NN:
        return rows[:, k - 1]
    if kind is dc.AVG_K:
        return np.cumsum(rows, axis=1)[:, k - 1] / k
    return np.sqrt(np.cumsum(rows * rows, axis=1)[:, k - 1] / k)


@pytest.mark.parametrize("threads", [1, 2])
def test_blocked_sweep_matches_full_sort(monkeypatch, threads):
    n, block = 97, 7  # 13 full blocks of 7 rows and a ragged one of 6
    pts = np.random.default_rng(61).normal(size=(n, 3))
    manhattan = dc.Metric("manhattan")
    matrix = dc.cross_distances(manhattan, pts, pts)
    coords = dc.PointCloud.from_coords(pts)
    cases = [(coords, dc.Metric(), "brute"), (coords, manhattan, "kdtree"),
             (dc.PointCloud.matrix_backed(n),
              dc.Metric("precomputed", matrix=matrix), "brute")]
    monkeypatch.setattr(geometry, "_CHUNK_CELLS", block * n)
    shapes = []
    original = dc.NeighborIndex.knn_distance_rows

    def recorded(self, queries, k, threads=1):
        rows = original(self, queries, k, threads=threads)
        shapes.append(rows.shape)
        return rows

    monkeypatch.setattr(dc.NeighborIndex, "knn_distance_rows", recorded)
    ks = [1, 2, 5, 16, 64, n]
    for cloud, metric, strategy in cases:
        index = dc.build_index(cloud, metric, strategy)
        for kind in (dc.RMS_K, dc.AVG_K, dc.KTH_NN):
            shapes.clear()
            sweep = dc.values_at_scales(index, cloud.points, ks, kind,
                                        threads=threads)
            assert sorted(shapes) == sorted([(block, n)] * 13 + [(6, n)])
            for k in ks:
                want = _full_sort_values(metric, cloud.points, k, kind)
                assert sweep[k].tobytes() == want.tobytes()
                single = dc.values_at(index, cloud.points, k, kind,
                                      threads=threads)
                assert sweep[k].tobytes() == single.tobytes()


@pytest.mark.parametrize("kind", [dc.RMS_K, dc.AVG_K, dc.KTH_NN],
                         ids=lambda k: k.name)
def test_overflowing_distances_name_the_cause(kind):
    # finite coordinates whose canonical Euclidean distances overflow float64
    pts = np.random.default_rng(8).normal(size=(300, 2))
    cloud = dc.PointCloud.from_coords(pts / np.abs(pts).max() * 2.5e159)
    with pytest.raises(dc.GeometryError, match="overflow float64"):
        dc.declutter(cloud, dc.Metric(), 8, kind=kind)


def test_overflowing_squares_name_the_cause():
    # Manhattan distances near 1e200 are finite, but rms-k squares them
    pts = np.random.default_rng(9).normal(size=(200, 2)) * 2.0 ** 660
    cloud, metric = dc.PointCloud.from_coords(pts), dc.Metric("manhattan")
    index = dc.build_index(cloud, metric)
    for kind in (dc.AVG_K, dc.KTH_NN):
        assert np.all(np.isfinite(dc.profile(cloud, index, 8, kind).values))
    with pytest.raises(dc.GeometryError, match="rms-k distances overflow float64"):
        dc.profile(cloud, index, 8, dc.RMS_K)


@pytest.mark.parametrize("strategy", ["brute", "kdtree"])
def test_overflow_on_the_tree_path_names_the_cause(strategy):
    # large enough that the kd-tree answers k=8 from the tree
    pts = np.random.default_rng(10).normal(size=(600, 2))
    cloud = dc.PointCloud.from_coords(pts / np.abs(pts).max() * 2.5e159)
    assert dc.build_index(cloud, dc.Metric(), "kdtree")._tree_serves(8)
    with pytest.raises(dc.GeometryError, match="overflow float64"):
        dc.declutter(cloud, dc.Metric(), 8, strategy=strategy)


@pytest.mark.parametrize("threads", [1, 2])
def test_tree_sweep_blocks_hold_k_max_cells(threads, monkeypatch):
    # on the tree path a block's rows are sized by k, not by n, and the
    # blocked sweep equals the one-block sweep byte for byte
    pts = np.random.default_rng(11).normal(size=(2000, 2))
    cloud = dc.PointCloud.from_coords(pts)
    index = dc.build_index(cloud, dc.Metric(), "kdtree")
    ks = [2, 8, 16]
    assert index._tree_serves(16)
    want = dc.values_at_scales(index, cloud.points, ks, dc.RMS_K)
    monkeypatch.setattr(geometry, "_CHUNK_CELLS", 5000)
    sizes = []
    real = NeighborIndex.knn_distance_rows
    monkeypatch.setattr(NeighborIndex, "knn_distance_rows", lambda self, q, *a: (
        sizes.append(len(q)), real(self, q, *a))[1])
    got = dc.values_at_scales(index, cloud.points, ks, dc.RMS_K, threads=threads)
    per_block = 5000 // index._row_cells(16)
    assert max(sizes) == per_block and len(sizes) == -(-2000 // per_block)
    assert all(got[k].tobytes() == want[k].tobytes() for k in ks)


def _crossover_ks(n):
    """k around half the row and around the full-sort crossover, and n."""
    at = -(-3 * n // 5)  # the smallest k the dense blocks sort whole rows at
    return sorted({k for k in (n // 2 - 1, n // 2, n // 2 + 1, at - 1, at, n)
                   if 1 <= k <= n})


@settings(max_examples=80, deadline=None)
@given(coords=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       min_size=2, max_size=40),
       copies=st.integers(0, 12),
       scale=st.sampled_from([1.0, 0.1]),
       case=st.sampled_from(["euclidean-brute", "euclidean-kdtree",
                             "manhattan-brute", "manhattan-kdtree", "matrix"]))
def test_sweep_equals_a_full_sort_reference(coords, copies, scale, case):
    # integer grids tie everywhere and the copies duplicate points; partition
    # then prefix sort, whole-row sort and the tree must all give the bytes
    # of one full sort
    pts = np.array(coords + coords[:copies], dtype=float) * scale
    n = pts.shape[0]
    kind, _, strategy = case.partition("-")
    if kind == "matrix":
        matrix = dc.cross_distances(dc.Metric("manhattan"), pts, pts)
        cloud = dc.PointCloud.matrix_backed(n)
        metric, strategy = dc.Metric("precomputed", matrix=matrix), "brute"
    else:
        cloud, metric = dc.PointCloud.from_coords(pts), dc.Metric(kind)
    index = dc.build_index(cloud, metric, strategy)
    full = np.sort(dc.cross_distances(metric, cloud.points, cloud.points), axis=1)
    ks = _crossover_ks(n)
    for k in ks:
        rows = index.knn_distance_rows(cloud.points, k)
        assert rows.shape == (n, k) and rows.tobytes() == full[:, :k].tobytes()
    for robust in (dc.RMS_K, dc.AVG_K, dc.KTH_NN):
        sweep = dc.values_at_scales(index, cloud.points, ks, robust)
        for k in ks:
            want = _full_sort_values(metric, cloud.points, k, robust)
            assert sweep[k].tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", [dc.RMS_K, dc.AVG_K, dc.KTH_NN], ids=lambda k: k.name)
def test_dense_sweep_holds_one_distance_block(kind):
    # the rows are sorted and reduced inside the distance block, so a one-block
    # sweep near k = n costs that block and its output, not copies of it
    n = 1200
    assert n * n <= geometry._CHUNK_CELLS
    cloud = dc.PointCloud.from_coords(np.random.default_rng(12).normal(size=(n, 2)))
    index = dc.build_index(cloud, dc.Metric(), "brute")
    block = n * n * 8
    for ks in ([n - 1], [n // 2], [n - 1, 300, 17, 2]):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dc.values_at_scales(index, cloud.points, ks, kind)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * block + len(ks) * n * 8, (ks, peak / block)


@pytest.mark.parametrize("kind", [dc.RMS_K, dc.AVG_K, dc.KTH_NN], ids=lambda k: k.name)
def test_matrix_sweep_holds_one_distance_block(kind):
    # the matrix-backed twin: a sub-cloud with non-consecutive ids reads its
    # block through the fixed gather scratch, not a block-sized index array
    pts = np.random.default_rng(13).normal(size=(1500, 2))
    metric = dc.Metric("precomputed",
                       matrix=dc.cross_distances(dc.Metric("manhattan"), pts, pts))
    cloud, metric = dc.subset_cloud(dc.PointCloud.matrix_backed(1500), metric,
                                    np.flatnonzero(np.arange(1500) % 5))
    n = cloud.n
    assert n * n <= geometry._CHUNK_CELLS
    index = dc.build_index(cloud, metric, "brute")
    block = n * n * 8
    scratch = geometry._GATHER_CELLS * 8
    for ks in ([n - 1], [n // 2], [n - 1, 300, 17, 2]):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dc.values_at_scales(index, cloud.points, ks, kind)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * block + len(ks) * n * 8 + scratch, (ks, peak / block)


def _cumsum_values(rows, ks, kind):
    """The running sums as a row-wise cumsum gives them, or None when the
    value at the largest k is not finite."""
    with np.errstate(over="ignore"):
        x = rows * rows if kind == dc.RMS_K else rows.copy()
        sums = np.cumsum(x, axis=1)
    vals = {k: sums[:, k - 1] / k for k in ks}
    if kind == dc.RMS_K:
        vals = {k: np.sqrt(v) for k, v in vals.items()}
    return vals if np.all(np.isfinite(vals[ks[-1]])) else None


def _check_prefix_values(rows, ks, kind, tile_rows):
    """_prefix_values with at least ``tile_rows`` rows summed down tiles
    against the cumsum reference; the rows must come back unchanged."""
    before = rows.copy()
    want = _cumsum_values(rows, ks, kind)
    with mock.patch.object(robust, "_TILE_ROWS", tile_rows):
        if want is None:
            with pytest.raises(dc.GeometryError,
                               match=f"{kind.name} distances overflow float64"):
                robust._prefix_values(rows, ks, kind)
        else:
            got = robust._prefix_values(rows, ks, kind)
            assert sorted(got) == ks
            for k in ks:
                assert got[k].tobytes() == want[k].tobytes(), k
    assert rows.tobytes() == before.tobytes()  # the rows are not consumed


def _distance_rows(rng, m, n_cols, style, scale):
    if style == "ties":
        rows = rng.integers(0, 4, size=(m, n_cols)).astype(float)
    elif style == "zeros":
        rows = rng.exponential(size=(m, n_cols)) * (rng.random((m, n_cols)) < 0.5)
    elif style == "subnormal":
        rows = rng.integers(0, 1000, size=(m, n_cols)) * 5e-324
    elif style == "overflow":  # the running sum overflows halfway along
        rows = rng.random((m, n_cols))
        rows[:, n_cols // 2:] += 2.0 ** 1022 / max(1.0, scale)
    else:
        rows = rng.exponential(size=(m, n_cols))
    return np.sort(rows * scale, axis=1)


@st.composite
def _prefix_cases(draw):
    m = draw(st.one_of(st.integers(0, 70), st.sampled_from([2049, 3001])))
    width = max(8, robust._TILE_CELLS // max(m, 1))
    n_cols = draw(st.sampled_from([width - 1, width, width + 1, 2 * width]))
    edges = [1, n_cols] + [e + d for e in (width, 2 * width) for d in (-1, 0, 1)
                           if e + d <= n_cols]
    ks = draw(st.lists(st.one_of(st.sampled_from(edges), st.integers(1, n_cols)),
                       min_size=1, max_size=8))
    style = draw(st.sampled_from(["spread", "ties", "zeros", "subnormal", "overflow"]))
    scale = draw(st.sampled_from([1.0, 2.0 ** -500, 2.0 ** 500]))
    pad = draw(st.sampled_from([0, 3]))  # rows may be a prefix of wider rows
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = _distance_rows(rng, m, n_cols + pad, style, scale)[:, :n_cols]
    return rows, sorted(set(ks))


@settings(max_examples=150, deadline=None)
@given(case=_prefix_cases(), kind=st.sampled_from([dc.RMS_K, dc.AVG_K]),
       tile_rows=st.sampled_from([0, 2, robust._TILE_ROWS]))
def test_tiled_running_sums_equal_cumsum(case, kind, tile_rows):
    # tiles end at every k and every width columns; each query adds its
    # entries in cumsum's order whatever the tile edges, the values and m,
    # also where fewer rows than the library's threshold are summed in tiles
    _check_prefix_values(*case, kind, tile_rows)


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("tile_rows", [0, 2, robust._TILE_ROWS])
@pytest.mark.parametrize("kind", [dc.RMS_K, dc.AVG_K], ids=lambda k: k.name)
def test_running_sums_of_one_and_two_rows(m, tile_rows, kind):
    # a reduce over a single row would be numpy's pairwise sum, whose bytes
    # differ from the sequential sum on this row, so one row never reaches
    # it; two rows do once the threshold allows
    rows = np.sort(np.random.default_rng(27).exponential(size=(m, 4096)), axis=1)
    x = rows[0] * rows[0] if kind == dc.RMS_K else rows[0]
    assert np.add.reduce(x) != np.cumsum(x)[-1]
    _check_prefix_values(rows, [1, 7, 8, 9, 1000, 4096], kind, tile_rows)
