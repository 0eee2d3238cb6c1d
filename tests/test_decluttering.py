import collections
import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

import declutter as dc
import declutter.decluttering as decluttering
import declutter.geometry as geometry
import declutter.neighbors as neighbors
from conftest import (dist_euclidean, dist_manhattan, line_cloud, noisy_instance,
                      oracle_declutter, random_cloud)


def test_line_example_kept_and_witnesses():
    cloud, metric = line_cloud()
    result = dc.declutter(cloud, metric, 2)
    assert result.kept_ids.tolist() == [0, 2]
    assert result.rejected[1].witness == 0
    assert result.rejected[3].witness == 0  # earliest kept point wins
    assert result.rejected[3].distance == 100.0


def test_rejection_is_a_frozen_value_record():
    # equality and repr by field, no field can be set, and no per-record
    # __dict__ (slots), so no attribute can be added either
    r = dc.Rejection(witness=3, distance=0.5)
    assert r == dc.Rejection(3, 0.5) and r != dc.Rejection(3, 0.25)
    assert repr(r) == "Rejection(witness=3, distance=0.5)"
    assert hash(r) == hash(dc.Rejection(3, 0.5))
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.witness = 4
    # a frozen slotted dataclass refuses other names with a TypeError on
    # some Python versions and an AttributeError on others
    with pytest.raises((AttributeError, TypeError)):
        r.extra = 4
    assert not hasattr(r, "__dict__") and r == dc.Rejection(3, 0.5)


def test_single_point_kept():
    cloud = dc.PointCloud.from_coords([[5.0, 5.0]])
    result = dc.declutter(cloud, dc.Metric(), 1, strategy="brute")
    assert result.kept.tolist() == [0]
    assert not result.rejected


def test_coincident_points_closed_ball():
    cloud = dc.PointCloud.from_coords(np.zeros((4, 2)))
    result = dc.declutter(cloud, dc.Metric(), 4, strategy="brute")
    assert result.kept.tolist() == [0]
    assert set(result.rejected) == {1, 2, 3}
    for rej in result.rejected.values():
        assert rej.witness == 0 and rej.distance == 0.0


def test_first_processed_point_always_kept():
    for seed in range(10):
        cloud, metric = random_cloud(seed, n_max=80)
        result = dc.declutter(cloud, metric, min(4, cloud.n))
        assert result.kept[0] == result.order[0]


def test_partition_and_witness_validity():
    for seed in range(20):
        cloud, metric = random_cloud(seed + 50, n_max=100)
        k = min(5, cloud.n)
        result = dc.declutter(cloud, metric, k)
        kept = set(result.kept.tolist())
        assert kept.isdisjoint(result.rejected)
        assert len(kept) + len(result.rejected) == cloud.n
        position = {int(p): i for i, p in enumerate(result.order)}
        kept_rank = {int(p): i for i, p in enumerate(result.kept)}
        values = result.profile.values
        dist = dc.cross_distances(metric, cloud.coords, cloud.coords)
        for p, rej in result.rejected.items():
            assert rej.witness in kept
            assert position[rej.witness] < position[p]
            assert dist[p, rej.witness] == rej.distance
            assert rej.distance <= 2.0 * values[p]
            # the recorded witness is the earliest kept point inside the ball
            for q in result.kept.tolist():
                if kept_rank[q] >= kept_rank[rej.witness]:
                    break
                assert dist[p, q] > 2.0 * values[p]
        for i, p in enumerate(result.kept.tolist()):
            for q in result.kept.tolist()[:i]:
                assert dist[p, q] > 2.0 * values[p]


def _oracle_cases():
    """(points, metric, oracle distance, k, kind): random clouds plus
    tie-heavy inputs where many robust values and distances coincide."""
    for seed in range(30):
        cloud, metric = random_cloud(seed + 200, n_max=70)
        yield cloud.coords, metric, dist_euclidean, min(4, cloud.n), "rms-k"
    grid = np.array([[x, y] for x in range(7) for y in range(5)], dtype=float)
    for k, kind in ((2, "rms-k"), (4, "avg-k"), (5, "kth-nn"), (9, "rms-k")):
        yield grid, dc.Metric("manhattan"), dist_manhattan, k, kind
    rng = np.random.default_rng(7)
    centres = rng.integers(-4, 5, size=(5, 2)).astype(float)
    clusters = np.repeat(centres, [1, 3, 6, 9, 4], axis=0)
    clusters = clusters[rng.permutation(clusters.shape[0])]
    for k in (1, 3, 6, 12):
        yield clusters, dc.Metric(), dist_euclidean, k, "rms-k"
        yield clusters, dc.Metric("manhattan"), dist_manhattan, k, "avg-k"


def test_matches_pure_python_oracle():
    for pts, metric, dist, k, kind in _oracle_cases():
        kept, rejected, _ = oracle_declutter(pts, k, kind, dist=dist)
        cloud = dc.PointCloud.from_coords(pts)
        matrix = dc.Metric("precomputed", matrix=dc.cross_distances(metric, pts, pts))
        runs = ((cloud, metric, "brute"), (cloud, metric, "kdtree"),
                (dc.PointCloud.matrix_backed(cloud.n), matrix, "auto"))
        for run_cloud, run_metric, strategy in runs:
            result = dc.declutter(run_cloud, run_metric, k, kind=dc.parse_kind(kind),
                                  strategy=strategy)
            assert result.kept.tolist() == kept
            assert {p: r.witness for p, r in result.rejected.items()} == rejected
            dist = dc.cross_distances(metric, pts, pts)
            for p, r in result.rejected.items():
                assert r.distance == dist[p, r.witness]


def test_strategy_equivalence_id_for_id():
    for seed in range(25):
        cloud, metric, _, _ = noisy_instance(seed, n_max=150)
        k = 2 + seed % 7
        brute = dc.declutter(cloud, metric, k, strategy="brute")
        tree = dc.declutter(cloud, metric, k, strategy="kdtree")
        assert brute.kept.tolist() == tree.kept.tolist()
        assert brute.rejected == tree.rejected
        assert np.array_equal(brute.order, tree.order)


def test_greedy_pass_on_a_given_profile():
    cloud, metric, _, _ = noisy_instance(5)
    result = dc.declutter(cloud, metric, 4)
    again = dc.greedy_declutter(cloud, metric, result.profile)
    assert again.kept.tolist() == result.kept.tolist()
    assert again.rejected == result.rejected
    small = dc.subset_cloud(cloud, metric, np.arange(5))[0]
    with pytest.raises(dc.GeometryError, match="profile does not cover"):
        dc.greedy_declutter(small, metric, result.profile)
    # k is the one parameter: the vicinity factor is the paper's 2
    with pytest.raises(TypeError):
        dc.declutter(cloud, metric, 4, vicinity_factor=2.0)
    with pytest.raises(TypeError):
        dc.greedy_declutter(cloud, metric, result.profile, vicinity_factor=2.0)
    with pytest.raises(dc.GeometryError):
        dc.greedy_declutter(cloud, dc.Metric("precomputed", matrix=np.zeros((2, 2))),
                            result.profile)


def test_k_out_of_range():
    cloud, metric = line_cloud()
    with pytest.raises(dc.GeometryError):
        dc.declutter(cloud, metric, 0)
    with pytest.raises(dc.GeometryError):
        dc.declutter(cloud, metric, 5)


def test_matrix_backed_declutter_matches_coordinate():
    cloud, metric, _, _ = noisy_instance(8, n_max=80)
    m = dc.cross_distances(metric, cloud.coords, cloud.coords)
    m = np.minimum(m, m.T)  # enforce exact symmetry for the constructor
    np.fill_diagonal(m, 0.0)
    mat_cloud = dc.PointCloud.matrix_backed(cloud.n)
    mat_metric = dc.Metric("precomputed", matrix=m)
    a = dc.declutter(cloud, metric, 5, strategy="brute")
    b = dc.declutter(mat_cloud, mat_metric, 5)
    assert a.kept.tolist() == b.kept.tolist()


def test_result_roundtrip_dict():
    cloud, metric = line_cloud()
    result = dc.declutter(cloud, metric, 2)
    data = result.to_dict()
    assert data["kept_order"] == [0, 2]
    assert data["rejected"]["3"]["witness"] == 0


@pytest.mark.parametrize("k", [2.0, True])
def test_non_integer_k_rejected(k):
    cloud, metric = line_cloud()
    with pytest.raises(dc.GeometryError):
        dc.declutter(cloud, metric, k)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_blocked_pass_matches_oracle(monkeypatch, block):
    # ragged blocks: witnesses fall both before and inside a point's block
    monkeypatch.setattr(decluttering, "_BLOCK", block)
    before = inside = contested = 0
    for pts, metric, dist, k, kind in _oracle_cases():
        cloud = dc.PointCloud.from_coords(pts)
        matrix = dc.Metric("precomputed", matrix=dc.cross_distances(metric, pts, pts))
        runs = ((cloud, metric), (dc.PointCloud.matrix_backed(cloud.n), matrix))
        kept, rejected, values = oracle_declutter(pts, k, kind, dist)
        for run_cloud, run_metric in runs:
            result = dc.declutter(run_cloud, run_metric, k, kind=dc.parse_kind(kind))
            assert result.kept.tolist() == kept
            assert {p: r.witness for p, r in result.rejected.items()} == rejected
            for p, r in result.rejected.items():
                want = dc.cross_distances(run_metric, run_cloud.points[[p]],
                                          run_cloud.points[[r.witness]])[0, 0]
                assert np.float64(r.distance).tobytes() == want.tobytes()
        position = {p: i for i, p in enumerate(result.order.tolist())}
        for p, w in rejected.items():
            start = position[p] - position[p] % block
            if position[w] >= start:
                inside += 1
                continue
            before += 1
            # a kept point of p's own block is also in the ball, but the
            # earlier-kept pre-block witness wins
            contested += any(start <= position[q] < position[p]
                             and dist(pts[p], pts[q]) <= 2.0 * values[p]
                             for q in kept)
    assert before > 0
    if block > 1:
        assert inside > 0 and contested > 0


@settings(max_examples=80, deadline=None)
@given(coords=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                       min_size=1, max_size=40),
       copies=st.integers(0, 10),
       kind=st.sampled_from(["euclidean", "manhattan"]),
       data=st.data())
def test_block_size_leaves_output_bytes_unchanged(coords, copies, kind, data):
    pts = np.array(coords + coords[:copies], dtype=float)  # duplicated points
    cloud, metric = dc.PointCloud.from_coords(pts), dc.Metric(kind)
    k = data.draw(st.integers(1, cloud.n))
    prof = dc.declutter(cloud, metric, k).profile

    def outcome():
        result = dc.greedy_declutter(cloud, metric, prof)
        dist = np.array([r.distance for r in result.rejected.values()])
        return json.dumps(result.to_dict()), dist.tobytes()

    # a hypothesis test runs many examples per call, so it patches with a
    # context manager rather than the function-scoped monkeypatch fixture
    with mock.patch.object(decluttering, "_BLOCK", 1):
        blocks_of_one = outcome()
    assert blocks_of_one == outcome()


class _RecordedTree(cKDTree):
    """A kd-tree that records the cells of each query's answer."""

    answers: list = []

    def query(self, *args, **kwargs):
        out = super().query(*args, **kwargs)
        self.answers.append(out[0].size)
        return out


@pytest.mark.parametrize("k", [1, 4])
def test_greedy_pass_reads_one_block_at_a_time(monkeypatch, k):
    # no cross_distances call of the pass may return more cells than the
    # budget, also when nearly every point is kept (k = 1: radius 0), and
    # neither may the kept-set tree's answers nor the candidates' coordinates
    # and canonical distances
    cells = 400
    cloud, metric, _, _ = noisy_instance(202)
    assert cloud.n <= cells  # a single row always fits
    prof = dc.declutter(cloud, metric, k).profile
    want = _pass_result(cloud, metric, prof, "brute")
    monkeypatch.setattr(geometry, "_CHUNK_CELLS", cells)
    monkeypatch.setattr(decluttering, "_WINDOW", 32)
    monkeypatch.setattr(neighbors, "_TREE_SHIFT", 1 - cloud.dim)  # 8 kept
    monkeypatch.setattr(_RecordedTree, "answers", [])
    # the profile is taken, so every tree built from here on is a kept set's
    monkeypatch.setattr(neighbors, "cKDTree", _RecordedTree)
    shapes, paired = [], []
    original = decluttering.cross_distances
    original_paired = neighbors.paired_distances

    def recorded(metric, queries, targets):
        out = original(metric, queries, targets)
        shapes.append(out.shape)
        return out

    def recorded_paired(metric, a, b):
        out = original_paired(metric, a, b)
        paired.append(max(np.size(a), np.size(b), out.size))
        return out

    monkeypatch.setattr(decluttering, "cross_distances", recorded)
    monkeypatch.setattr(neighbors, "paired_distances", recorded_paired)
    for strategy in ("brute", "kdtree"):
        shapes.clear()
        result = _pass_result(cloud, metric, prof, strategy)
        assert result.kept.tolist() == want.kept.tolist()
        assert result.rejected == want.rejected
        if k == 1:
            assert result.kept.size == cloud.n
        assert max(r * c for r, c in shapes) <= cells
        assert max(r for r, _ in shapes) > 1  # blocks of several rows ran
    if k > 1:  # at k = 1 every radius is 0, which no tree bound covers
        assert len(_RecordedTree.answers) > 1 and len(paired) > 1
    assert max(_RecordedTree.answers + paired, default=0) <= cells


def _grid_points(coords, copies):
    """Integer grid points with the first ``copies`` repeated: coincident
    points (radius-0 balls) and distances exactly at a radius."""
    return np.array(coords + coords[:copies], dtype=float)


def _pass_result(cloud, metric, prof, strategy):
    """The greedy pass over prof on the given strategy, as a result."""
    return decluttering._result(prof, decluttering._greedy_pass(
        metric, cloud.points, prof.values, strategy))


def _pass_outcome(cloud, metric, prof, strategy):
    """Kept order, processing order, witnesses and witness-distance bytes of
    the pass, and its to_dict() JSON."""
    result = _pass_result(cloud, metric, prof, strategy)
    dist = np.array([r.distance for r in result.rejected.values()])
    return (result.kept.tolist(), result.order.tolist(),
            [r.witness for r in result.rejected.values()], dist.tobytes(),
            json.dumps(result.to_dict()))


def test_tree_pass_equals_the_dense_pass_byte_for_byte(monkeypatch):
    # small windows, few candidates and a low kept-count threshold (in 2-D,
    # a quarter to twice the candidates asked), so that
    # witnesses fall in earlier windows and in their own, rows with K hits
    # take the dense compare, and one pass switches from dense to tree
    ran = collections.Counter()
    real_tree_window = decluttering._Pass.tree_window
    real_full_rows = decluttering._Pass.full_rows
    real_blocks = decluttering._Pass.blocks

    def tree_window(self, window):
        ran["tree windows"] += 1
        return real_tree_window(self, window)

    def full_rows(self, rows):
        ran["full rows"] += rows.size
        return real_full_rows(self, rows)

    def blocks(self, window, lo):
        kinds = self.__dict__.setdefault("window_kinds", [])
        kinds.append(lo > 0)  # tree windows compare from the window's start
        ran["dense to tree"] += kinds[-2:] == [False, True]
        return real_blocks(self, window, lo)

    monkeypatch.setattr(decluttering._Pass, "tree_window", tree_window)
    monkeypatch.setattr(decluttering._Pass, "full_rows", full_rows)
    monkeypatch.setattr(decluttering._Pass, "blocks", blocks)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(coords=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           min_size=1, max_size=50),
           copies=st.integers(0, 12),
           kind=st.sampled_from(["euclidean", "manhattan"]),
           window=st.integers(1, 6), candidates=st.integers(1, 4),
           shift=st.integers(-4, -1), data=st.data())
    def check(coords, copies, kind, window, candidates, shift, data):
        cloud = dc.PointCloud.from_coords(_grid_points(coords, copies))
        metric = dc.Metric(kind)
        k = data.draw(st.integers(1, cloud.n))
        prof = dc.profile(cloud, dc.build_index(cloud, metric), k)
        dense = _pass_outcome(cloud, metric, prof, "brute")
        with mock.patch.multiple(decluttering, _WINDOW=window, _TREE_K=candidates), \
                mock.patch.object(neighbors, "_TREE_SHIFT", shift):
            tree = _pass_outcome(cloud, metric, prof, "kdtree")
        assert tree == dense
        position = {p: i for i, p in enumerate(dense[1])}
        for p, w in zip(json.loads(dense[4])["rejected"], dense[2]):
            earlier = position[w] // window < position[int(p)] // window
            ran["earlier-window witness" if earlier else "same-window witness"] += 1

    check()
    for what in ("tree windows", "full rows", "dense to tree",
                 "earlier-window witness", "same-window witness"):
        assert ran[what] > 0, (what, ran)


def _spied_tree_builds(monkeypatch) -> list:
    """A list that grows by one per kept-set tree the greedy pass builds:
    per index with a tree that the pass builds over its kept set."""
    builds = []
    real = decluttering.NeighborIndex

    def counted(*args, **kwargs):
        index = real(*args, **kwargs)
        if index._tree is not None:
            builds.append(1)
        return index

    monkeypatch.setattr(decluttering, "NeighborIndex", counted)
    return builds


def _spied_tree_windows(monkeypatch) -> list:
    """A list that grows by one per window the kept-set index answered."""
    answered = []
    real = decluttering._Pass.tree_window

    def tree_window(self, window):
        left, lo = real(self, window)
        if lo:  # the index answered, and the rest compare from rank lo on
            answered.append(1)
        return left, lo

    monkeypatch.setattr(decluttering._Pass, "tree_window", tree_window)
    return answered


def test_brute_and_matrix_backed_clouds_never_build_a_kept_set_tree(monkeypatch):
    # the brute strategy stays an independent oracle of the tree pass
    monkeypatch.setattr(decluttering, "_WINDOW", 8)
    monkeypatch.setattr(neighbors, "_TREE_SHIFT", -10)  # any kept point
    builds = _spied_tree_builds(monkeypatch)
    cloud, metric, _, _ = noisy_instance(3)
    m = dc.cross_distances(metric, cloud.coords, cloud.coords)
    m = np.minimum(m, m.T)
    np.fill_diagonal(m, 0.0)
    mat_cloud = dc.PointCloud.matrix_backed(cloud.n)
    mat_metric = dc.Metric("precomputed", matrix=m)
    brute = dc.declutter(cloud, metric, 4, strategy="brute")
    on_matrix = dc.declutter(mat_cloud, mat_metric, 4)
    dc.greedy_declutter(mat_cloud, mat_metric, on_matrix.profile)
    brute_ids, _ = dc.parfree_declutter(cloud, metric, strategy="brute")
    dc.parfree_declutter(mat_cloud, mat_metric)
    assert not builds
    # the same calls on the kd-tree strategy do build one
    tree = dc.declutter(cloud, metric, 4, strategy="kdtree")
    assert builds and tree.rejected == brute.rejected
    builds.clear()
    dc.greedy_declutter(cloud, metric, brute.profile)
    assert builds
    builds.clear()
    tree_ids, _ = dc.parfree_declutter(cloud, metric, strategy="kdtree")
    assert builds and np.array_equal(tree_ids, brute_ids)


@pytest.mark.parametrize("kind, exponent", [
    ("euclidean", 520),    # bound ** 2 overflows
    ("euclidean", -520),   # bound ** 2 underflows
    ("manhattan", -1040),  # the bound itself is subnormal
])
def test_tree_bounds_out_of_normal_range_take_the_dense_compare(monkeypatch, kind,
                                                                exponent):
    # the kept-set index answers no window of these inputs, so every window
    # takes the dense compare, and the pass still returns the dense pass's
    # bytes
    monkeypatch.setattr(decluttering, "_WINDOW", 4)
    monkeypatch.setattr(decluttering, "_TREE_K", 2)
    monkeypatch.setattr(neighbors, "_TREE_SHIFT", -3)  # one kept point in 2-D
    builds = _spied_tree_builds(monkeypatch)
    answered = _spied_tree_windows(monkeypatch)
    grid = [(x, y) for x in range(6) for y in range(5)]
    pts = _grid_points(grid, 7)
    metric = dc.Metric(kind)
    cloud = dc.PointCloud.from_coords(pts)
    scaled = dc.PointCloud.from_coords(pts * 2.0 ** exponent)
    for k in (1, 2, 3, 5, 9, cloud.n):
        prof = dc.profile(cloud, dc.build_index(cloud, metric), k)
        if k > 1:  # unscaled, the same input asks the tree
            builds.clear()
            answered.clear()
            assert _pass_outcome(cloud, metric, prof, "kdtree") == _pass_outcome(
                cloud, metric, prof, "brute")
            assert builds and answered
        # the profile scaled too, so its radii are in the scaled range
        prof = dc.RobustDistanceProfile(k=k, kind=prof.kind,
                                        values=prof.values * 2.0 ** exponent)
        answered.clear()
        got = _pass_outcome(scaled, metric, prof, "kdtree")
        assert not answered, k
        assert got == _pass_outcome(scaled, metric, prof, "brute")


def test_a_last_candidate_inside_the_slack_band_takes_the_dense_compare(monkeypatch):
    # in 8-D the tree sums squared differences in another order than the
    # canonical kernel. Seen from the origin, a is canonically at exactly the
    # query's radius r, and c farther; but the tree puts c nearer than a and
    # both just beyond r. The query's one candidate, c, is then no hit, and
    # only the slack on the full-row test (c's tree distance is within the
    # inflated ball) sends the row to the dense compare, which finds a
    a = [0.13455858052477732, -0.5999238417180257, -0.6882588118910744,
         -0.7033153806144539, 0.25717093325079543, 0.9321754986840713,
         0.7550250043982145, -0.5880104097717254]
    c = [a[6], a[7], a[3], a[0], a[2], a[5], a[1], a[4]]
    pts = np.array([a, c, np.zeros(8)])
    cloud, metric = dc.PointCloud.from_coords(pts), dc.Metric()
    canonical = dc.cross_distances(metric, pts[2:], pts[:2])[0]
    tree_d = np.array([cKDTree(pts[i:i + 1]).query(pts[2])[0] for i in range(2)])
    if not (canonical[0] < tree_d[1] < tree_d[0] and canonical[0] < canonical[1]):
        pytest.skip("this scipy's tree rounds these two distances alike")
    # a and c are kept at radius 0; the origin's radius is a's distance
    prof = dc.RobustDistanceProfile(k=1, kind=dc.RMS_K,
                                    values=np.array([0.0, 0.0, canonical[0] / 2]))
    monkeypatch.setattr(decluttering, "_WINDOW", 2)
    monkeypatch.setattr(decluttering, "_TREE_K", 1)
    monkeypatch.setattr(neighbors, "_TREE_SHIFT", -7)  # two kept points in 8-D
    builds = _spied_tree_builds(monkeypatch)
    got = _pass_outcome(cloud, metric, prof, "kdtree")
    assert builds and got == _pass_outcome(cloud, metric, prof, "brute")
    assert json.loads(got[4])["rejected"] == {"2": {"witness": 0,
                                                    "distance": canonical[0]}}


@pytest.mark.parametrize("strategy", ["brute", "kdtree"])
def test_vicinity_radii_that_overflow_decide_as_the_scaled_cloud(strategy):
    # 2 * d_k overflows on the cloud and not on the cloud scaled by 2^-4. An
    # infinite radius holds every finite distance, so both keep and reject
    # the same points, and the witness distances scale exactly
    pts = np.array([[0.0], [1.0e308], [1.7e308]])
    metric = dc.Metric("manhattan")
    big, small = (dc.declutter(dc.PointCloud.from_coords(pts * scale), metric, 2,
                               kind=dc.KTH_NN, strategy=strategy)
                  for scale in (1.0, 2.0 ** -4))
    limit = np.finfo(np.float64).max / decluttering.VICINITY_FACTOR
    assert (big.profile.values > limit).any() and (small.profile.values <= limit).all()
    assert big.kept.tolist() == small.kept.tolist()
    assert {p: r.witness for p, r in big.rejected.items()} == {
        p: r.witness for p, r in small.rejected.items()}
    for p, r in big.rejected.items():
        assert small.rejected[p].distance == r.distance * 2.0 ** -4
