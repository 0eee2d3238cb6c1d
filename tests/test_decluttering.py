import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import declutter as dc
import declutter.decluttering as decluttering
import declutter.geometry as geometry
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


def _with_block(block, run):
    """run() at the given block size; a hypothesis test runs many examples
    per call, so it cannot use the function-scoped monkeypatch fixture."""
    saved = decluttering._BLOCK
    decluttering._BLOCK = block
    try:
        return run()
    finally:
        decluttering._BLOCK = saved


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

    assert _with_block(1, outcome) == outcome()


@pytest.mark.parametrize("k", [1, 4])
def test_greedy_pass_reads_one_block_at_a_time(monkeypatch, k):
    # no cross_distances call of the pass may return more cells than the
    # budget, also when nearly every point is kept (k = 1: radius 0)
    cells = 400
    cloud, metric, _, _ = noisy_instance(202)
    assert cloud.n <= cells  # a single row always fits
    prof = dc.declutter(cloud, metric, k).profile
    want = dc.greedy_declutter(cloud, metric, prof)
    monkeypatch.setattr(geometry, "_CHUNK_CELLS", cells)
    shapes = []
    original = decluttering.cross_distances

    def recorded(metric, queries, targets):
        out = original(metric, queries, targets)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(decluttering, "cross_distances", recorded)
    result = dc.greedy_declutter(cloud, metric, prof)
    assert result.kept.tolist() == want.kept.tolist()
    assert result.rejected == want.rejected
    if k == 1:
        assert result.kept.size == cloud.n
    assert max(r * c for r, c in shapes) <= cells
    assert max(r for r, _ in shapes) > 1  # blocks of several rows ran
