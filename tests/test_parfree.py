import math

import numpy as np
import pytest

import declutter as dc
from conftest import noisy_instance, oracle_parfree, oracle_resample, random_cloud


def _cluster_with_outlier():
    pts = np.concatenate([np.arange(8) * 0.1, [50.0]]).reshape(-1, 1)
    return dc.PointCloud.from_coords(pts), dc.Metric()


def test_theoretical_constant_value():
    assert dc.THEORETICAL_C == pytest.approx(10.0 + 2.0 * math.sqrt(2.0))
    assert dc.PRACTICAL_C == 4.0


def test_cluster_outlier_removed_first_iteration():
    cloud, metric = _cluster_with_outlier()
    p0, trace = dc.parfree_declutter(cloud, metric)
    assert p0.tolist() == list(range(8))
    first = trace.iterations[0]
    assert first.k_target == 8
    assert 8 not in first.resampled_ids  # the outlier dies at the k=8 round
    assert first.kept_ids.size == 1
    kept = int(first.kept_ids[0])
    assert trace.iterations[0].profile_values[kept] == pytest.approx(
        math.sqrt(0.44 / 8.0), abs=1e-12)


def test_cluster_outlier_matches_python_oracle():
    cloud, metric = _cluster_with_outlier()
    p0, _ = dc.parfree_declutter(cloud, metric)
    expect, _ = oracle_parfree([tuple(p) for p in cloud.coords], dc.THEORETICAL_C)
    assert p0.tolist() == expect


def test_coincident_points_recaptured():
    cloud = dc.PointCloud.from_coords(np.zeros((4, 2)))
    p0, trace = dc.parfree_declutter(cloud, dc.Metric())
    assert p0.tolist() == [0, 1, 2, 3]
    assert not trace.degenerate


def test_degenerate_single_point():
    cloud = dc.PointCloud.from_coords([[1.0, 1.0]])
    p0, trace = dc.parfree_declutter(cloud, dc.Metric())
    assert p0.tolist() == [0]
    assert trace.degenerate and not trace.iterations


def test_monotone_shrinkage_and_recapture():
    for seed in range(15):
        cloud, metric, _, _ = noisy_instance(seed, n_max=150)
        p0, trace = dc.parfree_declutter(cloud, metric)
        sizes = [cloud.n] + trace.cardinalities()
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert trace.iterations[-1].i == 1
        for it in trace.iterations:
            inp = set(it.input_ids.tolist())
            out = set(it.resampled_ids.tolist())
            assert out <= inp
            assert set(it.kept_ids.tolist()) <= out  # kept points recaptured
        assert set(p0.tolist()) == set(trace.iterations[-1].resampled_ids.tolist())


def test_loop_runs_down_to_k2():
    cloud, metric, _, _ = noisy_instance(4, n_max=100)
    _, trace = dc.parfree_declutter(cloud, metric)
    assert [it.k_target for it in trace.iterations][-1] == 2
    assert trace.iterations[0].k_target == 2 ** int(math.floor(math.log2(cloud.n)))


def test_first_k_may_equal_n():
    cloud, metric = random_cloud(3, n_max=10)
    pts = np.arange(8, dtype=float).reshape(-1, 1)  # n = 8 = 2^3 exactly
    cloud = dc.PointCloud.from_coords(pts)
    _, trace = dc.parfree_declutter(cloud, dc.Metric())
    assert trace.iterations[0].k_effective == 8 == cloud.n


def test_resample_step_identity_and_shrink():
    cloud, metric, _, _ = noisy_instance(9, n_max=80)
    index = dc.build_index(cloud, metric)
    prof = dc.profile(cloud, index, 4)
    everything = dc.resample_step(cloud, metric, cloud.ids(), prof, 1e-12)
    assert everything.tolist() == cloud.ids().tolist()  # Q = P recaptures P
    distinct = dc.PointCloud.from_coords(
        np.arange(10, dtype=float).reshape(-1, 1))
    idx2 = dc.build_index(distinct, metric, "brute")
    prof2 = dc.profile(distinct, idx2, 2)
    only_q = dc.resample_step(distinct, metric, np.array([0, 5]), prof2, 1e-9)
    assert only_q.tolist() == [0, 5]  # shrinking balls keep only the centers


def test_resample_step_matches_oracle():
    for seed in range(10):
        cloud, metric, _, _ = noisy_instance(seed + 40, n_max=60)
        index = dc.build_index(cloud, metric)
        k = 3
        prof = dc.profile(cloud, index, k)
        result = dc.declutter(cloud, metric, k, index=index)
        got = dc.resample_step(cloud, metric, result.kept, prof, dc.THEORETICAL_C)
        expect = oracle_resample(cloud.coords, range(cloud.n),
                                 result.kept.tolist(), prof.values,
                                 dc.THEORETICAL_C)
        assert got.tolist() == sorted(expect)


def test_resample_step_validation():
    cloud, metric, _, _ = noisy_instance(2, n_max=50)
    index = dc.build_index(cloud, metric)
    prof = dc.profile(cloud, index, 2)
    with pytest.raises(dc.GeometryError):
        dc.resample_step(cloud, metric, np.array([cloud.n + 3]), prof, 1.0)
    with pytest.raises(dc.GeometryError):
        dc.resample_step(cloud, metric, np.array([0]), prof, 0.0)
    small, small_metric = dc.subset_cloud(cloud, metric, np.arange(4))
    small_prof = dc.profile(small, dc.build_index(small, small_metric), 2)
    with pytest.raises(dc.GeometryError):
        dc.resample_step(cloud, metric, np.array([0]), small_prof, 1.0)


def test_strategy_equivalence():
    for seed in range(15):
        cloud, metric, _, _ = noisy_instance(seed + 70, n_max=120)
        pb, tb = dc.parfree_declutter(cloud, metric, strategy="brute")
        pk, tk = dc.parfree_declutter(cloud, metric, strategy="kdtree")
        assert pb.tolist() == pk.tolist()
        for a, b in zip(tb.iterations, tk.iterations):
            assert a.summary() == b.summary()
            assert a.kept_ids.tolist() == b.kept_ids.tolist()


def test_determinism():
    cloud, metric, _, _ = noisy_instance(12, n_max=100)
    a = dc.parfree_declutter(cloud, metric)
    b = dc.parfree_declutter(cloud, metric)
    assert a[0].tolist() == b[0].tolist()
    assert a[1].to_dict() == b[1].to_dict()


def test_practical_constant_removes_at_least_as_much():
    cloud, metric, _, tags = noisy_instance(6, n_max=200)
    p_theory, _ = dc.parfree_declutter(cloud, metric, C=dc.THEORETICAL_C)
    p_prac, _ = dc.parfree_declutter(cloud, metric, C=dc.PRACTICAL_C)
    assert p_prac.size <= p_theory.size


def _count_knn_tables(monkeypatch):
    """Count NeighborIndex.knn_distance_rows calls (the dense k-NN sweeps)."""
    calls = []
    original = dc.NeighborIndex.knn_distance_rows

    def counted(self, queries, k, threads=1):
        calls.append(int(k))
        return original(self, queries, k, threads=threads)

    monkeypatch.setattr(dc.NeighborIndex, "knn_distance_rows", counted)
    return calls


def test_one_knn_table_per_distinct_surviving_set(monkeypatch):
    calls = _count_knn_tables(monkeypatch)
    reused = 0
    for seed in range(6):
        cloud, metric, _, _ = noisy_instance(seed + 200, n_max=200)
        for strategy in ("brute", "kdtree"):
            calls.clear()
            _, trace = dc.parfree_declutter(cloud, metric, strategy=strategy)
            sets = {tuple(it.input_ids.tolist()) for it in trace.iterations}
            assert len(calls) == len(sets)
            # each table is computed at its set's first (largest) k
            firsts = [it.k_effective for prev, it in
                      zip([None] + trace.iterations, trace.iterations)
                      if prev is None or prev.resampled_ids.size != prev.input_ids.size]
            assert calls == firsts
            reused += len(trace.iterations) - len(sets)
    assert reused > 0  # the instances do exercise table reuse


def _fresh_index_parfree(cloud, metric, kind, C, strategy):
    """Reference loop: a fresh sub-cloud, index and profile every round."""
    current = cloud.ids()
    rounds = []
    for i in range(int(math.floor(math.log2(cloud.n))), 0, -1):
        k = min(2 ** i, int(current.size))
        sub, sub_metric = dc.subset_cloud(cloud, metric, current)
        result = dc.declutter(sub, sub_metric, k, kind=kind, strategy=strategy)
        prof = result.profile
        local = dc.resample_step(sub, sub_metric, result.kept, prof, C,
                                 strategy=strategy)
        rounds.append((current, prof.values, current[result.kept], current[local],
                       {int(current[p]): int(current[r.witness])
                        for p, r in result.rejected.items()}))
        current = current[local]
    return current, rounds


def _parfree_cases():
    for seed in (300, 301):
        cloud, metric, _, _ = noisy_instance(seed, n_max=160)
        yield cloud, metric, "brute", dc.THEORETICAL_C
        yield cloud, metric, "kdtree", dc.THEORETICAL_C
        manhattan = dc.Metric("manhattan")
        matrix = dc.cross_distances(manhattan, cloud.coords, cloud.coords)
        yield (dc.PointCloud.matrix_backed(cloud.n),
               dc.Metric("precomputed", matrix=matrix), "brute", dc.PRACTICAL_C)
    grid = np.indices((9, 7)).reshape(2, -1).T.astype(float)
    grid = dc.PointCloud.from_coords(np.concatenate([grid, [[30.0, 30.0], [4.0, 4.0]]]))
    for strategy in ("brute", "kdtree"):  # integer grid: Manhattan ties everywhere
        yield grid, dc.Metric("manhattan"), strategy, dc.PRACTICAL_C


@pytest.mark.parametrize("kind", [dc.RMS_K, dc.AVG_K, dc.KTH_NN],
                         ids=lambda k: k.name)
def test_table_reuse_matches_fresh_index_loop(kind):
    for cloud, metric, strategy, C in _parfree_cases():
        ids, trace = dc.parfree_declutter(cloud, metric, kind=kind, C=C,
                                          strategy=strategy)
        want_ids, rounds = _fresh_index_parfree(cloud, metric, kind, C, strategy)
        assert ids.tolist() == want_ids.tolist()
        assert len(trace.iterations) == len(rounds)
        for it, (inp, values, kept, resampled, rejected) in zip(trace.iterations,
                                                                rounds):
            assert it.input_ids.tolist() == inp.tolist()
            assert it.profile_values.tobytes() == values.tobytes()
            assert it.kept_ids.tolist() == kept.tolist()
            assert it.resampled_ids.tolist() == resampled.tolist()
            assert it.rejected == rejected
