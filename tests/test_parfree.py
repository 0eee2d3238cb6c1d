import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import declutter as dc
import declutter.geometry as geometry
import declutter.parfree as parfree_module
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
        result = dc.declutter(cloud, metric, k)
        got = dc.resample_step(cloud, metric, result.kept, prof, dc.THEORETICAL_C)
        expect = oracle_resample(cloud.coords, range(cloud.n),
                                 result.kept.tolist(), prof.values,
                                 dc.THEORETICAL_C)
        assert got.tolist() == sorted(expect)



def _resample_cases():
    """(cloud, metric, strategy): coordinate clouds on both strategies under
    both metrics, an integer grid with boundary ties, and a matrix-backed
    cloud."""
    cloud, _, _, _ = noisy_instance(41, n_max=150)
    grid = dc.PointCloud.from_coords(
        np.indices((8, 6)).reshape(2, -1).T.astype(float))
    matrix = dc.cross_distances(dc.Metric("manhattan"), cloud.coords, cloud.coords)
    for c in (cloud, grid):
        for kind in ("euclidean", "manhattan"):
            for strategy in ("brute", "kdtree"):
                yield c, dc.Metric(kind), strategy
    yield (dc.PointCloud.matrix_backed(cloud.n),
           dc.Metric("precomputed", matrix=matrix), "brute")


@pytest.mark.parametrize("C", [0.0, 1.0, 4.0, 1e6])
def test_resample_marks_the_union_of_the_balls(C, monkeypatch):
    # the captured mask equals the union of ball_ids_many, from radius 0
    # (only the centers and their duplicates) to balls holding the whole cloud
    for cloud, metric, strategy in _resample_cases():
        index = dc.build_index(cloud, metric, strategy)
        prof = dc.profile(cloud, index, 3)
        kept = dc.greedy_declutter(cloud, metric, prof).kept
        radii = C * prof.values[kept]
        want = np.zeros(cloud.n, dtype=bool)
        for ids in index.ball_ids_many(cloud.points[kept], radii):
            want[ids] = True
        want[kept] = True
        got = parfree_module._resample(index, kept, radii)
        assert got.dtype == np.intp and got.tolist() == np.flatnonzero(want).tolist()
        if C > 0:
            assert dc.resample_step(cloud, metric, kept, prof, C,
                                    strategy=strategy).tolist() == got.tolist()
        if C == 1e6:
            assert got.size == cloud.n
        if strategy == "kdtree":  # blocks of one ball that holds the whole cloud
            monkeypatch.setattr(geometry, "_CHUNK_CELLS", 1)
            assert parfree_module._resample(index, kept, radii).tolist() == got.tolist()
            monkeypatch.undo()


def test_parfree_builds_one_index_per_distinct_set(monkeypatch):
    # the sweep's index also answers the resampling balls
    built = []
    original = parfree_module.build_index
    monkeypatch.setattr(parfree_module, "build_index", lambda *a, **kw: (
        built.append(a[0].n), original(*a, **kw))[1])
    cloud, metric, _, _ = noisy_instance(203, n_max=200)
    for strategy in ("brute", "kdtree"):
        built.clear()
        _, trace = dc.parfree_declutter(cloud, metric, strategy=strategy)
        sizes = [it.input_ids.size for it in trace.iterations]
        sets = [m for i, m in enumerate(sizes) if i == 0 or m != sizes[i - 1]]
        assert built == sets and len(built) < len(sizes)

def test_resample_step_validation():
    cloud, metric, _, _ = noisy_instance(2, n_max=50)
    index = dc.build_index(cloud, metric)
    prof = dc.profile(cloud, index, 2)
    # out of range, empty, float and bool kept ids
    for kept in ([cloud.n + 3], [-1, 2], [], [0.7, 3.2], [True, False]):
        with pytest.raises(dc.GeometryError):
            dc.resample_step(cloud, metric, np.array(kept), prof, 1.0)
    # inf * 0 would make NaN radii at points whose robust value is 0
    for C in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(dc.GeometryError, match="resampling constant must be finite"):
            dc.resample_step(cloud, metric, np.array([0]), prof, C)
        with pytest.raises(dc.GeometryError, match="resampling constant must be finite"):
            dc.parfree_declutter(cloud, metric, C=C)
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


def _schedules(trace):
    """(set size, remaining k schedule) of each distinct surviving set, in
    order: a set's schedule runs from the round it appears down to k=2."""
    out = []
    for prev, it in zip([None] + trace.iterations, trace.iterations):
        if prev is None or prev.resampled_ids.size != prev.input_ids.size:
            n = int(it.input_ids.size)
            out.append((n, sorted({min(2 ** j, n) for j in range(it.i, 0, -1)})))
    return out


def _dirty_rows(cloud, metric, before, after, K):
    """Brute force: positions in ``after`` of the points that some point of
    ``before`` not in ``after`` lies within rho_K(p) of, rho_K(p) being p's
    K-th nearest distance in ``before``."""
    pts = cloud.points
    removed = np.setdiff1d(before, after)
    rho = np.sort(dc.cross_distances(metric, pts[after], pts[before]), axis=1)[:, K - 1]
    near = dc.cross_distances(metric, pts[after], pts[removed]).min(axis=1)
    return np.flatnonzero(near <= rho)


def test_one_knn_table_per_distinct_surviving_set(monkeypatch):
    # one sweep per distinct set, at that set's whole remaining k schedule:
    # over every member of the first set, and over exactly the members of a
    # shrunk set whose K-ball (K the largest k) in the previous set lost a point
    sweeps = []
    original = parfree_module._sweep

    def counted(index, queries, ks, kind, threads):
        sweeps.append((index.cloud.n, sorted(set(ks)), np.array(queries)))
        return original(index, queries, ks, kind, threads)

    monkeypatch.setattr(parfree_module, "_sweep", counted)
    swept = reused = 0
    for seed in range(6):
        cloud, metric, _, _ = noisy_instance(seed + 200, n_max=200)
        for strategy in ("brute", "kdtree"):
            sweeps.clear()
            _, trace = dc.parfree_declutter(cloud, metric, strategy=strategy)
            sizes = [it.input_ids.size for it in trace.iterations]
            sets = [it.input_ids for i, it in enumerate(trace.iterations)
                    if i == 0 or sizes[i] != sizes[i - 1]]
            assert [(n, ks) for n, ks, _ in sweeps] == _schedules(trace)
            previous_ks = []
            for before, after, (_, ks, queries) in zip([None] + sets, sets, sweeps):
                rows = np.arange(after.size)
                if before is not None and ks[-1] in previous_ks:
                    rows = _dirty_rows(cloud, metric, before, after, ks[-1])
                assert queries.tobytes() == cloud.points[after[rows]].tobytes()
                previous_ks = ks
                swept += rows.size
                reused += after.size - rows.size
    assert reused > swept  # most rows of a shrunk set are copied, not swept


@pytest.mark.parametrize("threads", [1, 2])
def test_parfree_reads_knn_rows_one_block_at_a_time(monkeypatch, threads):
    # no k-NN call may return more cells than one block of the sweep
    cells = 1_000
    monkeypatch.setattr(geometry, "_CHUNK_CELLS", cells)
    sizes = []
    original = dc.NeighborIndex.knn_distance_rows

    def recorded(self, queries, k, threads=1):
        rows = original(self, queries, k, threads=threads)
        sizes.append(rows.size)
        return rows

    monkeypatch.setattr(dc.NeighborIndex, "knn_distance_rows", recorded)
    cloud, metric, _, _ = noisy_instance(201, n_max=200)
    assert cloud.n * 2 ** int(math.log2(cloud.n)) > 4 * cells  # one whole-set table
    for strategy in ("brute", "kdtree"):
        sizes.clear()
        dc.parfree_declutter(cloud, metric, strategy=strategy, threads=threads)
        assert sizes and max(sizes) <= cells


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


def _assert_same_rounds(ids, trace, want_ids, rounds):
    """The run's ids and every round (input, profile bytes, kept, resampled,
    witnesses) equal the reference loop's."""
    assert ids.tolist() == want_ids.tolist()
    assert len(trace.iterations) == len(rounds)
    for it, (inp, values, kept, resampled, rejected) in zip(trace.iterations, rounds):
        assert it.input_ids.tolist() == inp.tolist()
        assert it.profile_values.tobytes() == values.tobytes()
        assert it.kept_ids.tolist() == kept.tolist()
        assert it.resampled_ids.tolist() == resampled.tolist()
        assert it.rejected == rejected


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
        _assert_same_rounds(ids, trace, want_ids, rounds)


@settings(max_examples=60, deadline=None)
@given(core=st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
                     min_size=2, max_size=50),
       far=st.lists(st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
                    max_size=10),
       copies=st.integers(1, 3),
       case=st.sampled_from(["euclidean", "manhattan", "matrix"]),
       kind=st.sampled_from([dc.RMS_K, dc.AVG_K, dc.KTH_NN]),
       C=st.sampled_from([dc.PRACTICAL_C, dc.THEORETICAL_C, 1.0]))
def test_reused_rows_match_a_full_sweep_of_every_set(core, far, copies, case,
                                                     kind, C):
    # integer grids tie everywhere, the copies make coincident clusters and
    # the far points are removed by resampling; every run path must give the
    # ids, witnesses and profile bytes of a loop that sweeps each set in full
    pts = np.array(core * copies + far, dtype=float)
    if case == "matrix":
        matrix = dc.cross_distances(dc.Metric("manhattan"), pts, pts)
        cloud = dc.PointCloud.matrix_backed(pts.shape[0])
        metric = dc.Metric("precomputed", matrix=matrix)
        runs = [("brute", 1), ("brute", 2)]
    else:
        cloud, metric = dc.PointCloud.from_coords(pts), dc.Metric(case)
        runs = [("brute", 1), ("kdtree", 1), ("kdtree", 2)]
    want_ids, rounds = _fresh_index_parfree(cloud, metric, kind, C, "brute")
    for strategy, threads in runs:
        ids, trace = dc.parfree_declutter(cloud, metric, kind=kind, C=C,
                                          strategy=strategy, threads=threads)
        _assert_same_rounds(ids, trace, want_ids, rounds)


def test_a_point_removed_at_exactly_the_kth_distance_is_reswept(monkeypatch):
    # on the line, 0's 2nd nearest distance in S is 1 (itself, then 1.0) and
    # 1.0 is removed: the row of 0 must be swept again, since its 2nd nearest
    # distance in S' is 2 (so is the row of 2.0); 8 and 9 keep their 2-balls
    swept = []
    original = parfree_module._sweep

    def recorded(index, queries, ks, kind, threads):
        swept.append(np.array(queries).ravel().tolist())
        return original(index, queries, ks, kind, threads)

    monkeypatch.setattr(parfree_module, "_sweep", recorded)
    metric = dc.Metric()
    points = np.array([0.0, 1.0, 2.0, 8.0, 9.0]).reshape(-1, 1)
    before = dc.build_index(dc.PointCloud.from_coords(points), metric)
    values, radii = original(before, points, [1, 2, 4], dc.RMS_K, 1)
    survivors = np.array([0, 2, 3, 4])
    after = dc.build_index(dc.PointCloud.from_coords(points[survivors]), metric)
    shrunk = parfree_module._Shrink(survivors, points[[1]], values, radii)
    assert radii[2][0] == 1.0  # the removed point sits exactly at rho_2(0)
    got = parfree_module._set_values(after, [1, 2], dc.RMS_K, 1, shrunk)
    assert swept == [[0.0, 2.0]]
    want = original(after, points[survivors], [1, 2], dc.RMS_K, 1)
    for table, full in zip(got, want):
        assert all(table[k].tobytes() == full[k].tobytes() for k in (1, 2))
    assert got[0][2][0] != values[2][0]  # the copy would have been wrong
    # a largest k that is not on the previous schedule sweeps every row
    swept.clear()
    parfree_module._set_values(after, [1, 2, 3], dc.RMS_K, 1, shrunk)
    assert swept == [[0.0, 2.0, 8.0, 9.0]]


@pytest.mark.parametrize("case", ["gauss-euclidean", "line-manhattan"])
@pytest.mark.parametrize("strategy", ["brute", "kdtree"])
def test_ball_radii_that_overflow_decide_as_the_scaled_cloud(case, strategy):
    # C * d_k overflows on the cloud and, for some kept point, not on the
    # cloud scaled by 2^-4. An infinite radius holds every finite distance,
    # so both resample the same ids, one step and through the whole loop
    pts, metric, kind, k, C = {
        "gauss-euclidean": (np.random.default_rng(67).normal(size=(300, 2)) * 1e150,
                            dc.Metric(), dc.RMS_K, 8, 1e160),
        "line-manhattan": (np.array([[0.0], [1.0e308], [1.7e308]]),
                           dc.Metric("manhattan"), dc.KTH_NN, 2, dc.THEORETICAL_C),
    }[case]
    runs = []
    for scale in (1.0, 2.0 ** -4):
        cloud = dc.PointCloud.from_coords(pts * scale)
        prof = dc.profile(cloud, dc.build_index(cloud, metric, strategy), k, kind)
        kept = dc.greedy_declutter(cloud, metric, prof).kept
        ids, trace = dc.parfree_declutter(cloud, metric, kind, C=C, strategy=strategy)
        runs.append((prof.values[kept], kept.tolist(),
                     dc.resample_step(cloud, metric, kept, prof, C, strategy).tolist(),
                     ids.tolist(), [(it.kept_ids.tolist(), it.resampled_ids.tolist(),
                                     it.rejected) for it in trace.iterations]))
    (big_values, *big), (small_values, *small) = runs
    limit = np.finfo(np.float64).max / C
    assert (big_values > limit).any() and (small_values <= limit).any()
    assert big == small
