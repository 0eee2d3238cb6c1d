import collections
import math
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import declutter as dc
from declutter import evaluation, geometry
from declutter.neighbors import nearest_cross
from conftest import noisy_instance, oracle_hausdorff, random_cloud, uniform_instance


def test_hausdorff_worked_examples():
    metric = dc.Metric()
    a = np.array([[0.0], [1.0]])
    assert dc.hausdorff(a, a.copy(), metric) == 0.0
    assert dc.hausdorff(a, np.array([[0.0], [3.0]]), metric) == 2.0
    assert dc.hausdorff(np.array([[0.0], [2.0]]),
                        np.array([[0.0], [1.0], [2.0]]), metric) == 1.0


def test_hausdorff_empty_errors():
    with pytest.raises(dc.GeometryError):
        dc.hausdorff(np.empty((0, 2)), np.zeros((1, 2)))


def test_hausdorff_symmetry_and_oracle():
    rng = np.random.default_rng(8)
    for _ in range(20):
        A = rng.normal(size=(rng.integers(2, 30), 3))
        B = rng.normal(size=(rng.integers(2, 30), 3))
        h = dc.hausdorff(A, B)
        assert h == dc.hausdorff(B, A)
        assert h == pytest.approx(oracle_hausdorff(A, B), abs=1e-12)


def test_hausdorff_triangle_inequality():
    rng = np.random.default_rng(13)
    for _ in range(50):
        A = rng.normal(size=(rng.integers(2, 20), 2))
        B = rng.normal(size=(rng.integers(2, 20), 2))
        C = rng.normal(size=(rng.integers(2, 20), 2))
        assert dc.hausdorff(A, C) <= dc.hausdorff(A, B) + dc.hausdorff(B, C) + 1e-9


def test_adaptive_hausdorff_reductions():
    cloud, metric, kref, _ = noisy_instance(1, n_max=60)
    ones = dc.GroundTruthRef(kref.cloud, np.ones(kref.cloud.n))
    twos = dc.GroundTruthRef(kref.cloud, np.full(kref.cloud.n, 2.0))
    plain = dc.hausdorff(cloud.coords, kref.points, metric)
    assert dc.adaptive_hausdorff(cloud.coords, ones, metric) == pytest.approx(
        plain, abs=1e-12)
    assert dc.adaptive_hausdorff(cloud.coords, twos, metric) == pytest.approx(
        plain / 2.0, abs=1e-12)
    assert dc.adaptive_hausdorff(kref.points, ones, metric) == 0.0


def test_relaxed_bound_values():
    assert dc.relaxed_bound(1.0, 1.0) == 7.0
    assert dc.relaxed_bound(1.0, 2.0) == 21.0  # max{2+2+16+1, 11}
    with pytest.raises(dc.GeometryError):
        dc.relaxed_bound(2.0, 1.0)
    with pytest.raises(dc.GeometryError):
        dc.relaxed_bound(0.5, 1.0)


def test_relaxed_bound_monotone():
    lips = np.linspace(1.0, 5.0, 40)
    vals = [dc.relaxed_bound(1.0, c) for c in lips]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    cxs = np.linspace(1.0, 1.99, 40)
    vals = [dc.relaxed_bound(c, 1.0) for c in cxs]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_constants():
    assert dc.KAPPA_CONSERVE == pytest.approx((18 + 17 * math.sqrt(2)) / 4)
    assert dc.KAPPA_CONSERVE == pytest.approx(10.5104, abs=5e-5)
    assert dc.PARFREE_FACTOR == pytest.approx(87 + 16 * math.sqrt(2))
    assert dc.PARFREE_FACTOR == pytest.approx(109.627, abs=5e-4)


def _certified_run(seed):
    cloud, metric, kref, k = uniform_instance(seed)
    cert = dc.certify(cloud, metric, kref, k)
    result = dc.declutter(cloud, metric, k)
    return cloud, metric, kref, cert, result


def test_declutter_bounds_pass_on_certified_instance():
    cloud, metric, kref, cert, result = _certified_run(0)
    for name in ("thm3.3", "lem3.1", "lem3.2"):
        got = dc.verify_bound(name, cloud=cloud, metric=metric, kref=kref,
                              certificate=cert, result=result)
        assert got.applicable and got.passed, name
    got = dc.verify_bound("prop3.4", cloud=cloud, metric=metric, kref=kref,
                          certificate=cert, result=result)
    assert got.applicable and got.passed


def test_verify_bounds_calls_the_module_functions_by_name(monkeypatch):
    # a profiler replaces evaluation.verify_bound and the Hausdorff functions
    # to time and count the bounds; verify_bounds must run through them,
    # one verify_bound per name and one directed pass per direction
    cloud, metric, kref, cert, result = _certified_run(0)
    names = ["thm3.3", "lem3.1", "lem3.2", "prop3.4"]
    calls = collections.Counter()
    for name in ("verify_bound", "directed_hausdorff"):
        real = getattr(evaluation, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(evaluation, name, counted)
    got = dc.verify_bounds(names, cloud=cloud, metric=metric, kref=kref,
                           certificate=cert, result=result)
    assert [c.bound_name for c in got] == names and all(c.passed for c in got)
    assert calls == {"verify_bound": 4, "directed_hausdorff": 2}


def test_bound_certificate_invariant_and_rederivable():
    cloud, metric, kref, cert, result = _certified_run(1)
    a = dc.verify_bound("thm3.3", cloud=cloud, metric=metric, kref=kref,
                        certificate=cert, result=result)
    b = dc.verify_bound("thm3.3", cloud=cloud, metric=metric, kref=kref,
                        certificate=cert, result=result)
    assert a.to_dict() == b.to_dict()  # bit-for-bit re-derivable
    assert a.passed == (a.lhs <= a.rhs + 1e-9)


def test_hypothesis_gating_not_applicable():
    cloud, metric, kref, cert, _ = _certified_run(2)
    # uniformity absent -> prop3.4 not applicable
    dup = dc.PointCloud.from_coords(
        np.vstack([cloud.coords, cloud.coords[:1]]))
    dup_cert = dc.certify(dup, metric, kref, 2)
    assert dup_cert.uniformity_c is None
    dup_res = dc.declutter(dup, metric, 2)
    got = dc.verify_bound("prop3.4", cloud=dup, metric=metric, kref=kref,
                          certificate=dup_cert, result=dup_res)
    assert not got.applicable
    # mismatched k between the certificate and the run
    other = dc.declutter(cloud, metric, cert.k + 1)
    got = dc.verify_bound("thm3.3", cloud=cloud, metric=metric, kref=kref,
                          certificate=cert, result=other)
    assert not got.applicable and got.passed is None


def _grid_prop34(side, k):
    # a scaled integer grid: many pairs at one distance up to the last ulp
    grid = np.indices((side, side)).reshape(2, -1).T * 0.1
    cloud, metric = dc.PointCloud.from_coords(grid), dc.Metric()
    kref = dc.GroundTruthRef(cloud)
    return (cloud, metric, kref, dc.certify(cloud, metric, kref, k),
            dc.declutter(cloud, metric, k))


def _brute_separation(points):
    block = dc.cross_distances(dc.Metric(), points, points)
    block[np.diag_indices_from(block)] = np.inf
    return block.min()


@pytest.mark.parametrize("side", [8, 30])  # kept rows from dense blocks, tree
def test_prop34_rhs_equals_brute_separation(side):
    cloud, metric, kref, cert, result = _grid_prop34(side, 2)
    got = dc.verify_bound("prop3.4", cloud=cloud, metric=metric, kref=kref,
                          certificate=cert, result=result)
    assert got.applicable
    want = _brute_separation(cloud.coords[result.kept_ids])
    assert np.float64(got.rhs).tobytes() == want.tobytes()
    assert got.inputs["min_pairwise_kept"] == got.rhs


def test_prop34_rhs_is_zero_on_coincident_kept_points():
    cloud, metric, kref, cert, result = _certified_run(0)
    dup = dc.PointCloud.from_coords(np.vstack([cloud.coords, cloud.coords[3]]))
    both = dc.DeclutterResult(kept=np.arange(dup.n), rejected={},
                              order=np.arange(dup.n), profile=result.profile)
    got = dc.verify_bound("prop3.4", cloud=dup, metric=metric, kref=kref,
                          certificate=cert, result=both)
    assert got.applicable and got.rhs == 0.0
    assert _brute_separation(dup.coords) == 0.0


def test_prop34_blocks_stay_within_the_cell_budget(monkeypatch):
    cloud, metric, kref, cert, result = _grid_prop34(8, 2)
    budget = 100
    assert cloud.n <= budget < result.kept.size ** 2
    real = geometry.cross_distances
    cells = []

    def counted(*args, **kwargs):
        block = real(*args, **kwargs)
        cells.append(block.size)
        return block

    for name, module in list(sys.modules.items()):
        if name.startswith("declutter") and getattr(module, "cross_distances", None) is real:
            monkeypatch.setattr(module, "cross_distances", counted)
    monkeypatch.setattr(geometry, "_CHUNK_CELLS", budget)
    got = dc.verify_bound("prop3.4", cloud=cloud, metric=metric, kref=kref,
                          certificate=cert, result=result)
    assert got.applicable and cells
    assert max(cells) <= budget


def test_thm37_adaptive_bound():
    cloud, metric, kref, k = uniform_instance(3)
    f = dc.feature_from_anchor(kref.points[0], 1.0)
    akref = dc.GroundTruthRef(kref.cloud, f(kref.points))
    cert = dc.certify(cloud, metric, akref, k, adaptive=True)
    result = dc.declutter(cloud, metric, k)
    got = dc.verify_bound("thm3.7", cloud=cloud, metric=metric, kref=akref,
                          certificate=cert, result=result)
    assert got.applicable and got.passed
    plain_cert = dc.certify(cloud, metric, kref, k)
    got = dc.verify_bound("thm3.7", cloud=cloud, metric=metric, kref=kref,
                          certificate=plain_cert, result=result)
    assert not got.applicable


def test_declutter_bound_holds_for_all_distance_kinds():
    # the single-pass guarantee only needs domination and 1-Lipschitz, so it
    # holds for the average and k-th neighbor variants too
    cloud, metric, kref, k = uniform_instance(9)
    for kind in (dc.RMS_K, dc.AVG_K, dc.KTH_NN):
        cert = dc.certify(cloud, metric, kref, k, kind=kind)
        result = dc.declutter(cloud, metric, k, kind=kind)
        got = dc.verify_bound("thm3.3", cloud=cloud, metric=metric, kref=kref,
                              certificate=cert, result=result)
        assert got.applicable and got.passed, kind.name


def test_lem42_bound_random_clouds():
    for seed in range(20):
        cloud, metric = random_cloud(seed, n_max=150)
        k = min(11, cloud.n)
        got = dc.verify_bound("lem4.2", cloud=cloud, metric=metric, k=k)
        assert got.applicable and got.passed


def test_lem42_reads_its_rows_on_the_bound_threads(monkeypatch):
    seen = []
    original = dc.NeighborIndex.knn_distance_rows

    def recorded(self, queries, k, threads=1):
        seen.append(threads)
        return original(self, queries, k, threads)

    monkeypatch.setattr(dc.NeighborIndex, "knn_distance_rows", recorded)
    cloud, metric = random_cloud(3, n_max=150)
    single = dc.verify_bound("lem4.2", cloud=cloud, metric=metric, k=5)
    assert seen == [1]
    seen.clear()
    assert dc.verify_bound("lem4.2", cloud=cloud, metric=metric, k=5,
                           threads=2) == single
    assert seen == [2]


def test_lem44_single_step_bound():
    cloud, metric, kref, k = uniform_instance(4)
    cert = dc.certify(cloud, metric, kref, k)
    assert cert.uniformity_c is not None and cert.uniformity_c <= 2.0
    result = dc.declutter(cloud, metric, k)
    resampled = dc.resample_step(cloud, metric, result.kept, result.profile,
                                 dc.THEORETICAL_C)
    got = dc.verify_bound("lem4.4", cloud=cloud, metric=metric, kref=kref,
                          certificate=cert, result=result,
                          resampled_ids=resampled, C=dc.THEORETICAL_C)
    assert got.applicable and got.passed


@pytest.mark.parametrize("C", [-1.0, 0.0, math.inf, math.nan])
def test_lem44_rejects_a_constant_that_is_not_finite_and_positive(C):
    # -1 used to FAIL with a negative rhs, nan to FAIL and inf to pass
    cloud, metric, kref, k = uniform_instance(4)
    cert = dc.certify(cloud, metric, kref, k)
    result = dc.declutter(cloud, metric, k)
    resampled = dc.resample_step(cloud, metric, result.kept, result.profile,
                                 dc.THEORETICAL_C)
    with pytest.raises(dc.GeometryError, match="C must be finite and positive"):
        dc.verify_bound("lem4.4", cloud=cloud, metric=metric, kref=kref,
                        certificate=cert, result=result,
                        resampled_ids=resampled, C=C)


def test_lem45_conservation_bound():
    for seed in range(5):
        cloud, metric, kref, _ = noisy_instance(seed, n_max=150)
        _, trace = dc.parfree_declutter(cloud, metric)
        got = dc.verify_bound("lem4.5", cloud=cloud, metric=metric, trace=trace)
        assert got.applicable and got.passed
    # practical constant -> gated off
    _, trace = dc.parfree_declutter(cloud, metric, C=dc.PRACTICAL_C)
    got = dc.verify_bound("lem4.5", cloud=cloud, metric=metric, trace=trace)
    assert not got.applicable


def test_thm41_bound_and_gating():
    shape = dc.Circle((0.0, 0.0), 1.0)
    n = 256
    kref, sample = dc.sample_shape(shape, n, seed=None)
    noisy = dc.perturb_gaussian(sample, 1e-4, 3)
    cloud = dc.PointCloud.from_coords(noisy)
    metric = dc.Metric()
    i_star = int(math.floor(math.log2(n)))
    ks = [2 ** i for i in range(1, i_star + 1)]
    full = dc.certify_scales(cloud, metric, kref, ks)
    weak = dc.certify_scales(cloud, metric, kref, ks, weak=True)
    p0, trace = dc.parfree_declutter(cloud, metric)
    i0 = 1
    certs = {2 ** i: (full[2 ** i] if i == i0 else weak[2 ** i])
             for i in range(1, i_star + 1)}
    got = dc.verify_bound("thm4.1", cloud=cloud, metric=metric, kref=kref,
                          trace=trace, certificates=certs, i0=i0)
    assert got.applicable and got.passed
    # missing certificate at one scale -> not applicable
    partial = dict(certs)
    partial.pop(2 ** i_star)
    got = dc.verify_bound("thm4.1", cloud=cloud, metric=metric, kref=kref,
                          trace=trace, certificates=partial, i0=i0)
    assert not got.applicable


def test_thmD2_relaxed_bound_check():
    cloud, metric, kref, k = uniform_instance(6)
    cert = dc.certify(cloud, metric, kref, k)
    result = dc.declutter(cloud, metric, k)
    got = dc.verify_bound("thmD.2", cloud=cloud, metric=metric, kref=kref,
                          certificate=cert, result=result)
    assert got.applicable and got.passed
    assert got.inputs["m"] == 7.0
    got = dc.verify_bound("thmD.2", cloud=cloud, metric=dc.Metric(relaxation=2.5),
                          kref=kref, certificate=cert, result=result)
    assert not got.applicable


def test_unknown_bound_name():
    with pytest.raises(dc.GeometryError):
        dc.verify_bound("thm9.9")


def test_hausdorff_thread_count_invariance():
    rng = np.random.default_rng(77)
    A = rng.normal(size=(3000, 3))
    B = rng.normal(size=(2000, 3))
    metric = dc.Metric()
    assert dc.hausdorff(A, B, metric, threads=1) == dc.hausdorff(
        A, B, metric, threads=4)


@st.composite
def _grid_sets(draw):
    """Query and target sets on a small integer grid, so that nearest
    distances tie (at the maximum too) and points repeat, scaled by a factor
    at which squares may underflow or sums of squares overflow; the queries
    are sorted one time in two."""
    dim = draw(st.integers(1, 3))
    side = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31 - 1)))
    # 2**(dim + 4) targets and more put the tree in charge
    targets = rng.integers(0, side, size=(draw(st.integers(1, 160)), dim))
    queries = rng.integers(-1, side + 1, size=(draw(st.integers(1, 100)), dim))
    queries = np.vstack([queries, queries[:draw(st.integers(0, queries.shape[0]))]])
    if draw(st.booleans()):  # rows near in order are near in space
        queries = queries[np.lexsort(queries.T)]
    scale = draw(st.sampled_from([1.0, 0.1, 1e-160, 1e-170, 1e154, 2e307]))
    metric = dc.Metric(draw(st.sampled_from(["euclidean", "manhattan"])))
    return queries * scale, targets * scale, metric, draw(st.sampled_from([1, 2]))


def test_directed_hausdorff_bytes_equal_the_dense_maximum():
    # the tree path sends only the rows that can hold the maximum down the
    # exact path; its answer must be the dense block's, byte for byte
    overflowed = collections.Counter()

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(case=_grid_sets())
    def check(case):
        queries, targets, metric, threads = case
        want = dc.cross_distances(metric, queries, targets).min(axis=1).max()
        got = dc.directed_hausdorff(queries, targets, metric, threads)
        assert np.float64(got).tobytes() == want.tobytes(), (got, want)
        overflowed[bool(np.isinf(want))] += 1

    check()
    assert overflowed[True] and overflowed[False]


@pytest.mark.parametrize("call", [
    lambda a, metric: dc.directed_hausdorff(a, a, metric),
    lambda a, metric: dc.hausdorff(a, a, metric),
    lambda a, metric: dc.adaptive_hausdorff(
        a, dc.GroundTruthRef(dc.PointCloud.from_coords(a), np.ones(len(a))), metric),
], ids=["directed_hausdorff", "hausdorff", "adaptive_hausdorff"])
@pytest.mark.parametrize("metric", ["euclidean", 2, dc.Metric])
def test_hausdorff_refuses_a_metric_that_is_not_a_metric(call, metric):
    # a name used to escape as AttributeError: 'str' object has no attribute 'kind'
    with pytest.raises(dc.GeometryError, match="metric must be a Metric"):
        call(np.zeros((3, 2)), metric)


@pytest.mark.parametrize("name", ["thm3.3", "prop3.4", "lem4.2"])
def test_bounds_refuse_a_metric_that_does_not_measure_the_cloud(name):
    # matrix ids read with a coordinate metric would be 1-D points
    cloud, metric, kref, cert, result = _certified_run(0)
    matrix_cloud = dc.PointCloud.matrix_backed(cloud.n)
    with pytest.raises(dc.GeometryError, match="needs a precomputed metric"):
        dc.verify_bound(name, cloud=matrix_cloud, metric=metric, kref=kref,
                        certificate=cert, result=result, k=2)


def test_matrix_mode_hausdorff_over_id_sets():
    pts = np.array([[0.0], [1.0], [2.0], [10.0]])
    m = dc.cross_distances(dc.Metric(), pts, pts)
    metric = dc.Metric("precomputed", matrix=m)
    assert dc.hausdorff([0, 1], [0, 3], metric) == 9.0


def test_matrix_ids_are_validated():
    pts = np.array([[0.0], [1.0], [2.0]])
    metric = dc.Metric("precomputed", matrix=dc.cross_distances(dc.Metric(), pts, pts))
    with pytest.raises(dc.GeometryError, match="query id"):
        dc.directed_hausdorff([-1], [0, 1], metric)  # no wrap to the last row
    with pytest.raises(dc.GeometryError, match="ids out of range"):
        dc.directed_hausdorff([0], [0, 3], metric)
    with pytest.raises(dc.GeometryError, match="integers"):
        dc.directed_hausdorff([0], [0, 1.7], metric)  # no truncation to 1
    with pytest.raises(dc.GeometryError, match="at least one"):
        nearest_cross(metric, [0], [])


def _uniform_loop_run():
    """A 128-point near-regular circle with every artifact the id-reading
    bounds take, each of them applicable."""
    shape = dc.Circle((0.0, 0.0), 1.0)
    kref, sample = dc.sample_shape(shape, 128, seed=None)
    cloud = dc.PointCloud.from_coords(dc.perturb_gaussian(sample, 5e-4, 3))
    metric = dc.Metric()
    ks = [2 ** i for i in range(1, 8)]
    certs = dc.certify_scales(cloud, metric, kref, ks)
    result = dc.declutter(cloud, metric, 4)
    resampled = dc.resample_step(cloud, metric, result.kept, result.profile,
                                 dc.THEORETICAL_C)
    _, trace = dc.parfree_declutter(cloud, metric)
    return dict(cloud=cloud, metric=metric, kref=kref, certificate=certs[4],
                result=result, resampled_ids=resampled, C=dc.THEORETICAL_C,
                trace=trace, certificates=certs, i0=1)


def _with_iteration(trace, index, **changes):
    its = list(trace.iterations)
    its[index] = replace(its[index], **changes)
    return replace(trace, iterations=its)


@pytest.mark.parametrize("bad", [-1, 128, 1.5])
def test_bounds_reject_ids_that_are_not_members(bad):
    args = _uniform_loop_run()
    names = ("thm3.3", "lem3.1", "lem3.2", "thmD.2", "lem4.4", "thm4.1", "lem4.5")
    for name in names:
        assert dc.verify_bound(name, **args).applicable, name
    result, trace = args["result"], args["trace"]
    kept = np.append(result.kept, bad)
    resampled = np.append(args["resampled_ids"], bad)
    final = np.append(trace.iterations[-1].resampled_ids, bad)
    inputs = np.append(trace.iterations[0].input_ids[:-1], bad)
    probes = [(name, {"result": replace(result, kept=kept)})
              for name in ("thm3.3", "lem3.1", "lem3.2", "thmD.2")]
    probes += [("lem4.4", {"resampled_ids": resampled}),
               ("thm4.1", {"trace": _with_iteration(trace, -1, resampled_ids=final)}),
               ("lem4.5", {"trace": _with_iteration(trace, -1, resampled_ids=final)}),
               ("lem4.5", {"trace": _with_iteration(trace, 0, input_ids=inputs)})]
    for name, changed in probes:
        with pytest.raises(dc.GeometryError, match="ids"):
            dc.verify_bound(name, **{**args, **changed})


def test_parameter_free_bounds_require_an_exact_metric():
    # a relaxed metric, or a distance matrix, gates thm4.1 and lem4.5 off as
    # it gates the single-pass bounds; thmD.2 is the relaxed-metric bound
    args = _uniform_loop_run()
    pts = args["cloud"].coords
    matrix = dc.Metric("precomputed", matrix=dc.cross_distances(args["metric"], pts, pts))
    on_ids = dc.PointCloud.matrix_backed(pts.shape[0])
    _, trace = dc.parfree_declutter(on_ids, matrix)
    relaxed = {**args, "metric": dc.Metric(relaxation=1.9)}
    on_matrix = {**args, "cloud": on_ids, "metric": matrix, "trace": trace}
    for name in ("thm4.1", "lem4.5"):
        assert dc.verify_bound(name, **args).applicable
        for run in (relaxed, on_matrix):
            got = dc.verify_bound(name, **run)
            assert not got.applicable and got.passed is None
            assert got.inputs["reason"] == "requires an exact metric"
    got = dc.verify_bound("thmD.2", **relaxed)
    assert got.applicable and got.inputs["c_lip"] == 1.0
    assert got.inputs["m"] == dc.relaxed_bound(1.9, 1.0)
    # thmD.2 takes a matrix metric, but it compares the kept set with the
    # reference by coordinates, which matrix ids lack
    got = dc.verify_bound("thmD.2", **on_matrix)
    assert not got.applicable and got.passed is None
    assert "coordinates" in got.inputs["reason"]


@pytest.mark.parametrize("C", [math.nan, math.inf, dc.PRACTICAL_C])
def test_parameter_free_bounds_need_the_theoretical_constant(C):
    # a NaN constant used to pass the gate, and lem4.5 was checked
    args = _uniform_loop_run()
    args["trace"] = replace(args["trace"], resampling_constant=C)
    for name in ("thm4.1", "lem4.5"):
        got = dc.verify_bound(name, **args)
        assert not got.applicable and got.passed is None
        assert "theoretical resampling constant" in got.inputs["reason"]


def test_lem45_rejects_a_short_profile():
    args = _uniform_loop_run()
    first = args["trace"].iterations[0]
    short = _with_iteration(args["trace"], 0,
                            profile_values=first.profile_values[:-1])
    with pytest.raises(dc.GeometryError, match="profile values"):
        dc.verify_bound("lem4.5", **{**args, "trace": short})


def test_lem42_lhs_bytes_match_the_written_out_formula():
    for seed, k in ((3, 5), (8, 1), (21, 16)):
        cloud, metric = random_cloud(seed, n_max=150)
        k = min(k, cloud.n)
        got = dc.verify_bound("lem4.2", cloud=cloud, metric=metric, k=k,
                              sample_limit=40, seed=seed)
        pick = np.random.default_rng(seed).choice(cloud.n, size=min(cloud.n, 40),
                                                  replace=False)
        rows = dc.build_index(cloud, metric).knn_distance_rows(cloud.points[pick], k)
        factors = np.sqrt(k / (k - np.arange(1, k + 1) + 1.0))
        rms = np.sqrt(np.cumsum(rows * rows, axis=1)[:, -1] / float(k))
        want = float((rows - factors[None, :] * rms[:, None]).max())
        assert np.float64(got.lhs).tobytes() == np.float64(want).tobytes()


def test_lem42_overflow_raises_instead_of_failing():
    pts = np.random.default_rng(0).normal(size=(300, 2)) * 1e160
    cloud = dc.PointCloud.from_coords(pts)
    with pytest.raises(dc.GeometryError, match="overflow float64"):
        dc.verify_bound("lem4.2", cloud=cloud, k=8)


@pytest.mark.parametrize("limit", [0, -3, True, 1.5])
def test_sample_limit_must_be_a_positive_integer(limit):
    cloud, metric = random_cloud(4, n_max=60)
    with pytest.raises(dc.GeometryError, match="sample_limit"):
        dc.verify_bound("lem4.2", cloud=cloud, metric=metric, k=3,
                        sample_limit=limit)
    assert dc.verify_bound("lem4.2", cloud=cloud, metric=metric, k=3,
                           sample_limit=np.int64(1)).applicable


_CERTIFICATE_FAULTS = {
    "wrong k": lambda cert: replace(cert, k=2 * cert.k),
    "wrong kind": lambda cert: replace(cert, kind=dc.AVG_K),
    "weak": lambda cert: replace(cert, weak_uniform=True),
    "adaptive flipped": lambda cert: replace(cert, adaptive=not cert.adaptive),
}


@pytest.fixture(scope="module")
def gated_runs():
    """Applicable inputs for every bound that reads a certificate; thm3.7
    gets an adaptive reference and certificate."""
    args = _uniform_loop_run()
    f = dc.feature_from_anchor(args["kref"].points[0], 1.0)
    akref = dc.GroundTruthRef(args["kref"].cloud, f(args["kref"].points))
    adaptive = dc.certify(args["cloud"], args["metric"], akref, 4, adaptive=True)
    return args, {**args, "kref": akref, "certificate": adaptive}


@pytest.mark.parametrize("fault", sorted(_CERTIFICATE_FAULTS))
@pytest.mark.parametrize("name", ["thm3.3", "lem3.1", "lem3.2", "prop3.4", "thm3.7",
                                  "lem4.4", "thmD.2", "thm4.1"])
def test_every_bound_gates_its_certificates(gated_runs, name, fault):
    args = gated_runs[1] if name == "thm3.7" else gated_runs[0]
    assert dc.verify_bound(name, **args).applicable
    spoil = _CERTIFICATE_FAULTS[fault]
    if name != "thm4.1":
        got = dc.verify_bound(name, **{**args, "certificate": spoil(args["certificate"])})
        assert not got.applicable and got.passed is None
        return
    # the full certificate at i0, and (except for weakness, which is allowed
    # there) the one at the top scale
    certs, i0 = args["certificates"], args["i0"]
    top = args["trace"].iterations[0].i
    for i in ([i0] if fault == "weak" else [i0, top]):
        spoiled = {**certs, 2 ** i: spoil(certs[2 ** i])}
        got = dc.verify_bound(name, **{**args, "certificates": spoiled})
        assert not got.applicable, i
        assert got.inputs["reason"].endswith(f"at scale {i}")


@st.composite
def _circle_instances(draw):
    """A noisy circle with ambient points (n 60-400, up to n/3 ambient), half
    of them sampled adaptively to ``feature_from_anchor`` sizes, or, one time
    in three, a near-regular ``uniform_instance``-style sample whose
    uniformity constant can meet the c <= 2 gates; with a metric, a kind
    and a k."""
    uniform = draw(st.integers(0, 2)) == 0
    adaptive = not uniform and draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 31 - 1))
    rng = np.random.default_rng(seed)
    metric = dc.Metric(draw(st.sampled_from(["euclidean", "manhattan"])))
    kind = draw(st.sampled_from([dc.RMS_K, dc.AVG_K, dc.KTH_NN]))
    k = draw(st.sampled_from([2, 4, 8, 16]))
    radius = float(rng.uniform(0.5, 2.0))
    shape = dc.Circle((float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1))), radius)
    if uniform:
        n = draw(st.integers(60, 240))
        kref, pts = dc.sample_shape(shape, n, seed=None)
        pts = dc.perturb_gaussian(pts, 0.02 * shape.length / n, seed)
    else:
        n = draw(st.integers(60, 400))
        ambient = draw(st.integers(0, n // 3))
        sigma = draw(st.sampled_from([0.0, 0.002, 0.01, 0.03]))
        if adaptive:  # spacing grows away from an anchor on the circle
            theta = rng.uniform(0.0, 2 * np.pi)
            anchor = np.add(shape.center, radius * np.array([np.cos(theta),
                                                             np.sin(theta)]))
            f = dc.feature_from_anchor(anchor, float(rng.uniform(0.05, 0.5)) * radius)
            kref, pts = dc.sample_shape(shape, n - ambient, mode="adaptive",
                                        seed=seed, feature_fn=f)
        else:
            kref, pts = dc.sample_shape(shape, n - ambient, seed=seed)
        pts = dc.perturb_gaussian(pts, sigma * radius, seed + 1)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        pad = 0.5 * float((hi - lo).max())
        pts, _ = dc.add_ambient_noise(pts, (lo - pad, hi + pad), ambient, seed + 2)
    cloud = dc.PointCloud.from_coords(pts)
    return cloud, metric, kref, kind, k, uniform, adaptive


def test_every_applicable_bound_holds_on_random_instances():
    # the paper's bounds as an oracle: on any instance, a bound whose
    # hypotheses the certificates meet must pass; a failure is a wrong
    # algorithm or a wrong check, and the message names the bound and draw
    applicable = collections.Counter()

    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(instance=_circle_instances())
    def check(instance):
        cloud, metric, kref, kind, k, uniform, adaptive = instance
        cert = dc.certify(cloud, metric, kref, k, kind=kind)
        result = dc.declutter(cloud, metric, k, kind=kind)
        resampled = dc.resample_step(cloud, metric, result.kept, result.profile,
                                     dc.THEORETICAL_C)
        _, trace = dc.parfree_declutter(cloud, metric, kind=kind)
        runs = {"lem4.2": {"k": k}, "lem4.5": {"trace": trace},
                "lem4.4": {"kref": kref, "certificate": cert, "result": result,
                           "resampled_ids": resampled, "C": dc.THEORETICAL_C}}
        for name in ("thm3.3", "lem3.1", "lem3.2", "prop3.4", "thmD.2"):
            runs[name] = {"kref": kref, "certificate": cert, "result": result}
        if adaptive:
            runs["thm3.7"] = {"kref": kref, "result": result,
                              "certificate": dc.certify(cloud, metric, kref, k,
                                                        kind=kind, adaptive=True)}
        if uniform:  # full at i0 = 1, weak at every scale above
            ks = [2 ** i for i in range(1, trace.iterations[0].i + 1)]
            certs = {**dc.certify_scales(cloud, metric, kref, ks[:1], kind=kind),
                     **dc.certify_scales(cloud, metric, kref, ks[1:], kind=kind,
                                         weak=True)}
            runs["thm4.1"] = {"kref": kref, "trace": trace, "certificates": certs,
                              "i0": 1}
        for name, inputs in runs.items():
            got = dc.verify_bound(name, cloud=cloud, metric=metric, **inputs)
            if got.applicable:
                applicable[name] += 1
                assert got.passed, (name, cloud.n, metric.kind, kind.name, k,
                                    uniform, adaptive, got.to_dict())

    check()
    floors = {"thm3.3": 100, "lem3.1": 100, "lem3.2": 100, "prop3.4": 100,
              "thmD.2": 100, "lem4.2": 100, "lem4.5": 100, "lem4.4": 30,
              "thm4.1": 30, "thm3.7": 30}
    assert all(applicable[name] >= floor for name, floor in floors.items()), applicable
