import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import declutter as dc
from declutter.robust import KIND_NAMES
from conftest import (line_cloud, noisy_instance, oracle_epsilon, oracle_robust,
                      uniform_instance)

# the module, which the package's ``certify`` function shadows
certify_module = importlib.import_module("declutter.certify")


def _line_ref():
    return dc.GroundTruthRef(dc.PointCloud.from_coords([[0.0], [1.0], [2.0]]))


def test_epsilon_line_example():
    cloud, metric = line_cloud()
    eps = dc.estimate_epsilon_k(cloud, metric, _line_ref(), 2)
    # condition 2 at the outlier dominates: 98 - 98/sqrt(2)
    assert eps == pytest.approx(98.0 - 98.0 / math.sqrt(2.0), abs=1e-9)
    assert eps == pytest.approx(
        oracle_epsilon(cloud.coords, _line_ref().points, 2), abs=1e-9)


def test_epsilon_clean_sample_k1_zero():
    pts = np.random.default_rng(0).normal(size=(30, 2))
    cloud = dc.PointCloud.from_coords(pts)
    kref = dc.GroundTruthRef(dc.PointCloud.from_coords(pts.copy()))
    assert dc.estimate_epsilon_k(cloud, dc.Metric(), kref, 1) == 0.0


def test_epsilon_coincident_cover():
    # one cloud point on each reference point: condition 2 slack <= 0
    ref_pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    kref = dc.GroundTruthRef(dc.PointCloud.from_coords(ref_pts))
    cloud = dc.PointCloud.from_coords(ref_pts.copy())
    metric = dc.Metric()
    eps = dc.estimate_epsilon_k(cloud, metric, kref, 2)
    index = dc.build_index(cloud, metric)
    expect = dc.values_at(index, ref_pts, 2).max()
    assert eps == pytest.approx(float(expect), abs=1e-12)


def test_uniformity_line_example():
    cloud, metric = line_cloud()
    c = dc.certify(cloud, metric, _line_ref(), 2).uniformity_c
    assert c == pytest.approx(98.0 * (math.sqrt(2.0) - 1.0), abs=1e-9)


def test_uniformity_perfectly_uniform():
    # equilateral triangle as its own reference: every k=2 value, and so
    # epsilon (cond1), equals the side length / sqrt(2)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    cloud = dc.PointCloud.from_coords(pts)
    kref = dc.GroundTruthRef(dc.PointCloud.from_coords(pts.copy()))
    c = dc.certify(cloud, dc.Metric(), kref, 2).uniformity_c
    assert c == pytest.approx(1.0, abs=1e-12)


def test_uniformity_absent_for_duplicates():
    pts = np.array([[0.0], [0.0], [5.0]])
    cloud = dc.PointCloud.from_coords(pts)
    kref = dc.GroundTruthRef(dc.PointCloud.from_coords([[0.0], [5.0]]))
    cert = dc.certify(cloud, dc.Metric(), kref, 2)
    assert cert.epsilon_k > 0 and cert.uniformity_c is None


def test_adaptive_constant_feature_reduces_to_plain():
    cloud, metric, kref, _ = noisy_instance(5, n_max=80)
    plain = dc.estimate_epsilon_k(cloud, metric, kref, 3)
    ones = dc.GroundTruthRef(kref.cloud, np.ones(kref.cloud.n))
    twos = dc.GroundTruthRef(kref.cloud, np.full(kref.cloud.n, 2.0))
    assert dc.certify(cloud, metric, ones, 3, adaptive=True).epsilon_k == plain
    assert dc.certify(cloud, metric, twos, 3, adaptive=True).epsilon_k == pytest.approx(
        plain / 2.0, abs=1e-12)


def test_adaptive_nonconstant_matches_bruteforce():
    cloud, metric, kref, _ = noisy_instance(7, n_max=60)
    f_fn = dc.feature_from_anchor(kref.points[0], 0.5)
    fvals = f_fn(kref.points)
    adaptive_ref = dc.GroundTruthRef(kref.cloud, fvals)
    got = dc.certify(cloud, metric, adaptive_ref, 3, adaptive=True).epsilon_k
    cond1 = max(oracle_robust(cloud.coords, x, 3) / f
                for x, f in zip(kref.points, fvals))
    cond2 = -math.inf
    for p in cloud.coords:
        d = dc.cross_distances(metric, p[None], kref.points)[0]
        nearest = int(d.argmin())
        own = oracle_robust(cloud.coords, p, 3)
        cond2 = max(cond2, (float(d.min()) - own) / fvals[nearest])
    assert got == pytest.approx(max(cond1, cond2, 0.0), abs=1e-9)


def test_adaptive_requires_features():
    cloud, metric, kref, _ = noisy_instance(9, n_max=50)
    with pytest.raises(dc.GeometryError):
        dc.certify(cloud, metric, kref, 2, adaptive=True)


def test_certificate_soundness_recheck():
    for seed in range(20):
        cloud, metric, kref, _ = noisy_instance(seed, n_max=120)
        k = 2 + seed % 6
        eps = dc.estimate_epsilon_k(cloud, metric, kref, k)
        index = dc.build_index(cloud, metric)
        ref_vals = dc.values_at(index, kref.points, k)
        assert np.all(ref_vals <= eps + 1e-12)  # condition 1 over the reference
        own = dc.values_at(index, cloud.coords, k)
        d_ref = dc.cross_distances(metric, cloud.coords, kref.points).min(axis=1)
        assert np.all(d_ref <= own + eps + 1e-12)  # condition 2 over the cloud


def test_epsilon_monotone_in_k_on_instances():
    # the density term (and so the weak epsilon) grows with k; the composite
    # is only monotone when the noise term never dominates (clean instances)
    for seed in range(10):
        cloud, metric, kref, _ = noisy_instance(seed + 30, n_max=100)
        weak = dc.certify_scales(cloud, metric, kref, [2, 4, 8, 16], weak=True)
        eps = [weak[k].epsilon_k for k in (2, 4, 8, 16)]
        assert all(b >= a - 1e-12 for a, b in zip(eps, eps[1:]))
    for seed in range(10):
        cloud, metric, kref, _ = uniform_instance(seed + 30)
        certs = dc.certify_scales(cloud, metric, kref, [2, 4, 8, 16])
        eps = [certs[k].epsilon_k for k in (2, 4, 8, 16)]
        assert all(b >= a - 1e-12 for a, b in zip(eps, eps[1:]))


def test_weak_certificate_skips_condition2():
    cloud, metric = line_cloud()
    weak = dc.certify(cloud, metric, _line_ref(), 2, weak=True)
    full = dc.certify(cloud, metric, _line_ref(), 2)
    assert weak.weak_uniform and not full.weak_uniform
    assert weak.epsilon_k == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert full.epsilon_k > weak.epsilon_k
    assert weak.conditions["cond2_max"] == full.conditions["cond2_max"]


def test_certify_scales_matches_certify():
    cloud, metric, kref, _ = noisy_instance(3, n_max=90)
    many = dc.certify_scales(cloud, metric, kref, [2, 5, 8])
    for k in (2, 5, 8):
        one = dc.certify(cloud, metric, kref, k)
        assert many[k].epsilon_k == one.epsilon_k
        assert many[k].uniformity_c == one.uniformity_c


def test_certificate_json_roundtrip():
    cloud, metric, kref, k = uniform_instance(0)
    cert = dc.certify(cloud, metric, kref, k)
    back = dc.SamplingCertificate.from_dict(cert.to_dict())
    assert back.epsilon_k == cert.epsilon_k
    assert back.k == cert.k and back.kind.name == cert.kind.name
    assert back.uniformity_c == cert.uniformity_c


@pytest.mark.parametrize("field, value", [
    ("k", 8.9), ("k", True), ("k", 0), ("epsilon_k", math.inf),
    ("epsilon_k", -1.0), ("epsilon_k", math.nan), ("uniformity_c", -1.0),
    ("uniformity_c", 0.0), ("uniformity_c", math.inf),
])
def test_certificate_checks_its_own_fields(field, value):
    # a forged certificate must not pass a bound: infinite epsilon_k makes
    # every rhs infinite, a negative c makes prop3.4's lhs negative, and k
    # is never truncated to another scale
    cloud, metric, kref, k = uniform_instance(0)
    data = dc.certify(cloud, metric, kref, k).to_dict()
    dc.SamplingCertificate.from_dict(data)
    data[field] = value
    with pytest.raises(dc.GeometryError, match=field):
        dc.SamplingCertificate.from_dict(data)


@pytest.mark.parametrize("call", [
    lambda c, m, r: dc.certify(c, m, r, 2.0),
    lambda c, m, r: dc.estimate_epsilon_k(c, m, r, True),
    lambda c, m, r: dc.certify_scales(c, m, r, [2.5]),
    lambda c, m, r: dc.certify_scales(c, m, r, [0, 3]),
], ids=["certify-float", "epsilon-bool", "scales-fraction", "scales-zero"])
def test_certify_rejects_invalid_k(call):
    cloud, metric = line_cloud()
    with pytest.raises(dc.GeometryError):
        call(cloud, metric, _line_ref())


def test_adaptive_certificate_json_keeps_tie_count_int():
    cloud, metric, kref, k = uniform_instance(0)
    f = dc.feature_from_anchor(kref.points[0], 1.0)
    akref = dc.GroundTruthRef(kref.cloud, f(kref.points))
    cert = dc.certify(cloud, metric, akref, k, adaptive=True)
    data = json.loads(json.dumps(cert.to_dict()))
    ties = data["conditions"]["nearest_reference_ties"]
    assert type(ties) is int and ties == cert.conditions["nearest_reference_ties"]
    back = dc.SamplingCertificate.from_dict(data)
    assert back.to_dict() == cert.to_dict()
    assert back.adaptive and back.conditions == cert.conditions


@pytest.mark.parametrize("weak", [False, True])
def test_adaptive_certify_scales_matches_certify(weak):
    cloud, metric, kref, _ = uniform_instance(4)
    f = dc.feature_from_anchor(kref.points[0], 0.5)
    akref = dc.GroundTruthRef(kref.cloud, f(kref.points))
    many = dc.certify_scales(cloud, metric, akref, [8, 2, 5], weak=weak,
                             adaptive=True)
    assert sorted(many) == [2, 5, 8]
    for k in (2, 5, 8):
        one = dc.certify(cloud, metric, akref, k, weak=weak, adaptive=True)
        assert json.dumps(many[k].to_dict()) == json.dumps(one.to_dict())
        assert "nearest_reference_ties" in many[k].conditions


@pytest.mark.parametrize("side", [1, 16])
def test_adaptive_tie_count_equals_the_dense_count(side):
    # cloud points half a unit off an integer grid reference are equally near
    # two or four reference points; the 16 x 16 grid is large enough for the
    # 2-NN query to run on the kd-tree, a single point has no ties
    ref = np.stack(np.meshgrid(np.arange(side), np.arange(side)), -1).reshape(-1, 2)
    ref = ref.astype(float)
    rng = np.random.default_rng(15)
    pts = np.vstack([ref + 0.5, ref[::3] + [0.5, 0.0],
                     rng.uniform(-1.0, side, size=(200, 2))])
    kref = dc.GroundTruthRef(dc.PointCloud.from_coords(ref), np.ones(len(ref)))
    cert = dc.certify(dc.PointCloud.from_coords(pts), dc.Metric(), kref, 4,
                      adaptive=True)
    block = dc.cross_distances(dc.Metric(), pts, ref)
    want = int(((block == block.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    assert cert.conditions["nearest_reference_ties"] == want
    assert (want > 0) == (side > 1)


def _full_sweep_certificates(cloud, metric, kref, ks, kind, weak, adaptive=False):
    """Certificate records from a sweep of every reference point (cond1) and
    a dense cloud-to-reference block (cond2); adaptive ones divide both by
    the feature size at the reference point (for cond2 the nearest one, the
    lowest id among equals)."""
    index = dc.build_index(cloud, metric)
    ref_vals = dc.values_at_scales(index, kref.points, ks, kind)
    own_vals = dc.values_at_scales(index, cloud.coords, ks, kind)
    block = dc.cross_distances(metric, cloud.coords, kref.points)
    d_ref = block.min(axis=1)
    f = kref.feature_sizes if adaptive else np.ones(kref.cloud.n)
    f_near = f[block.argmin(axis=1)]
    out = {}
    for k in ref_vals:
        cond1 = float((ref_vals[k] / f).max())
        cond2 = float(((d_ref - own_vals[k]) / f_near).max())
        eps = max(cond1, 0.0) if weak else max(cond1, cond2, 0.0)
        lo = float(own_vals[k].min())
        out[k] = {"k": k, "kind": kind.name, "epsilon_k": eps,
                  "uniformity_c": eps / lo if eps > 0 and lo > 0 else None,
                  "weak_uniform": weak, "adaptive": adaptive,
                  "conditions": {"cond1_max": cond1, "cond2_max": cond2,
                                 "min_robust_distance": lo}}
        if adaptive:
            out[k]["conditions"]["nearest_reference_ties"] = int(
                ((block == d_ref[:, None]).sum(axis=1) > 1).sum())
    return out


def _reference_coords(shape, rng, d):
    if shape == "lattice":  # ties everywhere
        side = int(rng.integers(2, 15 if d < 3 else 7))
        axes = np.meshgrid(*[np.arange(side, dtype=float)] * d)
        return 0.5 * np.stack(axes, -1).reshape(-1, d)
    if shape == "duplicates":
        distinct = rng.normal(size=(int(rng.integers(1, 8)), d))
        return distinct[rng.integers(0, len(distinct), int(rng.integers(16, 200)))]
    if shape == "clusters":
        centres = rng.uniform(-5.0, 5.0, size=(int(rng.integers(2, 5)), d))
        m = int(rng.integers(16, 300))
        return (centres[rng.integers(0, len(centres), m)]
                + rng.normal(scale=0.01, size=(m, d)))
    if shape == "fewer than the stride":
        return rng.normal(size=(int(rng.integers(1, 16)), d))
    return rng.normal(size=(int(rng.integers(16, 300)), d))


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       shape=st.sampled_from(["gaussian", "lattice", "duplicates", "clusters",
                              "fewer than the stride"]),
       shuffle=st.booleans(), d=st.integers(1, 3),
       metric=st.sampled_from([dc.EUCLIDEAN, dc.MANHATTAN]),
       kind=st.sampled_from(KIND_NAMES), weak=st.booleans(),
       ks=st.lists(st.integers(1, 12), min_size=1, max_size=3),
       adaptive=st.booleans(), f_exp=st.integers(-500, 500))
def test_pruned_reference_sweep_equals_the_full_sweep(seed, shape, shuffle, d,
                                                      metric, kind, weak, ks,
                                                      adaptive, f_exp):
    # a stride over the reference ids picks the sample, so a shuffled
    # reference is sampled unevenly in space; only the speed may depend on it
    rng = np.random.default_rng(seed)
    ref = _reference_coords(shape, rng, d)
    if shuffle:
        ref = ref[rng.permutation(len(ref))]
    # adaptive pruning assumes nothing of the feature sizes: these are not
    # 1-Lipschitz and lie anywhere from 2**-501 to 2**501
    sizes = rng.uniform(0.5, 2.0, len(ref)) * 2.0 ** f_exp if adaptive else None
    # cloud points on reference points tie their values; at least one point
    on_ref = ref[rng.integers(0, len(ref), int(rng.integers(0, 40)))]
    m = int(rng.integers(0 if len(on_ref) else 1, 30))
    cloud = dc.PointCloud.from_coords(
        np.vstack([on_ref, rng.normal(scale=2.0, size=(m, d))]))
    kref = dc.GroundTruthRef(dc.PointCloud.from_coords(ref), sizes)
    ks = sorted({min(k, cloud.n) for k in ks})
    metric, kind = dc.Metric(metric), dc.parse_kind(kind)
    got = dc.certify_scales(cloud, metric, kref, ks, kind=kind, weak=weak,
                            adaptive=adaptive)
    want = _full_sweep_certificates(cloud, metric, kref, ks, kind, weak, adaptive)
    assert sorted(got) == ks
    for k in ks:
        assert (json.dumps(got[k].to_dict(), sort_keys=True)
                == json.dumps(want[k], sort_keys=True))


def test_every_certificate_prunes_its_reference_sweep(monkeypatch):
    # on a noisy sample the largest reference values sit where the noise
    # thins the cloud, so the sweep rules most reference points out, also
    # when the adaptive certificate divides them by feature sizes
    cloud, metric, kref, _ = noisy_instance(0)
    f = dc.feature_from_anchor(kref.points[0], 0.5)
    akref = dc.GroundTruthRef(kref.cloud, f(kref.points))
    queries = []
    real = certify_module.values_at_scales

    def recording(index, q, ks, kind, threads=1):
        queries.append(len(q))
        return real(index, q, ks, kind, threads)

    monkeypatch.setattr(certify_module, "values_at_scales", recording)
    n_ref, stride = kref.cloud.n, certify_module._CERT_STRIDE
    for weak in (False, True):
        for ref, adaptive in ((kref, False), (akref, True)):
            queries.clear()
            dc.certify_scales(cloud, metric, ref, [2, 8], weak=weak, adaptive=adaptive)
            assert queries[0] == -(-n_ref // stride) and queries[-1] == cloud.n
            assert sum(queries[:-1]) < n_ref / 2


@pytest.mark.parametrize("metric", [dc.EUCLIDEAN, dc.MANHATTAN])
@pytest.mark.parametrize("scaled", ["one point outside the sample", "everything"])
def test_overflow_still_raises_when_pruned(metric, scaled):
    # at 2**529 squared coordinate differences overflow, so Euclidean
    # distances and Manhattan rms-k sums do; a full sweep raises on them,
    # and so must the pruned one, even from a point the sample leaves out
    cloud, _, kref, _ = noisy_instance(11, n_max=100)
    pts, ref = cloud.coords, kref.points.copy()
    if scaled == "everything":
        pts, ref = pts * 2.0**529, ref * 2.0**529
    else:
        ref[5] = 2.0**529  # 5 is not a multiple of the stride
    cloud = dc.PointCloud.from_coords(pts)
    kref = dc.GroundTruthRef(dc.PointCloud.from_coords(ref))
    metric = dc.Metric(metric)
    raised = set()
    for kind in map(dc.parse_kind, KIND_NAMES):
        try:
            want = _full_sweep_certificates(cloud, metric, kref, [4, 8], kind, False)
        except dc.GeometryError:
            raised.add(kind.name)
            with pytest.raises(dc.GeometryError, match="overflow"):
                dc.certify_scales(cloud, metric, kref, [4, 8], kind=kind)
            continue
        got = dc.certify_scales(cloud, metric, kref, [4, 8], kind=kind)
        assert json.dumps(got[8].to_dict()) == json.dumps(want[8])
    assert raised == ({"rms-k"} if metric.kind == dc.MANHATTAN
                      else set(KIND_NAMES))


def test_underflowing_squares_cannot_hide_the_maximum():
    # in units of 2**-537 a square rounds to a whole number of the least
    # subnormal: the sampled points 0 and 16 read sqrt(3) and sqrt(2), the
    # unsampled point 1 reads 2, and its distance to point 16, 0.29, squares
    # to 0, so a relative slack alone rules point 1 out; the floor sweeps it
    ref = np.zeros((17, 1))
    ref[[0, 1, 16], 0] = [-math.sqrt(3.0), 1.871, 1.58]
    ref *= 2.0**-537
    cloud = dc.PointCloud.from_coords([[0.0]])
    kref = dc.GroundTruthRef(dc.PointCloud.from_coords(ref))
    for kind in map(dc.parse_kind, KIND_NAMES):
        cert = dc.certify(cloud, dc.Metric(), kref, 1, kind=kind)
        assert cert.conditions["cond1_max"] == 2.0**-536
