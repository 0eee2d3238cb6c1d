import json
import math

import numpy as np
import pytest

import declutter as dc
from conftest import line_cloud, noisy_instance, oracle_epsilon, uniform_instance


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
    eps = dc.estimate_epsilon_k(cloud, metric, _line_ref(), 2)
    c = dc.estimate_uniformity(cloud, metric, eps, 2)
    assert c == pytest.approx(98.0 * (math.sqrt(2.0) - 1.0), abs=1e-9)


def test_uniformity_perfectly_uniform():
    # equilateral triangle: every k=2 value equals the side length / sqrt(2)
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    cloud = dc.PointCloud.from_coords(pts)
    metric = dc.Metric()
    v = dc.profile_for(cloud, metric, 2).values
    c = dc.estimate_uniformity(cloud, metric, float(v[0]), 2)
    assert c == pytest.approx(1.0, abs=1e-12)


def test_uniformity_absent_for_duplicates():
    pts = np.array([[0.0], [0.0], [5.0]])
    cloud = dc.PointCloud.from_coords(pts)
    assert dc.estimate_uniformity(cloud, dc.Metric(), 1.0, 2) is None
    with pytest.raises(dc.GeometryError):
        dc.estimate_uniformity(cloud, dc.Metric(), 0.0, 2)


def test_adaptive_constant_feature_reduces_to_plain():
    cloud, metric, kref, _ = noisy_instance(5, n_max=80)
    plain = dc.estimate_epsilon_k(cloud, metric, kref, 3)
    ones = dc.GroundTruthRef(kref.cloud, np.ones(kref.cloud.n))
    twos = dc.GroundTruthRef(kref.cloud, np.full(kref.cloud.n, 2.0))
    assert dc.estimate_adaptive_epsilon(cloud, metric, ones, 3) == plain
    assert dc.estimate_adaptive_epsilon(cloud, metric, twos, 3) == pytest.approx(
        plain / 2.0, abs=1e-12)


def test_adaptive_nonconstant_matches_bruteforce():
    cloud, metric, kref, _ = noisy_instance(7, n_max=60)
    f_fn = dc.feature_from_anchor(kref.points[0], 0.5)
    fvals = f_fn(kref.points)
    adaptive_ref = dc.GroundTruthRef(kref.cloud, fvals)
    got = dc.estimate_adaptive_epsilon(cloud, metric, adaptive_ref, 3)
    index = dc.build_index(cloud, metric)
    cond1 = max(dc.robust_distance_at(index, x, 3) / f
                for x, f in zip(kref.points, fvals))
    cond2 = -math.inf
    for p in cloud.coords:
        d = dc.cross_distances(metric, p[None], kref.points)[0]
        nearest = int(d.argmin())
        own = dc.robust_distance_at(index, p, 3)
        cond2 = max(cond2, (float(d.min()) - own) / fvals[nearest])
    assert got == pytest.approx(max(cond1, cond2, 0.0), abs=1e-9)


def test_adaptive_requires_features():
    cloud, metric, kref, _ = noisy_instance(9, n_max=50)
    with pytest.raises(dc.GeometryError):
        dc.estimate_adaptive_epsilon(cloud, metric, kref, 2)


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


def test_feature_size_checker():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    cloud = dc.PointCloud.from_coords(pts)
    const = dc.GroundTruthRef(cloud, np.full(3, 2.5))
    report = dc.check_feature_size(const, dc.Metric())
    assert report.ok
    anchored = dc.GroundTruthRef(cloud, dc.feature_from_anchor([5.0, 5.0], 1.0)(pts))
    assert dc.check_feature_size(anchored, dc.Metric()).ok
    jump = dc.GroundTruthRef(cloud, np.array([1.0, 3.0, 1.0]))  # jump 2 over gap 1
    report = dc.check_feature_size(jump, dc.Metric())
    assert not report.lipschitz_ok
    assert report.worst_pair in ((0, 1), (1, 0), (1, 2), (2, 1))
    assert report.worst_excess == pytest.approx(1.0, abs=1e-12)


def test_feature_size_checker_sampled_mode():
    rng = np.random.default_rng(4)
    pts = rng.normal(size=(200, 2))
    f = dc.feature_from_anchor([0.0, 0.0], 0.3)(pts)
    kref = dc.GroundTruthRef(dc.PointCloud.from_coords(pts), f)
    report = dc.check_feature_size(kref, dc.Metric(), max_exhaustive=50,
                                   sample_pairs=20000)
    assert report.sampled and report.ok


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
