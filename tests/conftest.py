"""Shared test helpers: independent pure-python oracles and instance builders.

The oracles deliberately avoid the library's vectorized code paths (plain
loops, plain math) so that agreement is meaningful.
"""
from __future__ import annotations

import math

import numpy as np

import declutter as dc


# ---------------------------------------------------------------------------
# pure-python oracles
# ---------------------------------------------------------------------------

def dist_euclidean(a, b) -> float:
    return math.sqrt(sum((float(x) - float(y)) ** 2 for x, y in zip(a, b)))


def dist_manhattan(a, b) -> float:
    return sum(abs(float(x) - float(y)) for x, y in zip(a, b))


def oracle_knn_ids(points, query, k, dist=dist_euclidean):
    """Ids of the k nearest points, ties by lower id."""
    order = sorted(range(len(points)),
                   key=lambda i: (dist(points[i], query), i))
    return order[:k]


def oracle_robust(points, query, k, kind="rms-k", dist=dist_euclidean) -> float:
    ds = sorted(dist(p, query) for p in points)[:k]
    if kind == "kth-nn":
        return ds[-1]
    if kind == "avg-k":
        return sum(ds) / k
    return math.sqrt(sum(d * d for d in ds) / k)


def oracle_declutter(points, k, kind="rms-k", dist=dist_euclidean):
    """Quadratic greedy pass; returns (kept list in selection order,
    {rejected id: witness id})."""
    n = len(points)
    values = [oracle_robust(points, points[i], k, kind, dist) for i in range(n)]
    order = sorted(range(n), key=lambda i: (values[i], i))
    kept, rejected = [], {}
    for p in order:
        radius = 2.0 * values[p]
        witness = None
        for q in kept:  # kept is selection order; first hit is the witness
            if dist(points[p], points[q]) <= radius:
                witness = q
                break
        if witness is None:
            kept.append(p)
        else:
            rejected[p] = witness
    return kept, rejected, values


def oracle_resample(points, member_ids, kept, values, C, dist=dist_euclidean):
    out = []
    for p in member_ids:
        for q in kept:
            if dist(points[p], points[q]) <= C * values[q]:
                out.append(p)
                break
    return out


def oracle_parfree(points, C, kind="rms-k", dist=dist_euclidean):
    n = len(points)
    current = list(range(n))
    history = []
    for i in range(int(math.floor(math.log2(n))), 0, -1):
        k = min(2 ** i, len(current))
        sub = [points[j] for j in current]
        kept_local, _, values = oracle_declutter(sub, k, kind, dist)
        res_local = oracle_resample(sub, range(len(sub)), kept_local, values, C, dist)
        history.append((i, k, list(current)))
        current = [current[j] for j in res_local]
    return current, history


def oracle_hausdorff(A, B, dist=dist_euclidean) -> float:
    d_ab = max(min(dist(a, b) for b in B) for a in A)
    d_ba = max(min(dist(a, b) for a in A) for b in B)
    return max(d_ab, d_ba)


def oracle_epsilon(points, ref, k, kind="rms-k", dist=dist_euclidean) -> float:
    cond1 = max(oracle_robust(points, x, k, kind, dist) for x in ref)
    cond2 = max(min(dist(p, x) for x in ref) - oracle_robust(points, p, k, kind, dist)
                for p in points)
    return max(cond1, cond2, 0.0)


# ---------------------------------------------------------------------------
# instance builders
# ---------------------------------------------------------------------------

def line_cloud():
    """The 4-point line {0, 1, 2, 100} used across worked examples."""
    pts = np.array([[0.0], [1.0], [2.0], [100.0]])
    return dc.PointCloud.from_coords(pts), dc.Metric()


def random_cloud(seed, n_max=200, d_max=5):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, n_max + 1))
    d = int(rng.integers(1, d_max + 1))
    pts = rng.normal(scale=rng.uniform(0.5, 3.0), size=(n, d))
    return dc.PointCloud.from_coords(pts), dc.Metric()


def noisy_instance(seed, n_max=240):
    """Shape sample + Gaussian jitter + scattered ambient points, with the
    dense reference; the bread-and-butter denoising input."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(40, n_max))
    radius = float(rng.uniform(0.5, 2.0))
    shape = dc.Circle((0.0, 0.0), radius)
    kref, sample = dc.sample_shape(shape, n, seed=int(rng.integers(1 << 31)))
    noisy = dc.perturb_gaussian(sample, 0.02 * radius, int(rng.integers(1 << 31)))
    m = int(rng.integers(5, max(6, n // 4)))
    lo, hi = noisy.min(axis=0), noisy.max(axis=0)
    pad = 0.5 * float((hi - lo).max())
    noisy, tags = dc.add_ambient_noise(noisy, (lo - pad, hi + pad), m,
                                       int(rng.integers(1 << 31)))
    return dc.PointCloud.from_coords(noisy), dc.Metric(), kref, tags


def uniform_instance(seed, n_max=240):
    """Near-regular on-shape spacing with tiny jitter: certifies a small
    uniformity constant, which gates the uniform-sample bounds."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(60, n_max))
    radius = float(rng.uniform(0.5, 2.0))
    center = (float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
    shape = dc.Circle(center, radius)
    kref, sample = dc.sample_shape(shape, n, seed=None)
    spacing = shape.length / n
    noisy = dc.perturb_gaussian(sample, 0.02 * spacing, seed)
    k = int(rng.integers(2, 9))
    return dc.PointCloud.from_coords(noisy), dc.Metric(), kref, k
