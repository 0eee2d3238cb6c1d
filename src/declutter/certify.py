"""Certification of sampling conditions against a ground-truth reference.

Given a cloud P and a dense finite reference K', these routines compute the
smallest scale value epsilon_k making the noisy-sample conditions hold over
the evaluated sets (K' for the density condition, P for the sparsity-of-noise
condition), the smallest uniformity constant c, and the adaptive variants
weighted by a feature-size function. Certificates gate the named bound
checks in :mod:`declutter.evaluation`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    GeometryError,
    GroundTruthRef,
    Metric,
    PointCloud,
    nearest_cross,
    row_chunks,
    cross_distances,
)
from .neighbors import AUTO, build_index
from .robust import DistanceKind, RMS_K, values_at, values_at_scales


@dataclass
class SamplingCertificate:
    """Evaluated sampling-condition parameters for one (P, K', k, kind)."""

    k: int
    kind: DistanceKind
    epsilon_k: float
    uniformity_c: float | None
    weak_uniform: bool
    adaptive: bool
    conditions: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "k": int(self.k),
            "kind": self.kind.name,
            "epsilon_k": float(self.epsilon_k),
            "uniformity_c": None if self.uniformity_c is None else float(self.uniformity_c),
            "weak_uniform": bool(self.weak_uniform),
            "adaptive": bool(self.adaptive),
            # counts such as nearest_reference_ties stay ints
            "conditions": {key: (float(v) if isinstance(v, (float, np.floating))
                                 else v)
                           for key, v in self.conditions.items()},
        }

    @staticmethod
    def from_dict(data: dict) -> "SamplingCertificate":
        from .robust import parse_kind
        return SamplingCertificate(
            k=int(data["k"]),
            kind=parse_kind(data["kind"]),
            epsilon_k=float(data["epsilon_k"]),
            uniformity_c=(None if data.get("uniformity_c") is None
                          else float(data["uniformity_c"])),
            weak_uniform=bool(data.get("weak_uniform", False)),
            adaptive=bool(data.get("adaptive", False)),
            conditions=dict(data.get("conditions", {})),
        )


def _require_coordinate(cloud: PointCloud, kref: GroundTruthRef) -> None:
    if not cloud.is_coordinate or not kref.cloud.is_coordinate:
        raise GeometryError(
            "reference comparisons need coordinate-backed clouds on both sides")


def _certificates(cloud: PointCloud, metric: Metric, kref: GroundTruthRef, ks,
                  kind: DistanceKind, weak: bool, adaptive: bool, threads: int,
                  count_ties: bool = False) -> dict[int, SamplingCertificate]:
    """Certificates at every k in one sweep.

    cond1 is the largest robust distance at a reference point (density of
    the reference), cond2 the largest excess of a cloud point's distance to
    the reference over its own robust distance (sparsity of noise). The
    adaptive variant divides both by the feature size at the relevant
    reference point (the nearest one for cond2; ties resolved to lowest id).
    ``count_ties`` adds, once for all k, how many cloud points have more
    than one nearest reference point (``nearest_reference_ties``).
    """
    _require_coordinate(cloud, kref)
    if kref.cloud.n < 1:
        raise GeometryError("empty reference")
    if adaptive and not kref.has_feature_sizes:
        raise GeometryError("adaptive certification needs feature sizes on the reference")
    index = build_index(cloud, metric, AUTO)
    ref_vals = values_at_scales(index, kref.points, ks, kind, threads=threads)
    own_vals = values_at_scales(index, cloud.coords, ks, kind, threads=threads)
    dist_to_ref, nearest = nearest_cross(metric, cloud.coords, kref.points,
                                         threads=threads)
    # dividing by 1.0 is exact, so the plain conditions come out unchanged
    f_ref = kref.feature_sizes if adaptive else 1.0
    f_near = kref.feature_sizes[nearest] if adaptive else 1.0
    ties = _nearest_tie_count(metric, cloud, kref, dist_to_ref) if count_ties else None
    out: dict[int, SamplingCertificate] = {}
    for k, own in own_vals.items():
        cond1 = float((ref_vals[k] / f_ref).max())
        cond2 = float(((dist_to_ref - own) / f_near).max())
        epsilon = max(cond1, 0.0) if weak else max(cond1, cond2, 0.0)
        lo = float(own.min())
        uniformity = (float(epsilon) / lo) if (epsilon > 0 and lo > 0) else None
        conditions = {"cond1_max": cond1, "cond2_max": cond2,
                      "min_robust_distance": lo}
        if count_ties:
            conditions["nearest_reference_ties"] = ties
        out[k] = SamplingCertificate(
            k=k, kind=kind, epsilon_k=float(epsilon), uniformity_c=uniformity,
            weak_uniform=bool(weak), adaptive=bool(adaptive),
            conditions=conditions)
    return out


def estimate_epsilon_k(cloud: PointCloud, metric: Metric, kref: GroundTruthRef,
                       k: int, kind: DistanceKind = RMS_K,
                       threads: int = 1) -> float:
    """Smallest epsilon such that both noisy-sample conditions hold over the
    evaluated sets: every reference point is densely covered (robust distance
    at most epsilon) and every cloud point within distance at most its robust
    distance plus epsilon of the reference."""
    return _certificates(cloud, metric, kref, [k], kind, False, False,
                         threads)[k].epsilon_k


def estimate_uniformity(cloud: PointCloud, metric: Metric, epsilon_k: float,
                        k: int, kind: DistanceKind = RMS_K,
                        threads: int = 1) -> float | None:
    """Smallest valid uniformity constant epsilon_k / min_p d_k(p), or None
    when some point has robust distance zero (uniformity undefined)."""
    if not (epsilon_k > 0):
        raise GeometryError("uniformity needs epsilon_k > 0")
    index = build_index(cloud, metric, AUTO)
    own = values_at(index, cloud.points, k, kind, threads=threads)
    lo = float(own.min())
    if lo <= 0.0:
        return None
    return float(epsilon_k) / lo


def estimate_adaptive_epsilon(cloud: PointCloud, metric: Metric,
                              kref: GroundTruthRef, k: int,
                              kind: DistanceKind = RMS_K,
                              threads: int = 1) -> float:
    """Adaptive variant: both conditions rescaled by the feature size at the
    relevant reference point (the nearest one; ties resolved to lowest id)."""
    return _certificates(cloud, metric, kref, [k], kind, False, True,
                         threads)[k].epsilon_k


def certify(cloud: PointCloud, metric: Metric, kref: GroundTruthRef, k: int,
            kind: DistanceKind = RMS_K, weak: bool = False,
            adaptive: bool = False, threads: int = 1) -> SamplingCertificate:
    """Full certificate: epsilon (weak variants skip the sparsity-of-noise
    condition), the uniformity constant, and the per-condition values."""
    return _certificates(cloud, metric, kref, [k], kind, weak, adaptive,
                         threads, count_ties=adaptive)[k]


def certify_scales(cloud: PointCloud, metric: Metric, kref: GroundTruthRef,
                   ks, kind: DistanceKind = RMS_K, weak: bool = False,
                   adaptive: bool = False,
                   threads: int = 1) -> dict[int, SamplingCertificate]:
    """Certificates for several k values in one sweep (shared index, k-NN
    rows, nearest-reference pass and, when adaptive, tie count); each equals
    the :func:`certify` certificate at its k."""
    return _certificates(cloud, metric, kref, ks, kind, weak, adaptive,
                         threads, count_ties=adaptive)


def _nearest_tie_count(metric: Metric, cloud: PointCloud, kref: GroundTruthRef,
                       dist_to_ref: np.ndarray) -> int:
    """How many cloud points have more than one nearest reference point."""
    ties = 0
    pts = cloud.coords
    ref = kref.points
    for sl in row_chunks(pts.shape[0], ref.shape[0]):
        block = cross_distances(metric, pts[sl], ref)
        ties += int(((block == dist_to_ref[sl, None]).sum(axis=1) > 1).sum())
    return ties


@dataclass
class FeatureSizeReport:
    positive_ok: bool
    min_value: float
    lipschitz_ok: bool
    worst_excess: float
    worst_pair: tuple[int, int] | None
    pairs_checked: int
    sampled: bool

    @property
    def ok(self) -> bool:
        return self.positive_ok and self.lipschitz_ok


def check_feature_size(kref: GroundTruthRef, metric: Metric,
                       tolerance: float = 1e-9, max_exhaustive: int = 3000,
                       sample_pairs: int = 2_000_000,
                       seed: int = 0) -> FeatureSizeReport:
    """Verify positivity and the 1-Lipschitz property of the feature sizes,
    pairwise over the reference (sampled above a size threshold)."""
    if not kref.has_feature_sizes:
        raise GeometryError("no feature sizes to check")
    f = kref.feature_sizes
    pts = kref.points
    n = pts.shape[0]
    positive_ok = bool(np.all(f > 0))
    min_value = float(f.min())
    worst_excess = -np.inf
    worst_pair = None
    sampled = n > max_exhaustive
    if sampled:
        from .geometry import row_distances
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, n, size=sample_pairs)
        jj = rng.integers(0, n, size=sample_pairs)
        keep = ii != jj
        ii, jj = ii[keep], jj[keep]
        pairs_checked = int(ii.size)
        d = row_distances(metric, pts[ii], pts[jj])
        excess = np.abs(f[ii] - f[jj]) - d
        arg = int(excess.argmax())
        worst_excess = float(excess[arg])
        worst_pair = (int(ii[arg]), int(jj[arg]))
    else:
        pairs_checked = n * (n - 1) // 2
        for sl in row_chunks(n, n):
            block = cross_distances(metric, pts[sl], pts)
            excess = np.abs(f[sl, None] - f[None, :]) - block
            rows = np.arange(sl.start, sl.stop)
            excess[np.arange(rows.size), rows] = -np.inf  # ignore self pairs
            arg = np.unravel_index(int(excess.argmax()), excess.shape)
            if excess[arg] > worst_excess:
                worst_excess = float(excess[arg])
                worst_pair = (int(rows[arg[0]]), int(arg[1]))
    lipschitz_ok = worst_excess <= tolerance
    return FeatureSizeReport(positive_ok=positive_ok, min_value=min_value,
                             lipschitz_ok=bool(lipschitz_ok),
                             worst_excess=float(worst_excess),
                             worst_pair=worst_pair,
                             pairs_checked=pairs_checked, sampled=sampled)
