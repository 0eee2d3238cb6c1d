"""Certification of sampling conditions against a ground-truth reference.

Given a cloud P and a dense finite reference K', a certificate holds the
smallest scale value epsilon_k making the noisy-sample conditions hold over
the evaluated sets (K' for the density condition, P for the sparsity-of-noise
condition) and the smallest uniformity constant c; the adaptive variant
weighs both conditions by a feature-size function. Every certificate, and
:func:`estimate_epsilon_k`, comes from one builder that reads every k from
one robust-distance sweep. Certificates gate the named bound checks in
:mod:`declutter.evaluation`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (GeometryError, GroundTruthRef, Metric, PointCloud,
                       _positive_finite, _positive_int)
from .neighbors import AUTO, build_index
from .robust import DistanceKind, RMS_K, values_at_scales


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

    def __post_init__(self):
        self.k = _positive_int(self.k, "certificate k")
        if not 0 <= self.epsilon_k < np.inf:  # NaN fails both
            raise GeometryError("certificate epsilon_k must be finite and "
                                f"non-negative, got {self.epsilon_k!r}")
        if self.uniformity_c is not None:
            _positive_finite(self.uniformity_c, "certificate uniformity_c")

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
            k=data["k"],
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
                  kind: DistanceKind, weak: bool, adaptive: bool,
                  threads: int) -> dict[int, SamplingCertificate]:
    """Certificates at every k in one sweep.

    cond1 is the largest robust distance at a reference point (density of
    the reference), cond2 the largest excess of a cloud point's distance to
    the reference over its own robust distance (sparsity of noise). The
    adaptive variant divides both by the feature size at the relevant
    reference point (the nearest one for cond2; ties resolved to lowest id)
    and also records, once for all k, how many cloud points have more than
    one nearest reference point (``nearest_reference_ties``).
    """
    _require_coordinate(cloud, kref)
    if kref.cloud.n < 1:
        raise GeometryError("empty reference")
    if adaptive and not kref.has_feature_sizes:
        raise GeometryError("adaptive certification needs feature sizes on the reference")
    index = build_index(cloud, metric, AUTO)
    ref_vals = values_at_scales(index, kref.points, ks, kind, threads=threads)
    own_vals = values_at_scales(index, cloud.coords, ks, kind, threads=threads)
    # each point's two nearest reference points by (distance, id): the first
    # is its nearest (ties to the lowest id), an equally near second a tie
    near_d, near_ids = build_index(kref.cloud, metric, AUTO)._nearest_rows(
        cloud.coords, min(2, kref.cloud.n), threads)
    dist_to_ref, nearest = near_d[:, 0], near_ids[:, 0]
    # dividing by 1.0 is exact, so the plain conditions come out unchanged
    f_ref = kref.feature_sizes if adaptive else 1.0
    f_near = kref.feature_sizes[nearest] if adaptive else 1.0
    ties = int((near_d[:, 1:] == near_d[:, :1]).sum()) if adaptive else None
    out: dict[int, SamplingCertificate] = {}
    for k, own in own_vals.items():
        cond1 = float((ref_vals[k] / f_ref).max())
        cond2 = float(((dist_to_ref - own) / f_near).max())
        epsilon = max(cond1, 0.0) if weak else max(cond1, cond2, 0.0)
        lo = float(own.min())
        uniformity = (float(epsilon) / lo) if (epsilon > 0 and lo > 0) else None
        conditions = {"cond1_max": cond1, "cond2_max": cond2,
                      "min_robust_distance": lo}
        if adaptive:
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


def certify(cloud: PointCloud, metric: Metric, kref: GroundTruthRef, k: int,
            kind: DistanceKind = RMS_K, weak: bool = False,
            adaptive: bool = False, threads: int = 1) -> SamplingCertificate:
    """Full certificate: epsilon (weak variants skip the sparsity-of-noise
    condition), the uniformity constant, and the per-condition values."""
    return _certificates(cloud, metric, kref, [k], kind, weak, adaptive, threads)[k]


def certify_scales(cloud: PointCloud, metric: Metric, kref: GroundTruthRef,
                   ks, kind: DistanceKind = RMS_K, weak: bool = False,
                   adaptive: bool = False,
                   threads: int = 1) -> dict[int, SamplingCertificate]:
    """Certificates for several k values in one sweep (shared index, k-NN
    rows, nearest-reference pass and, when adaptive, tie count); each equals
    the :func:`certify` certificate at its k."""
    return _certificates(cloud, metric, kref, ks, kind, weak, adaptive, threads)
