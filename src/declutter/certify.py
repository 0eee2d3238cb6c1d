"""Certification of sampling conditions against a ground-truth reference.

Given a cloud P and a dense finite reference K', a certificate holds the
smallest scale value epsilon_k making the noisy-sample conditions hold over
the evaluated sets (K' for the density condition, P for the sparsity-of-noise
condition) and the smallest uniformity constant c; the adaptive variant
weighs both conditions by a feature-size function. Every certificate, and
:func:`estimate_epsilon_k`, comes from one builder that reads every k from
one robust-distance sweep of the cloud. Certificates gate the named bound
checks in :mod:`declutter.evaluation`.

The density condition needs only the largest robust distance at a reference
point. Every robust distance is 1-Lipschitz under the exact coordinate
metrics certification takes, so the plain and weak certificates sweep every
``_CERT_STRIDE``-th reference point and then only the points whose bound
v(s) + |r - s| from a swept point s can reach the sampled maximum; the
bound holds for any s. The maximiser is always swept and a max
over the same floats is the same float, so the certificates are the bytes a
full sweep gives. The adaptive certificate prunes the same way: correctly
rounded division is monotone, so a point's bound divided by its feature size
tops its computed v(r) / f(r) whatever the feature sizes are.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (GeometryError, GroundTruthRef, Metric, PointCloud, _flag,
                       _number, _positive_finite, _positive_int)
from .neighbors import (AUTO, _LIPSCHITZ_FLOOR, _LIPSCHITZ_SLACK, NeighborIndex,
                        _PRUNE_STRIDE as _CERT_STRIDE, _stride_pruned, _target_index,
                        build_index)
from .robust import DistanceKind, RMS_K, parse_kind, values_at_scales


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
        """The certificate a :meth:`to_dict` record holds; its numbers must be
        JSON numbers and its flags JSON booleans (GeometryError otherwise)."""
        c = data.get("uniformity_c")
        return SamplingCertificate(
            k=data["k"],
            kind=parse_kind(data["kind"]),
            epsilon_k=_number(data["epsilon_k"], "certificate epsilon_k"),
            uniformity_c=None if c is None else _number(c, "certificate uniformity_c"),
            weak_uniform=_flag(data.get("weak_uniform", False),
                               "certificate weak_uniform"),
            adaptive=_flag(data.get("adaptive", False), "certificate adaptive"),
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
    the reference over its own robust distance (sparsity of noise). cond1
    comes from :func:`_reference_maxima`, which sweeps only the reference
    points that can hold the maximum and returns the full sweep's floats.
    The adaptive variant divides both by the feature size at the relevant
    reference point (the nearest one for cond2; ties resolved to lowest id),
    and it also records, once for all k, how many cloud points have more
    than one nearest reference point (``nearest_reference_ties``).
    """
    _require_coordinate(cloud, kref)
    if kref.cloud.n < 1:
        raise GeometryError("empty reference")
    if adaptive and not kref.has_feature_sizes:
        raise GeometryError("adaptive certification needs feature sizes on the reference")
    index = build_index(cloud, metric, AUTO)
    cond1s = _reference_maxima(index, metric, kref.points, ks, kind, threads,
                               kref.feature_sizes if adaptive else None)
    own_vals = values_at_scales(index, cloud.coords, ks, kind, threads=threads)
    # each point's two nearest reference points by (distance, id): the first
    # is its nearest (ties to the lowest id), an equally near second a tie
    near_d, near_ids = build_index(kref.cloud, metric, AUTO)._nearest_rows(
        cloud.coords, min(2, kref.cloud.n), threads)
    dist_to_ref, nearest = near_d[:, 0], near_ids[:, 0]
    # dividing by 1.0 is exact, so the plain condition comes out unchanged
    f_near = kref.feature_sizes[nearest] if adaptive else 1.0
    ties = int((near_d[:, 1:] == near_d[:, :1]).sum()) if adaptive else None
    out: dict[int, SamplingCertificate] = {}
    for k, own in own_vals.items():
        cond1 = cond1s[k]
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


def _reference_maxima(index: NeighborIndex, metric: Metric, ref: np.ndarray, ks,
                      kind: DistanceKind, threads: int,
                      sizes: np.ndarray | None = None) -> dict[int, float]:
    """The largest robust distance at a reference point, each divided by the
    point's feature size in ``sizes`` (by 1.0 without), at each k, as a full
    sweep of the reference finds it.

    Every ``_CERT_STRIDE``-th point is swept; every other point r is swept
    only when its Lipschitz bound from a swept point s,
    ``(v(s) + |r - s|) * (1 + _LIPSCHITZ_SLACK) + _LIPSCHITZ_FLOOR``, divided
    by f(r), reaches the sampled maximum at some k. s is first the swept
    point that starts r's stride, then, for the points that bound leaves, a
    swept point the tree proposes (:func:`neighbors._stride_pruned`). The
    bound holds for any s, so these choices decide only which points are
    swept. It tops r's computed value and division rounds monotonically, so
    a point that exceeds the sampled maximum is swept. So is one whose
    running sum overflows: its exact value lies past the overflow threshold
    that every sampled value stays below, and its sweep raises as a full
    one would.
    """
    # dividing by 1.0 is exact, so the plain maxima come out unchanged
    f = np.ones(ref.shape[0]) if sizes is None else sizes
    sample = ref[::_CERT_STRIDE]
    vals = values_at_scales(index, sample, ks, kind, threads)
    top = {k: (v / f[::_CERT_STRIDE]).max() for k, v in vals.items()}

    def reach(rows, near, gap, tree_d):
        """Whether each row's bound from sample[near] reaches the top."""
        hit = np.zeros(rows.size, dtype=bool)
        with np.errstate(over="ignore"):  # an infinite bound sweeps its point
            for k, v in vals.items():
                hit |= (((v[near] + gap) * (1.0 + _LIPSCHITZ_SLACK)
                         + _LIPSCHITZ_FLOOR) / f[rows] >= top[k])
        return hit

    rest = _stride_pruned(_target_index(metric, sample), ref,
                          np.arange(sample.shape[0]), reach, threads)
    if rest.size:
        swept = values_at_scales(index, ref[rest], ks, kind, threads)
        top = {k: max(t, (swept[k] / f[rest]).max()) for k, t in top.items()}
    return {k: float(t) for k, t in top.items()}


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
