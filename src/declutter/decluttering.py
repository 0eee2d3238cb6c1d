"""Greedy decluttering: keep a point only if no already-kept point lies in
its vicinity ball.

Points are processed in order of increasing robust distance (ties by id).
The vicinity ball of p is the CLOSED ball of radius factor * d_k(p), with
factor 2 by default: a boundary point blocks selection, which also makes the
radius-zero coincident-point case well defined.

The pass is one scan for every neighbor strategy: each point's canonical
distances to the kept set, held in selection order, are computed in one
:func:`geometry.cross_distances` call. The witness of a rejection is the
first kept point inside the ball, i.e. the earliest kept one, and its
recorded distance is that canonical value.

:func:`declutter` is the robust profile at one k followed by that pass;
:func:`greedy_declutter` runs the pass on a profile the caller already has.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, Metric, PointCloud, cross_distances
from .neighbors import AUTO, build_index
from .robust import DistanceKind, RMS_K, RobustDistanceProfile, profile


@dataclass(frozen=True)
class Rejection:
    """Why a point was dropped: the earliest-kept point found inside its
    vicinity ball, and the distance to it."""

    witness: int
    distance: float


@dataclass
class DeclutterResult:
    kept: np.ndarray                    # ids in selection order
    rejected: dict[int, Rejection]      # id -> witness record
    order: np.ndarray                   # full processing order (all ids)
    profile: RobustDistanceProfile
    vicinity_factor: float

    @property
    def kept_ids(self) -> np.ndarray:
        """Kept ids in ascending id order."""
        return np.sort(self.kept)

    def to_dict(self) -> dict:
        return {
            "k": int(self.profile.k),
            "kind": self.profile.kind.name,
            "vicinity_factor": float(self.vicinity_factor),
            "n": int(self.profile.n),
            "kept_order": [int(i) for i in self.kept],
            "processing_order": [int(i) for i in self.order],
            "rejected": {
                str(i): {"witness": int(r.witness), "distance": float(r.distance)}
                for i, r in self.rejected.items()
            },
            "profile_values": [float(v) for v in self.profile.values],
        }


def declutter(cloud: PointCloud, metric: Metric, k: int,
              kind: DistanceKind = RMS_K, vicinity_factor: float = 2.0,
              strategy: str = AUTO, threads: int = 1) -> DeclutterResult:
    """Run the single-parameter declutter pass and return kept ids with a
    witness for every rejection: the robust profile at k
    (:func:`robust.profile`) followed by :func:`greedy_declutter`.
    """
    prof = profile(cloud, build_index(cloud, metric, strategy), k, kind,
                   threads=threads)
    return greedy_declutter(cloud, metric, prof, vicinity_factor)


def greedy_declutter(cloud: PointCloud, metric: Metric,
                     prof: RobustDistanceProfile,
                     vicinity_factor: float = 2.0) -> DeclutterResult:
    """The greedy pass over a given profile of the cloud's members: points in
    order of increasing robust distance (ties by id), each kept unless an
    earlier kept point lies in its closed vicinity ball."""
    if not (vicinity_factor > 0):
        raise GeometryError("vicinity factor must be positive")
    cloud.check_metric(metric)
    if prof.n != cloud.n:
        raise GeometryError("profile does not cover this cloud")
    values = prof.values
    order = np.lexsort((np.arange(cloud.n), values))
    members = cloud.points
    kept_buf = np.empty_like(members)  # kept members, selection order
    kept: list[int] = []
    rejected: dict[int, Rejection] = {}
    for pid in order:
        pid = int(pid)
        m = len(kept)
        if m:
            d = cross_distances(metric, members[pid:pid + 1], kept_buf[:m])[0]
            hits = np.flatnonzero(d <= vicinity_factor * values[pid])
            if hits.size:
                first = int(hits[0])
                rejected[pid] = Rejection(witness=kept[first],
                                          distance=float(d[first]))
                continue
        kept_buf[m] = members[pid]
        kept.append(pid)
    return DeclutterResult(kept=np.asarray(kept, dtype=np.intp),
                           rejected=rejected,
                           order=order.astype(np.intp),
                           profile=prof,
                           vicinity_factor=float(vicinity_factor))
