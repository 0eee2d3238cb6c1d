"""Greedy decluttering: keep a point only if no already-kept point lies in
its vicinity ball.

Points are processed in order of increasing robust distance (ties by id).
The vicinity ball of p is the CLOSED ball of radius factor * d_k(p), with
factor 2 by default: a boundary point blocks selection, which also makes the
radius-zero coincident-point case well defined.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geometry import GeometryError, Metric, PointCloud, cross_distances
from .neighbors import AUTO, KDTREE, NeighborIndex, _check_k, build_index
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


class _KeptScan:
    """Vectorized scan over the kept set (the straightforward route)."""

    def __init__(self, cloud: PointCloud, metric: Metric):
        self.cloud = cloud
        self.metric = metric
        if cloud.is_coordinate:
            self.buf = np.empty((cloud.n, cloud.dim))
        self.ids: list[int] = []

    def add(self, pid: int) -> None:
        if self.cloud.is_coordinate:
            self.buf[len(self.ids)] = self.cloud.coords[pid]
        self.ids.append(pid)

    def earliest_within(self, pid: int, radius: float):
        """(rank, witness id, distance) of the earliest kept point inside the
        closed ball around pid, or None."""
        m = len(self.ids)
        if m == 0:
            return None
        if self.cloud.is_coordinate:
            d = cross_distances(self.metric, self.cloud.coords[pid:pid + 1],
                                self.buf[:m])[0]
        else:
            d = self.metric.matrix[pid, np.asarray(self.ids, dtype=np.intp)]
        hits = np.flatnonzero(d <= radius)
        if hits.size == 0:
            return None
        rank = int(hits[0])  # kept list is selection order, so first hit wins
        return rank, self.ids[rank], float(d[rank])


class _KeptTree:
    """Kept-set range queries through a periodically rebuilt spatial tree.

    Exactness is preserved by inflating tree radii and re-filtering with
    canonical distances; points kept since the last rebuild sit in a linear
    buffer that is scanned exactly.
    """

    def __init__(self, cloud: PointCloud, metric: Metric, p_norm: int):
        self.cloud = cloud
        self.metric = metric
        self.p = p_norm
        self.tree = None
        self.tree_ids: np.ndarray = np.empty(0, dtype=np.intp)
        self.pending: list[int] = []
        self.rank: dict[int, int] = {}

    def add(self, pid: int) -> None:
        self.rank[pid] = len(self.rank)
        self.pending.append(pid)
        if len(self.pending) >= max(32, self.tree_ids.size):
            self.tree_ids = np.concatenate(
                [self.tree_ids, np.asarray(self.pending, dtype=np.intp)])
            self.tree = cKDTree(self.cloud.coords[self.tree_ids])
            self.pending = []

    def earliest_within(self, pid: int, radius: float):
        q = self.cloud.coords[pid]
        best = None  # (rank, id, distance)
        if self.tree is not None:
            cand = self.tree.query_ball_point(q, radius * (1.0 + 1e-9), p=self.p)
            if cand:
                ids = self.tree_ids[np.asarray(cand, dtype=np.intp)]
                d = cross_distances(self.metric, q[None, :],
                                    self.cloud.coords[ids])[0]
                ok = d <= radius
                for i, dist in zip(ids[ok], d[ok]):
                    r = self.rank[int(i)]
                    if best is None or r < best[0]:
                        best = (r, int(i), float(dist))
        if self.pending:
            ids = np.asarray(self.pending, dtype=np.intp)
            d = cross_distances(self.metric, q[None, :], self.cloud.coords[ids])[0]
            ok = d <= radius
            for i, dist in zip(ids[ok], d[ok]):
                r = self.rank[int(i)]
                if best is None or r < best[0]:
                    best = (r, int(i), float(dist))
        return best


def declutter(cloud: PointCloud, metric: Metric, k: int,
              kind: DistanceKind = RMS_K, vicinity_factor: float = 2.0,
              strategy: str = AUTO, precomputed_profile: RobustDistanceProfile | None = None,
              index: NeighborIndex | None = None,
              threads: int = 1) -> DeclutterResult:
    """Run the single-parameter declutter pass and return kept ids with a
    witness for every rejection.

    ``precomputed_profile`` lets callers that already hold the robust
    distances (e.g. the parameter-free loop) avoid recomputing them; it must
    match k, kind, and the cloud size exactly.
    """
    k = _check_k(k, cloud.n)
    if not (vicinity_factor > 0):
        raise GeometryError("vicinity factor must be positive")
    if index is None:
        index = build_index(cloud, metric, strategy)
    if precomputed_profile is None:
        prof = profile(cloud, index, k, kind, threads=threads)
    else:
        prof = precomputed_profile
        if prof.k != k or prof.kind.name != kind.name or prof.n != cloud.n:
            raise GeometryError("supplied profile does not match this call")

    values = prof.values
    order = np.lexsort((np.arange(cloud.n), values))
    if index.strategy == KDTREE:
        kept_store = _KeptTree(cloud, metric, 1 if metric.kind == "manhattan" else 2)
    else:
        kept_store = _KeptScan(cloud, metric)

    kept: list[int] = []
    rejected: dict[int, Rejection] = {}
    for pid in order:
        pid = int(pid)
        radius = vicinity_factor * values[pid]
        hit = kept_store.earliest_within(pid, radius)
        if hit is None:
            kept.append(pid)
            kept_store.add(pid)
        else:
            _, witness, dist = hit
            rejected[pid] = Rejection(witness=witness, distance=dist)
    return DeclutterResult(kept=np.asarray(kept, dtype=np.intp),
                           rejected=rejected,
                           order=order.astype(np.intp),
                           profile=prof,
                           vicinity_factor=float(vicinity_factor))
