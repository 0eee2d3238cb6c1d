"""Exact k-nearest-neighbor and fixed-radius queries over a point cloud.

Two strategies: ``brute`` (the oracle) and ``kdtree`` (a spatial tree used
only to generate candidate supersets; final distances are always recomputed
with the canonical routine, so both strategies return identical results,
id for id). Ties are broken by ascending point id everywhere.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
    EUCLIDEAN,
    MANHATTAN,
    PRECOMPUTED,
    GeometryError,
    Metric,
    PointCloud,
    cross_distances,
    row_chunks,
    run_chunked,
)

BRUTE = "brute"
KDTREE = "kdtree"
AUTO = "auto"

# relative inflation applied to tree query radii so that candidate sets are
# guaranteed supersets despite last-ulp differences between the tree's
# internal distances and the canonical ones
_RADIUS_SLACK = 1e-9


def _check_k(k, n: int) -> int:
    """k as a plain int, or GeometryError unless it is an integer in 1..n."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise GeometryError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n:
        raise GeometryError(f"k={k} out of range 1..{n}")
    return int(k)


def _tree_supported(cloud: PointCloud, metric: Metric) -> bool:
    return cloud.is_coordinate and metric.kind in (EUCLIDEAN, MANHATTAN)


class NeighborIndex:
    """Immutable query object over one cloud; safe for concurrent readers."""

    def __init__(self, cloud: PointCloud, metric: Metric, strategy: str = AUTO):
        if metric.kind == PRECOMPUTED:
            if cloud.is_coordinate:
                raise GeometryError("precomputed metric paired with coordinate cloud")
            if metric.matrix.shape[0] != cloud.n:
                raise GeometryError("distance matrix size does not match cloud")
        elif not cloud.is_coordinate:
            raise GeometryError("matrix-backed cloud needs a precomputed metric")
        if strategy == AUTO:
            strategy = KDTREE if _tree_supported(cloud, metric) else BRUTE
        if strategy not in (BRUTE, KDTREE):
            raise GeometryError(f"unknown strategy: {strategy!r}")
        if strategy == KDTREE and not _tree_supported(cloud, metric):
            raise GeometryError(
                "spatial-tree strategy requires a coordinate cloud with an exact metric")
        self.cloud = cloud
        self.metric = metric
        self.strategy = strategy
        self._p = 1 if metric.kind == MANHATTAN else 2
        self._tree = cKDTree(cloud.coords) if strategy == KDTREE else None

    # -- internals ----------------------------------------------------------

    def _members(self):
        """All member points in query form (coords or ids)."""
        c = self.cloud
        return c.coords if c.is_coordinate else c.ids()

    def row_blocks(self, queries, threads: int = 1):
        """Canonical distance rows from queries to all members, chunked.

        Yields (row_slice, block) pairs in order. ``threads`` only pays off
        through :func:`geometry.run_chunked` callers; here generation is lazy.
        """
        q = self.cloud.query_array(queries)
        members = self._members()
        for sl in row_chunks(q.shape[0], self.cloud.n):
            yield sl, cross_distances(self.metric, q[sl], members)

    # -- queries ------------------------------------------------------------

    def k_nearest(self, query, k: int) -> list[tuple[int, float]]:
        """The k nearest members of one query point, sorted by (distance, id).

        A query that coincides with a member returns that member first at
        distance zero; member queries therefore count themselves.
        """
        n = self.cloud.n
        k = _check_k(k, n)
        q = self.cloud.query_array(query)
        if q.shape[0] != 1:
            raise GeometryError("k_nearest takes a single query point")
        cand = None
        if self._tree is not None and k < n:
            internal = self._tree.query(q[0], k=k, p=self._p)[0]
            dk = float(np.atleast_1d(internal)[-1])
            radius = dk * (1.0 + _RADIUS_SLACK)
            cand = np.asarray(
                self._tree.query_ball_point(q[0], radius, p=self._p), dtype=np.intp)
            if cand.size < k:  # paranoia against radius underflow
                cand = None
        if cand is None:
            cand = self.cloud.ids()
        targets = self.cloud.coords[cand] if self.cloud.is_coordinate else cand
        d = cross_distances(self.metric, q, targets)[0]
        order = np.lexsort((cand, d))[:k]
        return [(int(cand[i]), float(d[i])) for i in order]

    def knn_distance_rows(self, queries, k: int, threads: int = 1) -> np.ndarray:
        """(m, k) array: per query, its k smallest member distances sorted
        ascending. Values are tie-insensitive, so this is strategy-free."""
        n = self.cloud.n
        k = _check_k(k, n)
        q = self.cloud.query_array(queries)
        m = q.shape[0]
        members = self._members()
        out = np.empty((m, k))

        def work(sl: slice) -> None:
            block = cross_distances(self.metric, q[sl], members)
            if k < n:
                block = np.partition(block, k - 1, axis=1)[:, :k]
            block.sort(axis=1)
            out[sl] = block[:, :k]

        run_chunked(row_chunks(m, n), work, threads)
        return out

    def ball_ids(self, query, radius: float) -> np.ndarray:
        """Ids of all members within the closed ball of the given radius."""
        if radius < 0:
            raise GeometryError("ball radius must be non-negative")
        q = self.cloud.query_array(query)
        if q.shape[0] != 1:
            raise GeometryError("ball_ids takes a single query point")
        if self._tree is not None:
            cand = np.asarray(
                self._tree.query_ball_point(q[0], radius * (1.0 + _RADIUS_SLACK),
                                            p=self._p),
                dtype=np.intp)
            if cand.size == 0:
                return cand
            d = cross_distances(self.metric, q, self.cloud.coords[cand])[0]
            return np.sort(cand[d <= radius])
        targets = self._members()
        d = cross_distances(self.metric, q, targets)[0]
        return np.flatnonzero(d <= radius).astype(np.intp)

    def ball_ids_many(self, queries, radii) -> list[np.ndarray]:
        """Closed-ball memberships for several query points at once."""
        q = self.cloud.query_array(queries)
        radii = np.asarray(radii, dtype=np.float64)
        if radii.shape != (q.shape[0],):
            raise GeometryError("one radius per query point required")
        if np.any(radii < 0):
            raise GeometryError("ball radius must be non-negative")
        if self._tree is not None:
            raw = self._tree.query_ball_point(q, radii * (1.0 + _RADIUS_SLACK),
                                              p=self._p)
            result = []
            for row, cand in enumerate(raw):
                cand = np.asarray(cand, dtype=np.intp)
                if cand.size == 0:
                    result.append(cand)
                    continue
                d = cross_distances(self.metric, q[row:row + 1],
                                    self.cloud.coords[cand])[0]
                result.append(np.sort(cand[d <= radii[row]]))
            return result
        result = []
        for sl, block in self.row_blocks(q):
            sub = radii[sl]
            for row in range(block.shape[0]):
                result.append(np.flatnonzero(block[row] <= sub[row]).astype(np.intp))
        return result


def build_index(cloud: PointCloud, metric: Metric, strategy: str = AUTO) -> NeighborIndex:
    """Build a neighbor index over the cloud (spec operation name)."""
    return NeighborIndex(cloud, metric, strategy)
