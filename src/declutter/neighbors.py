"""Exact k-nearest-neighbor and fixed-radius queries over a point cloud.

Two strategies: ``brute`` (the oracle, dense distance blocks) and ``kdtree``
(a spatial tree that only proposes candidates). k-NN rows, ``k_nearest`` and
nearest-point queries share one candidate-then-canonical path: the tree's
k+1 nearest, canonical distances of the first k from
:func:`geometry.paired_distances`, and a closed-ball recheck of rows tied at
the k-th distance. The tree answers when ``k * 2**(d + 4) <= n`` (d the
dimension) and dense blocks answer otherwise (always on a matrix-backed
cloud); a dense block's distance rows are sorted in the block itself and its
k-prefix is the result, and at k = 1 its ids are the block's argmin. Both
strategies return identical results, id for id and byte for byte. Ties are
broken by ascending point id everywhere. :func:`nearest_cross` is the k = 1
row over an index of the targets, for coordinate rows and matrix ids alike.
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
    _member_ids,
    _positive_int,
    cross_distances,
    paired_distances,
    row_chunks,
    run_chunked,
)

BRUTE = "brute"
KDTREE = "kdtree"
AUTO = "auto"

# relative inflation applied to tree distances so that candidate sets are
# guaranteed supersets despite last-ulp differences between the tree's
# internal distances and the canonical ones (both square the same coordinate
# differences and only sum them in another order)
_RADIUS_SLACK = 1e-9

# the tree answers k-NN queries when k * 2**(d + _TREE_SHIFT) <= n; above
# that the dense blocks are faster (BENCH_tree_rows.json)
_TREE_SHIFT = 4


def _tree_supported(cloud: PointCloud, metric: Metric) -> bool:
    return cloud.is_coordinate and metric.kind in (EUCLIDEAN, MANHATTAN)


class NeighborIndex:
    """Immutable query object over one cloud.

    The cloud, metric and tree never change after construction and no query
    result is kept, so concurrent readers need no locking. Callers that want
    the members' k-NN rows at several k read them in row blocks
    (:func:`robust.values_at_scales`) rather than from a stored table.
    """

    def __init__(self, cloud: PointCloud, metric: Metric, strategy: str = AUTO):
        cloud.check_metric(metric)
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

    # -- queries ------------------------------------------------------------

    def _tree_serves(self, k: int) -> bool:
        """Whether k-NN queries at this k are answered from the tree: on the
        kd-tree strategy, when k is small next to the cloud size. A dense row
        costs n cells whatever k is, while a tree query costs about k times a
        factor that grows up to twofold with each dimension the points fill,
        so the tree may answer up to a fraction of n that halves per
        dimension."""
        return (self._tree is not None
                and k * 2 ** (self.cloud.dim + _TREE_SHIFT) <= self.cloud.n)

    def _row_cells(self, k: int) -> int:
        """Cells one query row at this k holds while it is answered: a dense
        row of n distances, or on the tree path about (k + 1) * (d + 7) (the
        candidates, their coordinates, the canonical sums and the output)."""
        if self._tree_serves(k):
            return (k + 1) * (self.cloud.dim + 7)
        return self.cloud.n

    def _ball_cells(self) -> int:
        """Cells one closed-ball query row may hold while it is answered from
        the tree: up to n candidates, each with its id (a Python int first),
        row, both coordinate rows and the canonical sums, about 2d + 12."""
        return self.cloud.n * (2 * self.cloud.dim + 12)

    def k_nearest(self, query, k: int) -> list[tuple[int, float]]:
        """The k nearest members of one query point, sorted by (distance, id).

        A query is a coordinate row or a matrix row id. One that coincides
        with a member returns that member first at distance zero; member
        queries therefore count themselves.
        """
        q = self.cloud.query_array(query)
        if q.shape[0] != 1:
            raise GeometryError("k_nearest takes a single query point")
        dist, ids = self._nearest_rows(q, k)
        return [(int(i), float(d)) for i, d in zip(ids[0], dist[0])]

    def _nearest_rows(self, queries, k: int,
                      threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """(m, k) distances and ids of each query's k nearest members, sorted
        by (distance, id)."""
        k = _positive_int(k, "k", self.cloud.n)
        threads = _positive_int(threads, "threads")
        q = self.cloud.query_array(queries)
        if self._tree_serves(k):
            return self._tree_rows(q, k, threads)
        return self._dense_rows(q, k, threads)

    def _dense_rows(self, q: np.ndarray, k: int,
                    threads: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_nearest_rows` from dense blocks."""
        dist = np.empty((q.shape[0], k))
        ids = np.empty((q.shape[0], k), dtype=np.intp)

        def work(sl: slice) -> None:
            block = cross_distances(self.metric, q[sl], self.cloud.points)
            # argmin's first minimum and a stable sort keep ties in id order
            ids[sl] = (block.argmin(axis=1)[:, None] if k == 1
                       else np.argsort(block, axis=1, kind="stable")[:, :k])
            dist[sl] = np.take_along_axis(block, ids[sl], axis=1)

        run_chunked(row_chunks(q.shape[0], self.cloud.n), work, threads)
        return dist, ids

    def _tree_rows(self, q: np.ndarray, k: int,
                   threads: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`_nearest_rows` from tree candidates: the tree's k+1 nearest
        give the candidates and canonical distances of the first k decide.

        A row is exact when its (k+1)-th tree distance is clear of the k-th by
        twice the slack: every member outside the first k is then canonically
        farther than every member inside. The other rows (ties at the k-th
        distance) recompute over a closed ball that holds every member as
        near as the k-th. With k = n there is nothing outside.
        Rows whose tree distances overflow take the dense blocks.
        """
        n = self.cloud.n
        pts = self.cloud.points
        dist = np.empty((q.shape[0], k))
        ids = np.empty((q.shape[0], k), dtype=np.intp)
        for sl in row_chunks(q.shape[0], self._row_cells(k)):
            m = sl.stop - sl.start
            tree_d, cand = self._tree.query(q[sl], k=min(k + 1, n), p=self._p,
                                            workers=threads)
            tree_d, cand = tree_d.reshape(m, -1), cand.reshape(m, -1)
            # the tree reports distances that overflow as missing neighbours
            # (id n); those rows are answered from dense blocks below
            overflow = ~np.isfinite(tree_d[:, -1])
            cand[overflow] = 0
            ids[sl] = cand[:, :k]
            dist[sl] = paired_distances(self.metric, q[sl, None, :], pts[ids[sl]])
            # the tree's order is the canonical one unless rounding swaps or
            # ties two candidates; only those rows need sorting
            d, c = dist[sl], ids[sl]
            swapped = np.flatnonzero(~np.all(d[:, 1:] > d[:, :-1], axis=1))
            order = np.lexsort((c[swapped], d[swapped]), axis=1)
            d[swapped] = np.take_along_axis(d[swapped], order, axis=1)
            c[swapped] = np.take_along_axis(c[swapped], order, axis=1)
            reach = tree_d[:, k - 1] * (1.0 + 2 * _RADIUS_SLACK)
            tied = ~(tree_d[:, k] > reach) if k < n else np.zeros(m, dtype=bool)
            loose = sl.start + np.flatnonzero(tied & ~overflow)
            for part in row_chunks(loose.size, self._ball_cells()):
                rows = loose[part]
                dist[rows], ids[rows] = self._ball_rows(
                    q[rows], reach[rows - sl.start], k, threads)
            rows = sl.start + np.flatnonzero(overflow)
            if rows.size:
                dist[rows], ids[rows] = self._dense_rows(q[rows], k, threads)
        return dist, ids

    def _ball_rows(self, q: np.ndarray, radii: np.ndarray, k: int,
                   threads: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest by (distance, id) among each query's members within
        its closed ball (which must hold at least k of them)."""
        row, cand, d = self._ball_candidates(q, radii, threads)
        order = np.lexsort((cand, d, row))
        first = np.searchsorted(row[order], np.arange(q.shape[0]))
        pick = order[first[:, None] + np.arange(k)]
        return d[pick], cand[pick]

    def _ball_candidates(self, q: np.ndarray, radii: np.ndarray, threads: int = 1):
        """Flat (query row, member id, canonical distance) triples for the
        tree's closed-ball supersets, grouped by row and ascending in id."""
        raw = self._tree.query_ball_point(q, radii * (1.0 + _RADIUS_SLACK),
                                          p=self._p, workers=threads,
                                          return_sorted=True)
        counts = np.fromiter((len(c) for c in raw), dtype=np.intp, count=len(raw))
        cand = (np.concatenate(raw).astype(np.intp) if counts.sum()
                else np.empty(0, dtype=np.intp))
        row = np.repeat(np.arange(q.shape[0]), counts)
        d = paired_distances(self.metric, q[row], self.cloud.points[cand])
        return row, cand, d

    def knn_distance_rows(self, queries, k: int, threads: int = 1) -> np.ndarray:
        """(m, k) array: per query, its k smallest member distances sorted
        ascending. Values are tie-insensitive, so this is strategy-free.

        The rows are the caller's to overwrite. On dense blocks, queries that
        fit one block get a view of that block's sorted prefix, no copy.
        """
        n = self.cloud.n
        k = _positive_int(k, "k", n)
        threads = _positive_int(threads, "threads")
        q = self.cloud.query_array(queries)
        if self._tree_serves(k):
            return self._tree_rows(q, k, threads)[0]
        chunks = row_chunks(q.shape[0], n)
        if len(chunks) == 1:
            return self._sorted_block(q, k)
        out = np.empty((q.shape[0], k))

        def work(sl: slice) -> None:
            out[sl] = self._sorted_block(q[sl], k)

        run_chunked(chunks, work, threads)
        return out

    def _sorted_block(self, q: np.ndarray, k: int) -> np.ndarray:
        """The k-prefix of the queries' dense distance block, sorted ascending
        inside the block itself: a view of the block, which the caller owns.

        Below k/n = 0.6 the block is partitioned at k and only the prefix is
        sorted; from there on sorting whole rows is faster
        (BENCH_sweep_kernel.json). Both give the same bytes, since sorting the
        same values orders them the same way (a distance is never -0.0).
        """
        n = self.cloud.n
        # a fresh array (never a view of a matrix), so it is sorted in place
        block = cross_distances(self.metric, q, self.cloud.points)
        if 5 * k >= 3 * n:
            block.sort(axis=1)
        else:
            block.partition(k - 1, axis=1)
            block[:, :k].sort(axis=1)
        return block[:, :k]

    def ball_ids(self, query, radius: float) -> np.ndarray:
        """Ids of all members within the closed ball of the given radius."""
        q = self.cloud.query_array(query)
        if q.shape[0] != 1:
            raise GeometryError("ball_ids takes a single query point")
        return self.ball_ids_many(q, [radius])[0]

    def ball_ids_many(self, queries, radii) -> list[np.ndarray]:
        """Closed-ball memberships for several query points at once."""
        q = self.cloud.query_array(queries)
        radii = np.asarray(radii, dtype=np.float64)
        if radii.shape != (q.shape[0],):
            raise GeometryError("one radius per query point required")
        if np.any(radii < 0):
            raise GeometryError("ball radius must be non-negative")
        result = []
        if self._tree is not None:
            for sl in row_chunks(q.shape[0], self._ball_cells()):
                row, cand, d = self._ball_candidates(q[sl], radii[sl])
                inside = d <= radii[sl][row]
                ends = np.cumsum(np.bincount(row[inside], minlength=sl.stop - sl.start))
                result.extend(np.split(cand[inside], ends)[:-1])
            return result
        for sl in row_chunks(q.shape[0], self.cloud.n):
            block = cross_distances(self.metric, q[sl], self.cloud.points)
            result.extend(np.flatnonzero(row <= r) for row, r in zip(block, radii[sl]))
        return result

    def _captured(self, q: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """Boolean mask of the members inside some query's closed ball, the
        union of :meth:`ball_ids_many`, marked block by block without
        building any ball's id array."""
        captured = np.zeros(self.cloud.n, dtype=bool)
        if self._tree is not None:
            for sl in row_chunks(q.shape[0], self._ball_cells()):
                row, cand, d = self._ball_candidates(q[sl], radii[sl])
                captured[cand[d <= radii[sl][row]]] = True
            return captured
        for sl in row_chunks(q.shape[0], self.cloud.n):
            block = cross_distances(self.metric, q[sl], self.cloud.points)
            captured |= (block <= radii[sl, None]).any(axis=0)
        return captured


def build_index(cloud: PointCloud, metric: Metric, strategy: str = AUTO) -> NeighborIndex:
    """Build a neighbor index over the cloud (spec operation name)."""
    return NeighborIndex(cloud, metric, strategy)


def nearest_cross(metric: Metric, queries, targets,
                  threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per query: (distance to nearest target, its index, ties -> lowest).
    Queries and targets are coordinate rows, or matrix row ids under a
    precomputed metric (targets: integers in range, at least one)."""
    if metric.kind == PRECOMPUTED:
        n = metric.matrix.shape[0]
        cloud = PointCloud(_member_ids(np.atleast_1d(targets), n), n)
    else:
        cloud = PointCloud.from_coords(np.atleast_2d(targets))
    dist, ids = build_index(cloud, metric)._nearest_rows(queries, 1, threads)
    return dist[:, 0], ids[:, 0]
