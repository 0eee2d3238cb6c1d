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
The clearance test (whether the nearest member is at least a radius away)
asks the tree one bounded question per row block and takes the canonical
path only for rows within the slack of the radius. Resampling's captured
mask checks each member against its nearest ball centre and walks balls
only for the members that check leaves open (:meth:`NeighborIndex._captured`).
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .geometry import (
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

# relative and absolute inflation of the 1-Lipschitz bound v(s) + |r - s| on
# a reference point r's robust value from a point s (certify), so that the
# inflated bound, as computed, is never below r's computed value. In normal
# range a canonical distance (d coordinate terms summed in order) is within
# (d + 3) * 2**-53 of exact, relatively, and a running sum of k values within
# (k + 3) * 2**-53, so rounding moves value and bound apart by less than
# 2 * (d + k + 8) * 2**-53: 1e-6 covers d + k up to about 2**32, beyond any
# cloud whose k-NN rows fit in memory. A square below the least normal float
# rounds to a multiple of the least subnormal instead, an absolute loss of
# under 2**-515 in any value at d and k up to 2**40, which 2**-500 covers.
_LIPSCHITZ_SLACK = 1e-6
_LIPSCHITZ_FLOOR = 2.0 ** -500

# the tree answers k-NN queries when k * 2**(d + _TREE_SHIFT) <= n; above
# that the dense blocks are faster (BENCH_tree_rows.json)
_TREE_SHIFT = 4

# every tree's layout: median splits as in scipy's default, but each node
# keeps its whole cell instead of shrinking it to its points. Queries far
# from a dense sample (the clearance sampler, cond2) then run about twice as
# fast and builds about 1.2 times as fast, and no other query shape the
# library runs is slower beyond timing noise. Sliding-midpoint splits lose
# 10-40% on Gaussian clouds in 5 and 9 dimensions, and leaves of 32 or 64
# points lose 14-20% on Hausdorff queries into a small kept set
# (BENCH_tree_layout.json; git show bbe28ed:scripts/bench_tree_layout.py)
_TREE_LAYOUT = {"leafsize": 16, "compact_nodes": False, "balanced_tree": True}

# resampling checks members against their nearest ball centre first when the
# balls hold at least _CAPTURE_LOAD candidates per member, estimated from
# every _CAPTURE_STRIDE-th ball; below that, walking the balls alone is
# faster (BENCH_resample.json; git show bbe28ed:scripts/bench_resample.py)
_CAPTURE_LOAD = 2
_CAPTURE_STRIDE = 32


def _tree_bound(radius, p: int) -> float | None:
    """The ``distance_upper_bound`` under which a tree query with Minkowski
    p finds every point canonically within ``radius``: the radius inflated
    by twice the slack. None when the bound's p-th power is not a normal
    float: the tree compares p-th powers, and one that underflows or
    overflows loses the slack."""
    with np.errstate(over="ignore", under="ignore"):
        bound = np.float64(radius) * (1.0 + 2 * _RADIUS_SLACK)
        power = bound ** p
    return bound if np.finfo(np.float64).tiny <= power < np.inf else None


class NeighborIndex:
    """Immutable query object over one cloud.

    The cloud, metric and tree never change after construction and no query
    result is kept, so concurrent readers need no locking. Callers that want
    the members' k-NN rows at several k read them in row blocks
    (:func:`robust.values_at_scales`) rather than from a stored table.

    The tree has one layout, ``_TREE_LAYOUT``: leaves of 16 points, median
    splits and cells not shrunk to their points. It is laid out for far
    queries, since ambient noise lies far from the dense sample it is
    tested against (``BENCH_tree_layout.json``). The layout only changes
    which candidates the tree proposes, never an answer.
    """

    def __init__(self, cloud: PointCloud, metric: Metric, strategy: str = AUTO):
        cloud.check_metric(metric)  # so a coordinate cloud has an exact metric
        if strategy == AUTO:
            strategy = KDTREE if cloud.is_coordinate else BRUTE
        if strategy not in (BRUTE, KDTREE):
            raise GeometryError(f"unknown strategy: {strategy!r}")
        if strategy == KDTREE and not cloud.is_coordinate:
            raise GeometryError("spatial-tree strategy requires a coordinate cloud")
        self.cloud = cloud
        self.metric = metric
        self.strategy = strategy
        self._p = 1 if metric.kind == MANHATTAN else 2
        self._tree = (cKDTree(cloud.coords, **_TREE_LAYOUT) if strategy == KDTREE
                      else None)

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

    def _clear_of(self, queries, radius: float) -> np.ndarray:
        """Boolean mask: True where the query's canonical distance to its
        nearest member is at least ``radius`` (a non-negative float).

        On the tree path each row block asks one bounded question: the
        nearest member within ``radius`` inflated by twice the slack. A row
        with nothing inside that bound is clear, since every member's
        canonical distance is then at least ``radius``; that holds too when
        the tree's distance overflows. A row whose tree distance falls in
        the slack band around ``radius`` is rechecked from canonical
        distances, and a row below the band is not clear. The bound is
        applied to the p-th powers of distances, so a radius whose p-th
        power is not a normal float (it underflows or overflows) is answered
        from :meth:`_nearest_rows` instead, as is every query without the
        tree (dense blocks).
        """
        q = self.cloud.query_array(queries)
        bound = _tree_bound(radius, self._p)
        if not (self._tree_serves(1) and bound is not None):
            return self._nearest_rows(q, 1)[0][:, 0] >= radius
        clear = np.empty(q.shape[0], dtype=bool)
        for sl in row_chunks(q.shape[0], self._row_cells(1)):
            near = self._tree.query(q[sl], k=1, p=self._p, distance_upper_bound=bound)[0]
            clear[sl] = near >= bound  # inf: no member inside the bound
            band = sl.start + np.flatnonzero(
                (near >= radius * (1.0 - 2 * _RADIUS_SLACK)) & (near < bound))
            if band.size:
                clear[band] = self._nearest_rows(q[band], 1)[0][:, 0] >= radius
        return clear

    def _ball_rows(self, q: np.ndarray, radii: np.ndarray, k: int,
                   threads: int) -> tuple[np.ndarray, np.ndarray]:
        """The k nearest by (distance, id) among each query's members within
        its closed ball (which must hold at least k of them)."""
        row, cand, d = self._ball_candidates(q, radii, threads)
        order = np.lexsort((cand, d, row))
        first = np.searchsorted(row[order], np.arange(q.shape[0]))
        pick = order[first[:, None] + np.arange(k)]
        return d[pick], cand[pick]

    def _wide(self, q: np.ndarray) -> np.ndarray:
        """Mask of the query rows the tree cannot ball-query. scipy refuses a
        ball query that meets a distance which overflows, and no distance
        the tree computes for a row exceeds the one to the farthest corner
        of the members' bounding box: the rows whose corner distance
        overflows."""
        with np.errstate(over="ignore"):
            corner = np.maximum(np.abs(q - self._tree.mins), np.abs(q - self._tree.maxes))
            return ~np.isfinite((corner ** self._p).sum(axis=1))

    def _ball_candidates(self, q: np.ndarray, radii: np.ndarray, threads: int = 1):
        """Flat (query row, member id, canonical distance) triples for the
        tree's closed-ball supersets, grouped by row and ascending in id.

        Rows that :meth:`_wide` flags take every member as their candidates.
        """
        with np.errstate(over="ignore"):
            r = radii * (1.0 + _RADIUS_SLACK)
        wide = self._wide(q)
        if not wide.any():
            raw = self._tree.query_ball_point(q, r, p=self._p, workers=threads,
                                              return_sorted=True)
        else:
            raw = [np.arange(self.cloud.n)] * q.shape[0]
            narrow = np.flatnonzero(~wide)
            for i, c in zip(narrow, self._tree.query_ball_point(
                    q[narrow], r[narrow], p=self._p, workers=threads,
                    return_sorted=True)):
                raw[i] = c
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
        """Closed-ball memberships for several query points, as ascending
        ids: per row block, the block's :meth:`_captured` union, and each
        query's members of it."""
        q = self.cloud.query_array(queries)
        radii = np.asarray(radii, dtype=np.float64)
        if radii.shape != (q.shape[0],):
            raise GeometryError("one radius per query point required")
        if not np.all(radii >= 0):  # NaN compares False either way
            raise GeometryError("ball radius must be non-negative, not NaN")
        result = []
        cells = self.cloud.n if self._tree is None else self._ball_cells()
        for sl in row_chunks(q.shape[0], cells):
            union = np.flatnonzero(self._captured(q[sl], radii[sl]))
            block = cross_distances(self.metric, q[sl], self.cloud.points[union])
            result.extend(union[row <= r] for row, r in zip(block, radii[sl]))
        return result

    def _captured(self, q: np.ndarray, radii: np.ndarray) -> np.ndarray:
        """Boolean mask of the members inside some query's closed ball.

        Dense blocks mark it block by block. On the tree path, when the
        balls hold many candidates per member (:meth:`_ball_load`), it takes
        two phases. First, one tree over the ball centres gives each member
        its nearest centre c, and the member is captured when its canonical
        distance to c is within c's radius. Second, the members that check
        leaves open go through the ball pass: each ball's candidates from a
        tree, decided by canonical distances. The first phase marks only
        true captures and the pass is exact over every other member, so the
        tree's choice of c decides which members reach the pass, never the
        mask. When the balls hold few candidates, or most members are left
        open, the pass runs alone on this index's own tree; otherwise on a
        tree over the open members.
        """
        n = self.cloud.n
        captured = np.zeros(n, dtype=bool)
        if self._tree is not None:
            if q.shape[0] and self._ball_load(q, radii) >= _CAPTURE_LOAD * n:
                centres = cKDTree(q, **_TREE_LAYOUT)
                for sl in row_chunks(n, self._row_cells(1)):
                    pts = self.cloud.points[sl]
                    # a member whose tree distances all overflow gets the
                    # missing centre m, read as the last one: any centre
                    # whose ball holds the member is a true capture
                    near = np.minimum(centres.query(pts, k=1, p=self._p)[1],
                                      q.shape[0] - 1)
                    d = paired_distances(self.metric, pts, q[near])
                    captured[sl] = d <= radii[near]
            open_ids = np.flatnonzero(~captured)
            if open_ids.size == 0:
                return captured
            index = self
            if 2 * open_ids.size <= n:
                index = NeighborIndex(PointCloud.from_coords(self.cloud.points[open_ids]),
                                      self.metric, KDTREE)
            for sl in row_chunks(q.shape[0], index._ball_cells()):
                row, cand, d = index._ball_candidates(q[sl], radii[sl])
                hit = cand[d <= radii[sl][row]]
                captured[hit if index is self else open_ids[hit]] = True
            return captured
        for sl in row_chunks(q.shape[0], self.cloud.n):
            block = cross_distances(self.metric, q[sl], self.cloud.points)
            captured |= (block <= radii[sl, None]).any(axis=0)
        return captured

    def _ball_load(self, q: np.ndarray, radii: np.ndarray) -> float:
        """Estimated member count of all the closed balls together: the
        mean over every ``_CAPTURE_STRIDE``-th ball, times the ball count. A
        ball the tree cannot query (:meth:`_wide`) counts every member."""
        pick = slice(None, None, _CAPTURE_STRIDE)
        qs, rs = q[pick], radii[pick]
        wide = self._wide(qs)
        held = self._tree.query_ball_point(qs[~wide], rs[~wide], p=self._p,
                                           return_length=True)
        return (held.sum() + wide.sum() * self.cloud.n) * q.shape[0] / qs.shape[0]


def build_index(cloud: PointCloud, metric: Metric, strategy: str = AUTO) -> NeighborIndex:
    """Build a neighbor index over the cloud (spec operation name)."""
    return NeighborIndex(cloud, metric, strategy)


def nearest_cross(metric: Metric, queries, targets,
                  threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per query: (distance to nearest target, its index, ties -> lowest).
    Queries and targets are coordinate rows, or matrix row ids under a
    precomputed metric (read flat; at least one target)."""
    if metric.kind == PRECOMPUTED:
        n = metric.matrix.shape[0]
        cloud = PointCloud(_member_ids(targets, n), n)
    else:
        cloud = PointCloud.from_coords(np.atleast_2d(targets))
    dist, ids = build_index(cloud, metric)._nearest_rows(queries, 1, threads)
    return dist[:, 0], ids[:, 0]
