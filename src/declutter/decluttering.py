"""Greedy decluttering: keep a point only if no already-kept point lies in
its vicinity ball.

Points are processed in order of increasing robust distance (ties by id).
The vicinity ball of p is the CLOSED ball of radius 2 * d_k(p), the paper's
factor, fixed so that k stays the one parameter: a boundary point blocks
selection, which also makes the radius-zero coincident-point case well
defined.

The pass is a blocked scan. It takes the next B points in processing order
and makes one :func:`geometry.cross_distances` call of those points against
the kept set so far, held in selection order. A point hit by a kept point
from before its block is rejected, and its witness is the first hit. The
rest resolve in order among themselves on one dense block of just those
points. A pre-block kept point always precedes an in-block one in selection
order, so the witness of a rejection is still the earliest kept point inside
the ball, exactly as in a point-by-point scan, and its recorded distance is
that canonical value. Blocks get fewer rows once the kept set is large, so
neither dense block exceeds the cell budget of :func:`geometry.row_chunks`.

On the kd-tree strategy with a coordinate cloud, the scan runs in windows of
W points of the processing order. Once the kept set is large for its
dimension, a window first asks a kd-tree of the points kept before it, in
selection order, for each window point's K nearest within the window's last
(largest) radius, inflated by twice the tree slack. Canonical
:func:`geometry.paired_distances` decide each candidate, and the lowest
selection rank among a point's hits is its witness: every kept point inside
the ball is among the candidates unless the K-th candidate is itself inside
the inflated ball, and such a row takes the dense compare against that kept
set instead. So does a window whose bound's p-th power is not a normal float
(the tree applies the bound to p-th powers). The window's points that no
earlier kept point hits then run the blocked scan against only the points
kept inside the window, which all come later in selection order. The witness
is therefore the same earliest kept point, with the same canonical distance,
as on the dense scan. The brute strategy and matrix-backed clouds always take
the dense scan.

:func:`declutter` is the robust profile at one k followed by that pass;
:func:`greedy_declutter` runs the pass on a profile the caller already has
and records a :class:`Rejection` per dropped point. The pass itself works on
arrays (kept order, processing order, dropped ids with their witnesses and
witness distances), which the parameter-free loop reads directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import geometry
from .geometry import (MANHATTAN, GeometryError, Metric, PointCloud, cross_distances,
                       paired_distances, row_chunks)
from .neighbors import (_RADIUS_SLACK, _TREE_LAYOUT, _TREE_SHIFT, AUTO, KDTREE, NeighborIndex,
                        _tree_bound, build_index)
from .robust import DistanceKind, RMS_K, RobustDistanceProfile, profile

# points per block of the greedy scan, read from BENCH_greedy_blocks.json
_BLOCK = 64

# the kd-tree pass, read from BENCH_greedy_tree.json: points per window of
# the processing order and kept-set candidates asked per point. A window asks
# the tree when an index over the kept set would answer _TREE_K-NN rows from
# its tree (neighbors._TREE_SHIFT): from 256 kept points in 2-D, twice as
# many with each further dimension, since a tree query's cost grows with the
# dimension and the dense compare's does not
_WINDOW = 1024
_TREE_K = 4

# a vicinity ball's radius over its point's robust distance
VICINITY_FACTOR = 2.0


@dataclass(frozen=True, slots=True)
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

    @property
    def kept_ids(self) -> np.ndarray:
        """Kept ids in ascending id order."""
        return np.sort(self.kept)

    def to_dict(self) -> dict:
        return {
            "k": int(self.profile.k),
            "kind": self.profile.kind.name,
            "vicinity_factor": VICINITY_FACTOR,
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
              kind: DistanceKind = RMS_K, strategy: str = AUTO,
              threads: int = 1) -> DeclutterResult:
    """Run the single-parameter declutter pass and return kept ids with a
    witness for every rejection: the robust profile at k
    (:func:`robust.profile`) followed by :func:`greedy_declutter`, on the
    index's strategy: the brute strategy keeps the dense scan.
    """
    return _declutter_on(build_index(cloud, metric, strategy), k, kind, threads)


def _declutter_on(index: NeighborIndex, k: int, kind: DistanceKind,
                  threads: int) -> DeclutterResult:
    """:func:`declutter` over the index's cloud, on an index the caller
    keeps (the CLI resamples on it)."""
    cloud, metric = index.cloud, index.metric
    prof = profile(cloud, index, k, kind, threads=threads)
    if index.strategy == KDTREE:
        return greedy_declutter(cloud, metric, prof)  # a coordinate cloud
    return _greedy_result(cloud, metric, prof, tree=False)


def greedy_declutter(cloud: PointCloud, metric: Metric,
                     prof: RobustDistanceProfile) -> DeclutterResult:
    """The greedy pass over a given profile of the cloud's members: points in
    order of increasing robust distance (ties by id), each kept unless an
    earlier kept point lies in its closed vicinity ball. The strategy is
    resolved as ``auto`` resolves it."""
    return _greedy_result(cloud, metric, prof, cloud.is_coordinate)


def _greedy_result(cloud: PointCloud, metric: Metric, prof: RobustDistanceProfile,
                   tree: bool) -> DeclutterResult:
    """:func:`greedy_declutter` with the kept-set tree on or off."""
    cloud.check_metric(metric)
    if prof.n != cloud.n:
        raise GeometryError("profile does not cover this cloud")
    kept, order, dropped, witness, witness_distance = _greedy_pass(
        metric, cloud.points, prof.values, tree)
    rejected = {p: Rejection(w, x) for p, w, x in zip(
        dropped.tolist(), witness.tolist(), witness_distance.tolist())}
    return DeclutterResult(kept=kept, rejected=rejected, order=order, profile=prof)


def _greedy_pass(metric: Metric, members: np.ndarray, values: np.ndarray,
                 tree: bool = False):
    """The greedy pass on arrays: the members' points and robust values, in
    windows that ask a kd-tree of the kept set when ``tree`` is set (a
    coordinate cloud). Returns (kept ids in selection order, processing
    order, dropped ids in processing order, their witnesses, their witness
    distances)."""
    run = _Pass(metric, members, values)
    n = members.shape[0]
    step = _WINDOW if tree else n
    for start in range(0, n, step):
        window = run.order[start:start + step]
        lo = 0  # kept points from rank lo on are compared block by block
        if tree and _TREE_K * 2 ** (members.shape[1] + _TREE_SHIFT) <= run.m:
            bound = _tree_bound(run.radii[window[-1]], run.p)
            if bound is not None:
                window, lo = run.tree_window(window, bound), run.m
        run.blocks(window, lo)
    return run.result()


class _Pass:
    """The state of one greedy pass: the processing order and radii, the
    kept ids and points in selection order, and each dropped point's
    witness and witness distance."""

    def __init__(self, metric: Metric, members: np.ndarray, values: np.ndarray):
        n = members.shape[0]
        self.metric = metric
        self.p = 1 if metric.kind == MANHATTAN else 2
        self.members = members
        self.order = np.lexsort((np.arange(n), values))
        # a radius that overflows is infinite, which is the exact decision:
        # every finite distance lies inside it
        with np.errstate(over="ignore"):
            self.radii = VICINITY_FACTOR * values
        self.kept_buf = np.empty_like(members)  # kept members, selection order
        self.kept = np.empty(n, dtype=np.intp)  # kept ids, selection order
        self.m = 0
        self.witness = np.full(n, -1, dtype=np.intp)
        self.witness_distance = np.zeros(n)

    def hits(self, rows: np.ndarray, lo: int) -> np.ndarray:
        """Mask of the rows hit by a kept point of selection rank lo or
        later, from one dense block; a hit row's witness is its first hit,
        the earliest kept one."""
        d = cross_distances(self.metric, self.members[rows], self.kept_buf[lo:self.m])
        hit = d <= self.radii[rows, None]
        first = hit.argmax(axis=1)
        out = hit[np.arange(rows.size), first]
        self.witness[rows[out]] = self.kept[lo + first[out]]
        self.witness_distance[rows[out]] = d[out, first[out]]
        return out

    def full_rows(self, rows: np.ndarray) -> np.ndarray:
        """:meth:`hits` against the whole kept set, in row blocks."""
        hit = np.empty(rows.size, dtype=bool)
        for sl in row_chunks(rows.size, self.m):
            hit[sl] = self.hits(rows[sl], 0)
        return hit

    def tree_window(self, window: np.ndarray, bound: float) -> np.ndarray:
        """The window's points that no kept point hits, found from a kd-tree
        of the kept set: per row block one query for each point's
        ``_TREE_K`` nearest within ``bound``, canonical distances of those
        candidates, and the dense compare for rows whose last candidate is
        inside the inflated ball (there may be more hits beyond it)."""
        m, members, radii = self.m, self.members, self.radii
        index = cKDTree(self.kept_buf[:m], **_TREE_LAYOUT)
        hit = np.empty(window.size, dtype=bool)
        for sl in row_chunks(window.size, _TREE_K * (members.shape[1] + 7)):
            rows = window[sl]
            tree_d, cand = index.query(members[rows], k=_TREE_K, p=self.p,
                                       distance_upper_bound=bound)
            tree_d, cand = tree_d.reshape(rows.size, -1), cand.reshape(rows.size, -1)
            r = radii[rows]
            full = ~(tree_d[:, -1] > r * (1.0 + 2 * _RADIUS_SLACK))
            found = cand < m  # a missing candidate is reported as id m
            d = paired_distances(self.metric, members[rows, None, :],
                                 self.kept_buf[np.where(found, cand, 0)])
            # candidate ids are selection ranks: the lowest hit is the witness
            rank = np.where(found & (d <= r[:, None]), cand, m)
            first = rank.argmin(axis=1)
            w = rank[np.arange(rows.size), first]
            out = (w < m) & ~full
            self.witness[rows[out]] = self.kept[w[out]]
            self.witness_distance[rows[out]] = d[out, first[out]]
            if full.any():
                out[full] = self.full_rows(rows[full])
            hit[sl] = out
        return window[~hit]

    def blocks(self, window: np.ndarray, lo: int) -> None:
        """Decide the window's points in blocks: against the points kept
        from rank lo on, then in order among the block's own points."""
        pos = 0
        while pos < window.size:
            rows = max(1, min(_BLOCK, geometry._CHUNK_CELLS // max(self.m - lo, _BLOCK)))
            block = window[pos:pos + rows]
            pos += rows
            if self.m > lo:
                # points hit by a kept point from before the block: the
                # first hit is the earliest kept one
                block = block[~self.hits(block, lo)]
            if block.size > 1:
                # the rest resolve in order among themselves: row i is hit by
                # earlier rows j < i, and only kept ones block it
                d = cross_distances(self.metric, self.members[block], self.members[block])
                hit = np.tril(d <= self.radii[block, None], -1)
                keep = np.ones(block.size, dtype=bool)
                for i in np.flatnonzero(hit.any(axis=1)):
                    by_kept = hit[i] & keep
                    if by_kept.any():
                        j = by_kept.argmax()
                        keep[i] = False
                        self.witness[block[i]] = block[j]
                        self.witness_distance[block[i]] = d[i, j]
                block = block[keep]
            self.kept[self.m:self.m + block.size] = block
            self.kept_buf[self.m:self.m + block.size] = self.members[block]
            self.m += block.size

    def result(self):
        """(kept ids, processing order, dropped ids, witnesses, witness
        distances), the dropped in processing order as to_dict lists them."""
        dropped = self.order[self.witness[self.order] >= 0]
        return (self.kept[:self.m], self.order, dropped, self.witness[dropped],
                self.witness_distance[dropped])
