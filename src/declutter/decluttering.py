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

On the kd-tree strategy, the scan runs in windows of W points of the
processing order. Once an index over the kept set would answer K-NN rows
from its tree (:func:`neighbors._tree_serves`), a window asks one over the
points kept before it, whose ids are selection ranks, for each window
point's K nearest within the window's largest radius
(:meth:`neighbors.NeighborIndex._proposals`). Canonical distances decide
each candidate, and the lowest rank among a point's hits is its witness.
A row the index flags as possibly holding more hits, and every row of a
window it cannot bound, takes the dense compare against that kept set
instead. The window's points that no earlier kept point hits then run the
blocked scan against only the points kept inside the window, which all
come later in selection order. The witness is therefore the same earliest
kept point, with the same canonical distance, as on the dense scan. The
brute strategy and matrix-backed clouds always take the dense scan.

:func:`declutter` is the robust profile at one k followed by that pass;
:func:`greedy_declutter` runs the pass on a profile the caller already has
and records a :class:`Rejection` per dropped point. The pass itself works on
arrays (kept order, processing order, dropped ids with their witnesses and
witness distances), which the parameter-free loop reads directly.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import GeometryError, Metric, PointCloud, _require, cross_distances, row_chunks
from .neighbors import AUTO, BRUTE, KDTREE, NeighborIndex, _tree_serves, build_index
from .robust import DistanceKind, RMS_K, RobustDistanceProfile, profile

# points per block of the greedy scan, read from BENCH_greedy_blocks.json
_BLOCK = 64

# the kd-tree pass, read from BENCH_greedy_tree.json: points per window of
# the processing order and kept-set candidates asked per point. A window asks
# an index over the kept set when that index would answer _TREE_K-NN rows
# from its tree (its own rule, neighbors._tree_serves): from 256 kept points
# in 2-D, twice as many with each further dimension, since a tree query's
# cost grows with the dimension and the dense compare's does not
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
    prof = profile(index.cloud, index, k, kind, threads=threads)
    if index.strategy == KDTREE:  # auto's choice on a coordinate cloud
        return greedy_declutter(index.cloud, index.metric, prof)
    return _result(prof, _greedy_pass(index.metric, index.cloud.points, prof.values,
                                      BRUTE))


def greedy_declutter(cloud: PointCloud, metric: Metric,
                     prof: RobustDistanceProfile) -> DeclutterResult:
    """The greedy pass over a given profile of the cloud's members: points in
    order of increasing robust distance (ties by id), each kept unless an
    earlier kept point lies in its closed vicinity ball. The strategy is
    resolved as ``auto`` resolves it."""
    _require(cloud, PointCloud, "cloud")
    _require(metric, Metric, "metric")
    _require(prof, RobustDistanceProfile, "prof")
    cloud.check_metric(metric)
    if prof.n != cloud.n:
        raise GeometryError("profile does not cover this cloud")
    return _result(prof, _greedy_pass(metric, cloud.points, prof.values, AUTO))


def _result(prof: RobustDistanceProfile, passed) -> DeclutterResult:
    """The :class:`DeclutterResult` of a :func:`_greedy_pass` over prof."""
    kept, order, dropped, witness, witness_distance = passed
    rejected = {p: Rejection(w, x) for p, w, x in zip(
        dropped.tolist(), witness.tolist(), witness_distance.tolist())}
    return DeclutterResult(kept=kept, rejected=rejected, order=order, profile=prof)


def _greedy_pass(metric: Metric, members: np.ndarray, values: np.ndarray,
                 strategy: str):
    """The greedy pass on arrays: the members' points and robust values, in
    windows that ask an index over the kept set on the kd-tree strategy (to
    which auto resolves on coordinate rows, as for an index). Returns (kept
    ids in selection order, processing order, dropped ids in processing
    order, their witnesses, their witness distances)."""
    run = _Pass(metric, members, values)
    n = members.shape[0]
    tree = strategy == KDTREE or (strategy == AUTO and members.ndim == 2)
    step = _WINDOW if tree else n
    for start in range(0, n, step):
        window = run.order[start:start + step]
        lo = 0  # kept points from rank lo on are compared block by block
        if tree and _tree_serves(_TREE_K, run.m, members.shape[1]):
            window, lo = run.tree_window(window)
        run.blocks(window, lo)
    return run.result()


class _Pass:
    """The state of one greedy pass: the processing order and radii, the
    kept ids and points in selection order, and each dropped point's
    witness and witness distance."""

    def __init__(self, metric: Metric, members: np.ndarray, values: np.ndarray):
        n = members.shape[0]
        self.metric = metric
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

    def tree_window(self, window: np.ndarray) -> tuple[np.ndarray, int]:
        """(the window's points that no kept point hits, m), found from an
        index over the kept set: each point's ``_TREE_K`` candidates with
        their canonical distances, and the dense compare for the rows the
        index flags as possibly holding more hits; (window, 0) when the
        index cannot bound the window's radii."""
        m, radii = self.m, self.radii[window]
        index = NeighborIndex(PointCloud.from_coords(self.kept_buf[:m]), self.metric,
                              KDTREE)
        found = index._proposals(self.members[window], 1, _TREE_K, radii)
        if found is None:
            return window, 0
        _, cand, d, more = found
        # candidate ids are selection ranks: the lowest hit is the witness
        rank = np.where(d <= radii[:, None], cand, m)
        first = rank.argmin(axis=1)
        w = rank[np.arange(window.size), first]
        hit = (w < m) & ~more
        self.witness[window[hit]] = self.kept[w[hit]]
        self.witness_distance[window[hit]] = d[hit, first[hit]]
        if more.any():
            hit[more] = self.full_rows(window[more])
        return window[~hit], m

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
