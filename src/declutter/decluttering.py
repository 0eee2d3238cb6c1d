"""Greedy decluttering: keep a point only if no already-kept point lies in
its vicinity ball.

Points are processed in order of increasing robust distance (ties by id).
The vicinity ball of p is the CLOSED ball of radius factor * d_k(p), with
factor 2 by default: a boundary point blocks selection, which also makes the
radius-zero coincident-point case well defined.

The pass is one blocked scan for every neighbor strategy. It takes the next
B points in processing order and makes one :func:`geometry.cross_distances`
call of those points against the kept set so far, held in selection order.
A point hit by a kept point from before its block is rejected, and its
witness is the first hit. The rest resolve in order among themselves on one
dense block of just those points. A pre-block kept point always precedes an
in-block one in selection order, so the witness of a rejection is still the
earliest kept point inside the ball, exactly as in a point-by-point scan,
and its recorded distance is that canonical value. Blocks get fewer rows once
the kept set is large, so neither dense block exceeds the cell budget of
:func:`geometry.row_chunks`.

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
from .geometry import GeometryError, Metric, PointCloud, _positive_finite, cross_distances
from .neighbors import AUTO, build_index
from .robust import DistanceKind, RMS_K, RobustDistanceProfile, profile

# points per block of the greedy scan, read from BENCH_greedy_blocks.json
_BLOCK = 64


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
    _positive_finite(vicinity_factor, "vicinity factor")
    cloud.check_metric(metric)
    if prof.n != cloud.n:
        raise GeometryError("profile does not cover this cloud")
    kept, order, dropped, witness, witness_distance = _greedy_pass(
        metric, cloud.points, prof.values, vicinity_factor)
    rejected = {p: Rejection(witness=w, distance=x) for p, w, x in zip(
        dropped.tolist(), witness.tolist(), witness_distance.tolist())}
    return DeclutterResult(kept=kept,
                           rejected=rejected,
                           order=order,
                           profile=prof,
                           vicinity_factor=float(vicinity_factor))


def _greedy_pass(metric: Metric, members: np.ndarray, values: np.ndarray,
                 vicinity_factor: float):
    """The blocked greedy pass on arrays: the members' points and robust
    values. Returns (kept ids in selection order, processing order, dropped
    ids in processing order, their witnesses, their witness distances)."""
    n = members.shape[0]
    order = np.lexsort((np.arange(n), values))
    radii = vicinity_factor * values
    kept_buf = np.empty_like(members)  # kept members, selection order
    kept = np.empty(n, dtype=np.intp)  # kept ids, selection order
    witness = np.full(n, -1, dtype=np.intp)
    witness_distance = np.zeros(n)
    m = start = 0
    while start < n:
        rows = max(1, min(_BLOCK, geometry._CHUNK_CELLS // max(m, _BLOCK)))
        block = order[start:start + rows]
        start += rows
        if m:
            # points hit by a kept point from before the block: the first
            # hit is the earliest kept one
            d = cross_distances(metric, members[block], kept_buf[:m])
            hit = d <= radii[block, None]
            first = hit.argmax(axis=1)
            out = hit[np.arange(block.size), first]
            witness[block[out]] = kept[first[out]]
            witness_distance[block[out]] = d[out, first[out]]
            block = block[~out]
        if block.size > 1:
            # the rest resolve in order among themselves: row i is hit by
            # earlier rows j < i, and only kept ones block it
            d = cross_distances(metric, members[block], members[block])
            hit = np.tril(d <= radii[block, None], -1)
            keep = np.ones(block.size, dtype=bool)
            for i in np.flatnonzero(hit.any(axis=1)):
                by_kept = hit[i] & keep
                if by_kept.any():
                    j = by_kept.argmax()
                    keep[i] = False
                    witness[block[i]] = block[j]
                    witness_distance[block[i]] = d[i, j]
            block = block[keep]
        kept[m:m + block.size] = block
        kept_buf[m:m + block.size] = members[block]
        m += block.size
    dropped = order[witness[order] >= 0]  # in processing order, as to_dict lists them
    return kept[:m], order, dropped, witness[dropped], witness_distance[dropped]
