"""Parameter-free decluttering: iterative declutter-and-resample with k
halving from 2^floor(log2 n) down to 2.

Each iteration computes the robust distances over the CURRENT surviving
set, declutters it, then re-admits every surviving point that falls inside
the closed ball of radius C * d_k(q) around some kept point q. The
theoretical resampling constant is C = 10 + 2*sqrt(2); C = 4 is the
practical preset.

Resampling returns a subset of its input, so a round that keeps the size
keeps the set. A set's whole k schedule is therefore known when it first
appears: min(2^j, |set|) for the rounds that remain. The loop builds one
index per distinct set and takes the set's robust values at that schedule
from one streaming sweep (:func:`robust.values_at_scales`), hands each
round's profile to the greedy pass (the array form of
:func:`decluttering.greedy_declutter`) and resamples on the same index; no
k-NN table is kept. Resampling removes points, mostly ambient ones far from
the rest, so most members of a shrunk set keep their K nearest distances (K
the schedule's largest k): the sweep covers only the members with a removed
point inside their previous K-ball, and every other member's values are
copied from the previous set's, byte for byte. A sub-cloud selects points of
the input, so every round measures with the input's metric (on a
matrix-backed cloud, the input's matrix).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decluttering import _greedy_pass
from .geometry import (GeometryError, Metric, PointCloud, _member_ids, _positive_finite,
                       _positive_int, subset_cloud)
from .neighbors import AUTO, NeighborIndex, build_index, nearest_cross
from .robust import DistanceKind, RMS_K, RobustDistanceProfile, _sweep
# profile stays a module attribute: perfbench's self-test looks it up here
from .robust import profile  # noqa: F401

THEORETICAL_C = 10.0 + 2.0 * math.sqrt(2.0)
PRACTICAL_C = 4.0


@dataclass
class ParfreeIteration:
    """One declutter-resample round, recorded in original cloud ids."""

    i: int
    k_target: int
    k_effective: int
    input_ids: np.ndarray      # P_i
    kept_ids: np.ndarray       # declutter output, selection order
    resampled_ids: np.ndarray  # P_{i-1}
    profile_values: np.ndarray  # aligned with input_ids
    rejected: dict[int, int] = field(default_factory=dict)  # id -> witness id

    @property
    def clamped(self) -> bool:
        return self.k_effective != self.k_target

    def summary(self) -> dict:
        return {
            "i": self.i,
            "k": self.k_target,
            "k_effective": self.k_effective,
            "n_input": int(self.input_ids.size),
            "n_kept": int(self.kept_ids.size),
            "n_resampled": int(self.resampled_ids.size),
        }


@dataclass
class ParfreeTrace:
    iterations: list[ParfreeIteration]
    resampling_constant: float
    kind: DistanceKind
    degenerate: bool = False

    @property
    def clamped(self) -> bool:
        return any(it.clamped for it in self.iterations)

    def cardinalities(self) -> list[int]:
        return [int(it.resampled_ids.size) for it in self.iterations]

    def to_dict(self) -> dict:
        return {
            "resampling_constant": float(self.resampling_constant),
            "kind": self.kind.name,
            "degenerate": self.degenerate,
            "clamped": self.clamped,
            "iterations": [it.summary() for it in self.iterations],
        }


def resample_step(cloud: PointCloud, metric: Metric, kept_ids,
                  prof: RobustDistanceProfile, C: float,
                  strategy: str = AUTO) -> np.ndarray:
    """Ids of all cloud members captured by some closed ball
    B(q, C * d_k(q)) with q kept. Kept points capture themselves."""
    _positive_finite(C, "resampling constant")
    kept_ids = _member_ids(kept_ids, cloud.n)
    if prof.n != cloud.n:
        raise GeometryError("profile does not cover this cloud")
    return _resample(build_index(cloud, metric, strategy), kept_ids,
                     C * prof.values[kept_ids])


def _resample(index: NeighborIndex, kept_ids: np.ndarray,
              radii: np.ndarray) -> np.ndarray:
    """Ids of the index's members inside some closed ball of the given radii
    around the kept members, marked on one mask."""
    captured = index._captured(index.cloud.points[kept_ids], radii)
    captured[kept_ids] = True  # closed balls always recapture their centers
    return np.flatnonzero(captured).astype(np.intp)


@dataclass(frozen=True)
class _Shrink:
    """A set change S -> S': the survivors' positions in S, the removed
    points, and S's robust values and k-th nearest distances per k."""

    survivors: np.ndarray
    removed: np.ndarray
    values: dict[int, np.ndarray]
    radii: dict[int, np.ndarray]


def _set_values(index: NeighborIndex, schedule, kind: DistanceKind, threads: int,
                shrunk: _Shrink | None) -> tuple[dict, dict]:
    """Robust values and k-th nearest distances of the index's members at
    each k of the schedule, as :func:`robust.values_at_scales` computes them.

    Only the dirty members are swept. On a set that shrank from S, a member
    p is clean when every removed point lies strictly farther than rho_K(p),
    its K-th nearest distance in S (K the schedule's largest k): its K
    smallest distances are then the same multiset in both sets, so every
    k <= K reads the same sorted prefix and running sum, and p's values and
    distances are copied from S. Every member of the first set is dirty, and
    so is every member when K is not on S's schedule (K clamped to the new
    set's size).
    """
    n = index.cloud.n
    ks = sorted(set(schedule))
    dirty = np.arange(n)
    if shrunk is not None and ks[-1] in shrunk.radii:
        near = nearest_cross(index.metric, index.cloud.points, shrunk.removed,
                             threads)[0]
        dirty = np.flatnonzero(near <= shrunk.radii[ks[-1]][shrunk.survivors])
    swept = _sweep(index, index.cloud.points[dirty], ks, kind, threads)
    if dirty.size == n:
        return swept
    carried = tuple({k: table[k][shrunk.survivors] for k in ks}
                    for table in (shrunk.values, shrunk.radii))
    for table, part in zip(carried, swept):
        for k in ks:
            table[k][dirty] = part[k]
    return carried


def parfree_declutter(cloud: PointCloud, metric: Metric,
                      kind: DistanceKind = RMS_K, C: float = THEORETICAL_C,
                      strategy: str = AUTO,
                      threads: int = 1) -> tuple[np.ndarray, ParfreeTrace]:
    """Run the full parameter-free loop. Returns (surviving ids, trace).

    Clouds with fewer than 2 points are degenerate (the loop is empty): the
    input comes back unchanged with an empty trace flagged degenerate.
    """
    _positive_finite(C, "resampling constant")
    threads = _positive_int(threads, "threads")
    if cloud.n < 2:
        trace = ParfreeTrace(iterations=[], resampling_constant=float(C),
                             kind=kind, degenerate=True)
        return cloud.ids(), trace

    current = cloud.ids()
    index = None  # the current set's index, built when the set first appears
    shrunk = None  # how the current set came from the previous one
    iterations: list[ParfreeIteration] = []
    i_star = int(math.floor(math.log2(cloud.n)))
    for i in range(i_star, 0, -1):
        k_target = 2 ** i
        k_eff = min(k_target, int(current.size))
        if index is None:  # a new surviving set: its whole schedule
            sub_cloud = subset_cloud(cloud, metric, current)[0]
            index = build_index(sub_cloud, metric, strategy)
            schedule = [min(2 ** j, int(current.size)) for j in range(i, 0, -1)]
            values, radii = _set_values(index, schedule, kind, threads, shrunk)
        prof = RobustDistanceProfile(k=k_eff, kind=kind, values=values[k_eff])
        kept, _, dropped, witness, _ = _greedy_pass(
            metric, sub_cloud.points, prof.values, vicinity_factor=2.0)
        resampled_local = _resample(index, kept, C * prof.values[kept])
        iterations.append(ParfreeIteration(
            i=i,
            k_target=k_target,
            k_effective=k_eff,
            input_ids=current,
            kept_ids=current[kept],
            resampled_ids=current[resampled_local],
            profile_values=prof.values,
            rejected=dict(zip(current[dropped].tolist(),
                              current[witness].tolist())),
        ))
        if resampled_local.size != current.size:  # the set changed
            index = None
            lost = np.ones(current.size, dtype=bool)
            lost[resampled_local] = False
            shrunk = _Shrink(resampled_local, sub_cloud.points[lost], values, radii)
        current = current[resampled_local]
    trace = ParfreeTrace(iterations=iterations, resampling_constant=float(C),
                         kind=kind)
    return current, trace
