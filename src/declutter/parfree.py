"""Parameter-free decluttering: iterative declutter-and-resample with k
halving from 2^floor(log2 n) down to 2.

Each iteration computes the robust distances over the CURRENT surviving
set, declutters it, then re-admits every surviving point that falls inside
the closed ball of radius C * d_k(q) around some kept point q. The
theoretical resampling constant is C = 10 + 2*sqrt(2); C = 4 is the
practical preset.

Resampling returns a subset of its input, so a round that keeps the size
keeps the set. The loop then keeps its sub-cloud and index, and the profile
at the halved k reads the index's sorted k-NN table: one table per distinct
surviving set, computed at that set's first (largest) k. A sub-cloud selects
points of the input, so every round measures with the input's metric (on a
matrix-backed cloud, the input's matrix).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decluttering import DeclutterResult, declutter
from .geometry import GeometryError, Metric, PointCloud, subset_cloud
from .neighbors import AUTO, build_index
# profile stays a module attribute: perfbench's self-test looks it up here
from .robust import DistanceKind, RMS_K, RobustDistanceProfile, profile  # noqa: F401

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
    if not (C > 0):
        raise GeometryError("resampling constant must be positive")
    kept_ids = np.asarray(kept_ids, dtype=np.intp)
    if kept_ids.size == 0:
        raise GeometryError("resampling needs at least one kept point")
    if kept_ids.min() < 0 or kept_ids.max() >= cloud.n:
        raise GeometryError("kept ids outside the cloud")
    if prof.n != cloud.n:
        raise GeometryError("profile does not cover this cloud")
    radii = C * prof.values[kept_ids]
    captured = np.zeros(cloud.n, dtype=bool)
    index = build_index(cloud, metric, strategy)
    for ids in index.ball_ids_many(cloud.points[kept_ids], radii):
        captured[ids] = True
    captured[kept_ids] = True  # closed balls always recapture their centers
    return np.flatnonzero(captured).astype(np.intp)


def parfree_declutter(cloud: PointCloud, metric: Metric,
                      kind: DistanceKind = RMS_K, C: float = THEORETICAL_C,
                      strategy: str = AUTO,
                      threads: int = 1) -> tuple[np.ndarray, ParfreeTrace]:
    """Run the full parameter-free loop. Returns (surviving ids, trace).

    Clouds with fewer than 2 points are degenerate (the loop is empty): the
    input comes back unchanged with an empty trace flagged degenerate.
    """
    if not (C > 0):
        raise GeometryError("resampling constant must be positive")
    if cloud.n < 2:
        trace = ParfreeTrace(iterations=[], resampling_constant=float(C),
                             kind=kind, degenerate=True)
        return cloud.ids(), trace

    current = cloud.ids()
    index = None
    iterations: list[ParfreeIteration] = []
    i_star = int(math.floor(math.log2(cloud.n)))
    for i in range(i_star, 0, -1):
        k_target = 2 ** i
        k_eff = min(k_target, int(current.size))
        if index is None:  # a new surviving set: its first k is its largest
            sub_cloud = subset_cloud(cloud, metric, current)[0]
            index = build_index(sub_cloud, metric, strategy)
        result: DeclutterResult = declutter(
            sub_cloud, metric, k_eff, kind=kind, vicinity_factor=2.0,
            strategy=strategy, index=index, threads=threads)
        prof = result.profile
        resampled_local = resample_step(sub_cloud, metric, result.kept,
                                        prof, C, strategy=strategy)
        iterations.append(ParfreeIteration(
            i=i,
            k_target=k_target,
            k_effective=k_eff,
            input_ids=current,
            kept_ids=current[result.kept],
            resampled_ids=current[resampled_local],
            profile_values=prof.values,
            rejected={int(current[p]): int(current[r.witness])
                      for p, r in result.rejected.items()},
        ))
        if resampled_local.size != current.size:
            index = None  # the set changed; drop its k-NN table
        current = current[resampled_local]
    trace = ParfreeTrace(iterations=iterations, resampling_constant=float(C),
                         kind=kind)
    return current, trace
