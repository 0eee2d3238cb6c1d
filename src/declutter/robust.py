"""Robust distance estimators: rms k-distance, average k-distance, k-th NN.

All three are 1-Lipschitz under an exact metric and dominate the plain
distance to the set, which is what the denoising guarantees rely on.
Aggregations run over the sorted neighbor distances with sequential
accumulation (cumsum), so every code path produces bit-identical values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, Metric, PointCloud, row_chunks
from .neighbors import AUTO, NeighborIndex, _check_k, build_index

RMS_NAME = "rms-k"
AVG_NAME = "avg-k"
KTH_NAME = "kth-nn"

KIND_NAMES = (RMS_NAME, AVG_NAME, KTH_NAME)


@dataclass(frozen=True)
class DistanceKind:
    """Choice of robust distance; c_lip is declared Lipschitz relaxation
    metadata (1 for all built-in kinds)."""

    name: str
    c_lip: float = 1.0

    def __post_init__(self):
        if self.name not in KIND_NAMES:
            raise GeometryError(f"unknown distance kind: {self.name!r}")
        if not np.isfinite(self.c_lip) or self.c_lip < 1.0:
            raise GeometryError("c_lip must be a finite value >= 1")


RMS_K = DistanceKind(RMS_NAME)
AVG_K = DistanceKind(AVG_NAME)
KTH_NN = DistanceKind(KTH_NAME)


def parse_kind(text) -> DistanceKind:
    if isinstance(text, DistanceKind):
        return text
    if text in (RMS_NAME, "rms"):
        return RMS_K
    if text in (AVG_NAME, "avg"):
        return AVG_K
    if text in (KTH_NAME, "kth"):
        return KTH_NN
    raise GeometryError(f"unknown distance kind: {text!r}")


@dataclass(frozen=True)
class RobustDistanceProfile:
    """Per-point robust distance values for a fixed k and kind."""

    k: int
    kind: DistanceKind
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise GeometryError("profile values must be a flat array")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise GeometryError("profile values must be finite and non-negative")
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def export_csv(self, path) -> None:
        ids = np.arange(self.n)
        table = np.column_stack([ids.astype(np.float64), self.values])
        np.savetxt(path, table, fmt=["%d", "%.17g"], delimiter=",",
                   header="id,value")


def _prefix_values(rows: np.ndarray, ks, kind: DistanceKind) -> dict[int, np.ndarray]:
    """Robust values at each k in ks from (m, >=max(ks)) rows of ascending
    distances, read off running prefix sums."""
    if kind.name == KTH_NAME:
        return {k: rows[:, k - 1].copy() for k in ks}
    if kind.name == AVG_NAME:
        cs = np.cumsum(rows, axis=1)
        return {k: cs[:, k - 1] / k for k in ks}
    cs = np.cumsum(rows * rows, axis=1)
    return {k: np.sqrt(cs[:, k - 1] / k) for k in ks}


def robust_distance_at(index: NeighborIndex, query, k: int,
                       kind: DistanceKind = RMS_K) -> float:
    """Robust distance from one query point to the indexed cloud."""
    dists = np.array([d for _, d in index.k_nearest(query, k)])
    return float(_prefix_values(dists[None, :], [k], kind)[k][0])


def values_at(index: NeighborIndex, queries, k: int,
              kind: DistanceKind = RMS_K, threads: int = 1) -> np.ndarray:
    """Robust distances for a batch of query points."""
    return values_at_scales(index, queries, [k], kind, threads)[k]


def values_at_scales(index: NeighborIndex, queries, ks,
                     kind: DistanceKind = RMS_K,
                     threads: int = 1) -> dict[int, np.ndarray]:
    """Robust distances at several k values in one pass over the data.

    Sorts each query's k_max smallest distances once and reads every
    requested k off the running prefix sums; each value is bit-identical to
    a single-k call, but it takes one data sweep instead of len(ks).
    """
    ks = sorted({_check_k(k, index.cloud.n) for k in ks})
    if not ks:
        return {}
    rows = index.knn_distance_rows(queries, ks[-1], threads=threads)
    return _prefix_values(rows, ks, kind)


def profile(cloud: PointCloud, index: NeighborIndex, k: int,
            kind: DistanceKind = RMS_K, threads: int = 1) -> RobustDistanceProfile:
    """Robust distance of every cloud member.

    On the index's own cloud the sorted k-NN rows come from the index's
    member table (:meth:`NeighborIndex.member_rows`), so profiles at several
    k share one table. Rows are aggregated in blocks to bound the
    temporaries; the values equal :func:`values_at`.
    """
    if index.cloud is cloud:
        rows = index.member_rows(k, threads=threads)
    elif index.cloud.n == cloud.n:
        queries = cloud.coords if cloud.is_coordinate else cloud.ids()
        rows = index.knn_distance_rows(queries, k, threads=threads)
    else:
        raise GeometryError("index does not match the cloud")
    k = rows.shape[1]
    vals = np.empty(cloud.n)
    for sl in row_chunks(cloud.n, k):
        vals[sl] = _prefix_values(rows[sl], [k], kind)[k]
    return RobustDistanceProfile(k=k, kind=kind, values=vals)


def profile_for(cloud: PointCloud, metric: Metric, k: int,
                kind: DistanceKind = RMS_K, strategy: str = AUTO,
                threads: int = 1) -> RobustDistanceProfile:
    """Convenience: build an index and compute the member profile."""
    return profile(cloud, build_index(cloud, metric, strategy), k, kind,
                   threads=threads)
