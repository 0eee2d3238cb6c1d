"""Robust distance estimators: rms k-distance, average k-distance, k-th NN.

All three are 1-Lipschitz under an exact metric and dominate the plain
distance to the set, which is what the denoising guarantees rely on.
Aggregations run over the sorted neighbor distances with sequential
accumulation (cumsum), so every code path produces bit-identical values.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, Metric, PointCloud
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


def _aggregate_sorted_rows(rows: np.ndarray, k: int, kind: DistanceKind) -> np.ndarray:
    """Aggregate (m, >=k) rows of ascending distances into robust values."""
    if kind.name == KTH_NAME:
        return rows[:, k - 1].copy()
    if kind.name == AVG_NAME:
        return np.cumsum(rows[:, :k], axis=1)[:, -1] / k
    sq = rows[:, :k]
    return np.sqrt(np.cumsum(sq * sq, axis=1)[:, -1] / k)


def robust_distance_at(index: NeighborIndex, query, k: int,
                       kind: DistanceKind = RMS_K) -> float:
    """Robust distance from one query point to the indexed cloud."""
    dists = np.array([d for _, d in index.k_nearest(query, k)])
    return float(_aggregate_sorted_rows(dists[None, :], k, kind)[0])


def values_at(index: NeighborIndex, queries, k: int,
              kind: DistanceKind = RMS_K, threads: int = 1) -> np.ndarray:
    """Robust distances for a batch of query points."""
    rows = index.knn_distance_rows(queries, k, threads=threads)
    return _aggregate_sorted_rows(rows, k, kind)


def values_at_scales(index: NeighborIndex, queries, ks,
                     kind: DistanceKind = RMS_K,
                     threads: int = 1) -> dict[int, np.ndarray]:
    """Robust distances at several k values in one pass over the data.

    Sorts each query's k_max smallest distances once and reads every
    requested k off the running prefix sums; identical to calling
    :func:`values_at` per k, but one data sweep instead of len(ks).
    """
    ks = sorted({_check_k(k, index.cloud.n) for k in ks})
    if not ks:
        return {}
    kmax = ks[-1]
    rows = index.knn_distance_rows(queries, kmax, threads=threads)
    out: dict[int, np.ndarray] = {}
    if kind.name == KTH_NAME:
        for k in ks:
            out[k] = rows[:, k - 1].copy()
        return out
    if kind.name == AVG_NAME:
        cs = np.cumsum(rows, axis=1)
        for k in ks:
            out[k] = cs[:, k - 1] / k
        return out
    cs = np.cumsum(rows * rows, axis=1)
    for k in ks:
        out[k] = np.sqrt(cs[:, k - 1] / k)
    return out


def profile(cloud: PointCloud, index: NeighborIndex, k: int,
            kind: DistanceKind = RMS_K, threads: int = 1) -> RobustDistanceProfile:
    """Robust distance of every cloud member (eager, cached by callers)."""
    if index.cloud is not cloud and index.cloud.n != cloud.n:
        raise GeometryError("index does not match the cloud")
    queries = cloud.coords if cloud.is_coordinate else cloud.ids()
    vals = values_at(index, queries, k, kind, threads=threads)
    return RobustDistanceProfile(k=int(k), kind=kind, values=vals)


def profile_for(cloud: PointCloud, metric: Metric, k: int,
                kind: DistanceKind = RMS_K, strategy: str = AUTO,
                threads: int = 1) -> RobustDistanceProfile:
    """Convenience: build an index and compute the member profile."""
    return profile(cloud, build_index(cloud, metric, strategy), k, kind,
                   threads=threads)
