"""Robust distance estimators: rms k-distance, average k-distance, k-th NN.

All three are 1-Lipschitz under an exact metric and dominate the plain
distance to the set, which is what the denoising guarantees rely on.
Aggregations run over the sorted neighbor distances with sequential
accumulation (cumsum), so every code path produces bit-identical values.

Every batch of robust distances comes from one streaming sweep
(:func:`values_at_scales`; :func:`values_at` and the member
:func:`profile` are its one-k forms), so no (m, k) table outlives one row
block. The
k-NN rows come from the kd-tree when it answers at the sweep's largest k
(blocks sized by k) and from dense blocks otherwise (blocks sized by n); the
values are the same bytes either way. On dense blocks the rows are the sorted
prefix of the distance block itself, and the aggregation squares and sums
them in place, so a block costs its distance cells and nothing more. The
sweep can also return each query's k-th nearest distance at every k (the
rows' column k-1), which lets ``parfree`` tell which members of a shrunk set
have the same k-NN rows as before.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, PointCloud, _positive_int, row_chunks, run_chunked
from .neighbors import NeighborIndex

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


def _prefix_values(rows: np.ndarray, ks, kind: DistanceKind) -> dict[int, np.ndarray]:
    """Robust values at each k in ks (ascending) from (m, >=max(ks)) rows of
    ascending distances, read off running prefix sums.

    Consumes the rows: they are squared and summed in place, which gives the
    same bytes as fresh arrays (the running sum adds in the same order). The
    kth-nn values are views of the rows.
    """
    if kind.name == KTH_NAME:
        vals = {k: rows[:, k - 1] for k in ks}
    else:
        with np.errstate(over="ignore"):  # reported below as a GeometryError
            if kind.name == RMS_NAME:
                np.square(rows, out=rows)
            np.cumsum(rows, axis=1, out=rows)
        if kind.name == AVG_NAME:
            vals = {k: rows[:, k - 1] / k for k in ks}
        else:
            vals = {k: np.sqrt(rows[:, k - 1] / k) for k in ks}
    # values grow with k, so the largest k is the one that can overflow
    if not np.all(np.isfinite(vals[ks[-1]])):
        raise GeometryError(
            f"{kind.name} distances overflow float64 at this scale of the "
            "input; rescale the coordinates or the distance matrix")
    return vals


def values_at(index: NeighborIndex, queries, k: int,
              kind: DistanceKind = RMS_K, threads: int = 1) -> np.ndarray:
    """Robust distances for a batch of query points."""
    return values_at_scales(index, queries, [k], kind, threads)[k]


def values_at_scales(index: NeighborIndex, queries, ks,
                     kind: DistanceKind = RMS_K,
                     threads: int = 1) -> dict[int, np.ndarray]:
    """Robust distances at several k values in one streaming sweep.

    The queries are read in row blocks sized to the distance-cell budget
    (:func:`geometry.row_chunks`) at what one query row costs the index at
    k_max: n cells on dense blocks, about k_max * (d + 7) on the tree. Each
    block takes its k_max smallest distances sorted (on dense blocks, sorted
    inside the distance block itself), squares and sums them in place, and
    keeps only the columns at the requested ks, so memory is one block plus
    len(ks) values per query. Each value is bit-identical to a single-k call.
    Raises GeometryError when the values overflow float64.
    """
    return _sweep(index, queries, ks, kind, threads)[0]


def _sweep(index: NeighborIndex, queries, ks, kind: DistanceKind,
           threads: int) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """:func:`values_at_scales` and, per k, each query's k-th nearest
    distance (the rows' column k-1, read before the aggregation consumes
    them): (values, radii)."""
    n = index.cloud.n
    ks = sorted({_positive_int(k, "k", n) for k in ks})
    threads = _positive_int(threads, "threads")
    if not ks:
        return {}, {}
    q = index.cloud.query_array(queries)
    out = {k: np.empty(q.shape[0]) for k in ks}
    radii = {k: np.empty(q.shape[0]) for k in ks}
    # the tree query runs on the threads itself; dense blocks share them
    tree = index._tree_serves(ks[-1])

    def work(sl: slice) -> None:
        rows = index.knn_distance_rows(q[sl], ks[-1], threads if tree else 1)
        for k in ks:
            radii[k][sl] = rows[:, k - 1]
        for k, v in _prefix_values(rows, ks, kind).items():
            out[k][sl] = v

    run_chunked(row_chunks(q.shape[0], index._row_cells(ks[-1])), work,
                1 if tree else threads)
    return out, radii


def profile(cloud: PointCloud, index: NeighborIndex, k: int,
            kind: DistanceKind = RMS_K, threads: int = 1) -> RobustDistanceProfile:
    """Robust distance of every cloud member at one k, read through
    :func:`values_at_scales` (the index covers this cloud or one of its size).
    """
    if index.cloud.n != cloud.n:
        raise GeometryError("index does not match the cloud")
    k = _positive_int(k, "k", cloud.n)
    values = values_at_scales(index, cloud.points, [k], kind, threads)[k]
    return RobustDistanceProfile(k=k, kind=kind, values=values)

