"""Robust distance estimators: rms k-distance, average k-distance, k-th NN.

All three are 1-Lipschitz under an exact metric and dominate the plain
distance to the set, which is what the denoising guarantees rely on.
Aggregations run over the sorted neighbor distances with a sequential
running sum: each query adds x1, x2, ..., xk in that order, exactly as a
row-wise ``cumsum`` does, so every code path produces bit-identical values.
The sum runs down transposed tiles of the rows, adding many queries per
instruction (:func:`_running_sums`).

Every batch of robust distances comes from one streaming sweep
(:func:`values_at_scales`; :func:`values_at` and the member
:func:`profile` are its one-k forms), so no (m, k) table outlives one row
block. The k-NN rows come from the kd-tree when it answers at the sweep's
largest k (blocks sized by k) and from dense blocks otherwise (blocks sized
by n); the values are the same bytes either way. On dense blocks the rows
are the sorted prefix of the distance block itself, and the aggregation
reads them through one tile scratch of about 256 KB, so a block costs its
distance cells and nothing more. The sweep can also return each query's
k-th nearest distance at every k (the rows' column k-1), which lets
``parfree`` tell which members of a shrunk set have the same k-NN rows as
before.
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

# cells of one transposed tile of the running sum (256 KB of float64), and
# the fewest rows summed down tiles: fewer rows take a row-wise cumsum, which
# is faster there (BENCH_running_sums.json) and keeps a single row out of the
# reduce, where numpy would sum it pairwise
_TILE_CELLS = 32768
_TILE_ROWS = 32


@dataclass(frozen=True)
class DistanceKind:
    """Choice of robust distance (every kind is 1-Lipschitz)."""

    name: str

    def __post_init__(self):
        if self.name not in KIND_NAMES:
            raise GeometryError(f"unknown distance kind: {self.name!r}")


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


def _check_kind(kind) -> None:
    """GeometryError unless kind is a DistanceKind, before a result records it."""
    if not isinstance(kind, DistanceKind):
        raise GeometryError(f"kind must be a DistanceKind, got {kind!r}; "
                            "parse_kind turns a name into one")


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
    ascending distances, read off running prefix sums (:func:`_running_sums`).

    The rows are left as they are. The kth-nn values are views of them.
    """
    if kind.name == KTH_NAME:
        vals = {k: rows[:, k - 1] for k in ks}
    else:
        with np.errstate(over="ignore"):  # reported below as a GeometryError
            sums = _running_sums(rows, ks, kind.name == RMS_NAME)
        if kind.name == AVG_NAME:
            vals = {k: sums[k] / k for k in ks}
        else:
            vals = {k: np.sqrt(sums[k] / k) for k in ks}
    # values grow with k, so the largest k is the one that can overflow
    if not np.all(np.isfinite(vals[ks[-1]])):
        raise GeometryError(
            f"{kind.name} distances overflow float64 at this scale of the "
            "input; rescale the coordinates or the distance matrix")
    return vals


def _running_sums(rows: np.ndarray, ks, square: bool) -> dict[int, np.ndarray]:
    """Per k in ks (ascending), each row's sum of its first k entries (their
    squares when ``square``), added x1, x2, ..., xk in that order as a
    row-wise ``cumsum`` adds them.

    A row-wise running sum waits on each add before the next. Here the
    columns are cut into tiles, with an edge at every k and at most
    ``width`` columns apart, so a tile holds about ``_TILE_CELLS`` cells.
    Each tile is read along the rows and written transposed (squared under
    rms-k) into rows 1.. of a (width + 1, m) scratch, whose row 0 carries
    the sum so far, and ``np.add.reduce`` over axis 0 adds the scratch rows
    in order, element-wise across the m queries. A single query would turn
    that reduction into numpy's pairwise sum, which adds in another order;
    fewer than ``_TILE_ROWS`` rows take ``cumsum`` itself.
    """
    m = rows.shape[0]
    if m < max(2, _TILE_ROWS):
        x = np.square(rows[:, :ks[-1]]) if square else rows[:, :ks[-1]].copy()
        np.cumsum(x, axis=1, out=x)
        return {k: x[:, k - 1] for k in ks}
    width = max(8, _TILE_CELLS // m)
    # a cache line more than m cells per scratch row, so the tile's strided
    # writes do not all fall in the few cache sets of a power-of-two stride
    scratch = np.empty((width + 1, m + 8))[:, :m]
    write = np.square if square else np.positive  # np.positive copies
    sums, start, total = {}, 0, None
    for k in ks:
        while start < k:
            stop = min(k, start + width)
            tile = scratch[1:stop - start + 1]
            write(rows[:, start:stop], out=tile.T)
            if total is None:  # the first tile starts the sum at x1
                total = np.add.reduce(tile, axis=0)
            else:
                scratch[0] = total
                total = np.add.reduce(scratch[:stop - start + 1], axis=0)
            start = stop
        sums[k] = total
    return sums


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
    inside the distance block itself), runs the prefix sums over them
    through one tile scratch, and keeps only the sums at the requested ks,
    so memory is one block plus len(ks) values per query. Each value is
    bit-identical to a single-k call. Raises GeometryError when the values
    overflow float64.
    """
    return _sweep(index, queries, ks, kind, threads)[0]


def _sweep(index: NeighborIndex, queries, ks, kind: DistanceKind,
           threads: int) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """:func:`values_at_scales` and, per k, each query's k-th nearest
    distance (the rows' column k-1): (values, radii)."""
    _check_kind(kind)
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

