"""Point clouds, metrics (exact and relaxed), and ground-truth references.

Clouds are immutable; they either carry real coordinates or act as an index
set over a precomputed distance matrix. Everything downstream works from
distances alone, so general-metric inputs flow through unchanged.

All dense distance blocks are produced by a single canonical routine
(:func:`cross_distances`), which keeps every query path bit-identical
regardless of acceleration strategy.
"""
from __future__ import annotations

import copy
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

EUCLIDEAN = "euclidean"
MANHATTAN = "manhattan"
PRECOMPUTED = "precomputed"

METRIC_KINDS = (EUCLIDEAN, MANHATTAN, PRECOMPUTED)

_CDIST_NAME = {EUCLIDEAN: "euclidean", MANHATTAN: "cityblock"}

# cells per dense distance block; keeps peak chunk memory around 32 MB
_CHUNK_CELLS = 4_000_000


class GeometryError(ValueError):
    """Malformed cloud, metric, query, or input file."""


@dataclass(frozen=True)
class Metric:
    """Distance evaluator: an exact coordinate metric or a lookup matrix.

    ``relaxation`` is metadata: the multiplicative constant with which the
    triangle inequality is assumed to hold (1 means exact).
    """

    kind: str = EUCLIDEAN
    relaxation: float = 1.0
    matrix: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise GeometryError(f"unknown metric kind: {self.kind!r}")
        if not np.isfinite(self.relaxation) or self.relaxation < 1.0:
            raise GeometryError("relaxation constant must be a finite value >= 1")
        if self.kind == PRECOMPUTED:
            if self.matrix is None:
                raise GeometryError("precomputed metric needs a distance matrix")
            m = np.asarray(self.matrix, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise GeometryError("distance matrix must be square")
            if not np.all(np.isfinite(m)):
                raise GeometryError("distance matrix contains NaN/Inf")
            if np.any(m < 0):
                raise GeometryError("distance matrix has negative entries")
            if np.any(np.diagonal(m) != 0.0):
                raise GeometryError("distance matrix diagonal must be zero")
            if not np.array_equal(m, m.T):
                raise GeometryError("distance matrix must be symmetric")
            object.__setattr__(self, "matrix", m)
        elif self.matrix is not None:
            raise GeometryError(f"{self.kind} metric does not take a matrix")

    @property
    def is_exact(self) -> bool:
        """True for true coordinate metrics (triangle inequality exact)."""
        return self.kind in (EUCLIDEAN, MANHATTAN)

    def subset(self, ids: np.ndarray) -> "Metric":
        """Restrict a precomputed metric to a subset of indices."""
        if self.kind != PRECOMPUTED:
            return self
        ids = _member_ids(ids, self.matrix.shape[0])
        # A restriction of a validated matrix to in-range ids is again square,
        # finite, non-negative, zero on the diagonal and symmetric, so the
        # copy skips __post_init__ instead of re-checking all of it.
        restricted = copy.copy(self)
        object.__setattr__(restricted, "matrix", self.matrix[np.ix_(ids, ids)])
        return restricted


@dataclass(frozen=True)
class PointCloud:
    """Finite indexed point set with stable ids 0..n-1.

    Either coordinate-backed (``coords`` is an (n, d) float array) or
    matrix-backed (``coords`` is None and points are bare indices into a
    precomputed distance matrix).
    """

    coords: np.ndarray | None
    n: int

    @staticmethod
    def from_coords(coords) -> "PointCloud":
        arr = np.ascontiguousarray(coords, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise GeometryError("coordinates must form a nonempty 2-D array")
        if not np.all(np.isfinite(arr)):
            raise GeometryError("coordinates contain NaN/Inf")
        return PointCloud(arr, arr.shape[0])

    @staticmethod
    def matrix_backed(n: int) -> "PointCloud":
        if n < 1:
            raise GeometryError("cloud needs at least one point")
        return PointCloud(None, int(n))

    @property
    def is_coordinate(self) -> bool:
        return self.coords is not None

    @property
    def dim(self) -> int:
        if self.coords is None:
            raise GeometryError("matrix-backed cloud has no coordinate dimension")
        return self.coords.shape[1]

    def ids(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.intp)

    def point(self, i: int):
        """The i-th point: a coordinate row, or the index itself."""
        if not 0 <= i < self.n:
            raise GeometryError(f"point id {i} out of range 0..{self.n - 1}")
        return self.coords[i] if self.coords is not None else int(i)

    def query_array(self, queries) -> np.ndarray:
        """Normalize queries to an (m, d) coordinate block or an id vector."""
        if self.coords is not None:
            q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
            if q.shape[1] != self.dim:
                raise GeometryError(
                    f"query dimension {q.shape[1]} != cloud dimension {self.dim}")
            if not np.all(np.isfinite(q)):
                raise GeometryError("query contains NaN/Inf")
            return q
        q = np.atleast_1d(np.asarray(queries))
        if q.dtype.kind not in "iu":
            raise GeometryError("matrix-backed clouds only accept member ids as queries")
        q = q.astype(np.intp)
        if q.size and (q.min() < 0 or q.max() >= self.n):
            raise GeometryError("query id out of matrix range")
        return q


def _member_ids(ids, n: int) -> np.ndarray:
    """ids as an intp array, or GeometryError unless each is an integer in
    0..n-1."""
    ids = np.asarray(ids)
    if ids.size and ids.dtype.kind not in "iu":
        raise GeometryError(f"subset ids must be integers, got dtype {ids.dtype}")
    ids = ids.astype(np.intp, copy=False)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise GeometryError(f"subset ids out of range 0..{n - 1}")
    return ids


def subset_cloud(cloud: PointCloud, metric: Metric, ids) -> tuple[PointCloud, Metric]:
    """Sub-cloud (and restricted metric, in matrix mode) for the given ids."""
    ids = _member_ids(ids, cloud.n)
    if ids.size < 1:
        raise GeometryError("subset must keep at least one point")
    if cloud.is_coordinate:
        return PointCloud.from_coords(cloud.coords[ids]), metric
    return PointCloud.matrix_backed(ids.size), metric.subset(ids)


# ---------------------------------------------------------------------------
# canonical distance evaluation
# ---------------------------------------------------------------------------

def distance(metric: Metric, a, b) -> float:
    """d_X(a, b); in matrix mode a and b are indices."""
    if metric.kind == PRECOMPUTED:
        m = metric.matrix
        ia, ib = int(a), int(b)
        if not (0 <= ia < m.shape[0] and 0 <= ib < m.shape[0]):
            raise GeometryError("index out of matrix range")
        return float(m[ia, ib])
    av = np.atleast_2d(np.asarray(a, dtype=np.float64))
    bv = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if av.shape[1] != bv.shape[1]:
        raise GeometryError("dimension mismatch")
    return float(cdist(av, bv, _CDIST_NAME[metric.kind])[0, 0])


def cross_distances(metric: Metric, queries, targets) -> np.ndarray:
    """Dense block of distances from each query to each target.

    This is the single canonical distance routine: every code path in the
    package, accelerated or not, funnels through it so results agree exactly.
    """
    if metric.kind == PRECOMPUTED:
        q = np.asarray(queries, dtype=np.intp).reshape(-1)
        t = np.asarray(targets, dtype=np.intp).reshape(-1)
        return metric.matrix[q[:, None], t]
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if q.shape[1] != t.shape[1]:
        raise GeometryError("dimension mismatch")
    return cdist(q, t, _CDIST_NAME[metric.kind])


def row_distances(metric: Metric, a, b) -> np.ndarray:
    """Elementwise distances between paired rows of a and b."""
    if metric.kind == PRECOMPUTED:
        a = np.asarray(a, dtype=np.intp)
        b = np.asarray(b, dtype=np.intp)
        return metric.matrix[a, b]
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    diff = a - b
    if metric.kind == MANHATTAN:
        return np.abs(diff).sum(axis=1)
    return np.sqrt((diff * diff).sum(axis=1))


def row_chunks(n_rows: int, n_cols: int) -> list[slice]:
    """Row slices sized so each dense block stays within the cell budget."""
    step = max(1, _CHUNK_CELLS // max(1, n_cols))
    return [slice(s, min(s + step, n_rows)) for s in range(0, n_rows, step)]


def run_chunked(chunks, worker, threads: int = 1) -> None:
    """Run ``worker(chunk)`` over all chunks, optionally on a thread pool.

    Workers write into disjoint output slices, so results are identical for
    any thread count.
    """
    if threads <= 1 or len(chunks) <= 1:
        for c in chunks:
            worker(c)
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(worker, chunks))


def nearest_cross(metric: Metric, queries, targets,
                  threads: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Per query: (distance to nearest target, its index, ties -> lowest)."""
    if metric.kind == PRECOMPUTED:
        q = np.atleast_1d(np.asarray(queries)).astype(np.intp)
        t = np.atleast_1d(np.asarray(targets)).astype(np.intp)
        n_rows, n_cols = q.size, t.size
    else:
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
        n_rows, n_cols = q.shape[0], t.shape[0]
    dist_out = np.empty(n_rows)
    idx_out = np.empty(n_rows, dtype=np.intp)

    def work(sl: slice) -> None:
        block = cross_distances(metric, q[sl], t)
        idx = block.argmin(axis=1)  # argmin returns the first (lowest) index
        idx_out[sl] = idx
        dist_out[sl] = block[np.arange(block.shape[0]), idx]

    run_chunked(row_chunks(n_rows, n_cols), work, threads)
    return dist_out, idx_out


# ---------------------------------------------------------------------------
# ground truth references
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroundTruthRef:
    """Dense finite reference sampling of the hidden set, optionally with a
    per-point feature-size value (positive, expected 1-Lipschitz)."""

    cloud: PointCloud
    feature_sizes: np.ndarray | None = None

    def __post_init__(self):
        if self.feature_sizes is not None:
            f = np.asarray(self.feature_sizes, dtype=np.float64)
            if f.shape != (self.cloud.n,):
                raise GeometryError("one feature-size value per reference point required")
            if not np.all(np.isfinite(f)):
                raise GeometryError("feature sizes contain NaN/Inf")
            if np.any(f <= 0):
                raise GeometryError("feature sizes must be strictly positive")
            object.__setattr__(self, "feature_sizes", f)

    @property
    def points(self) -> np.ndarray:
        if not self.cloud.is_coordinate:
            raise GeometryError("reference must be coordinate-backed")
        return self.cloud.coords

    @property
    def has_feature_sizes(self) -> bool:
        return self.feature_sizes is not None


# ---------------------------------------------------------------------------
# triangle-inequality relaxation estimate
# ---------------------------------------------------------------------------

def estimate_triangle_constant(cloud: PointCloud, metric: Metric,
                               sample_count: int = 20000,
                               rng_seed: int = 0) -> float:
    """Empirical lower bound on the triangle relaxation constant.

    Max of d(x, y) / (d(x, w) + d(w, y)) over sampled triples, clamped below
    at 1. Exhaustive for small clouds, seeded sampling otherwise; degenerate
    triples (zero denominator) are skipped.
    """
    n = cloud.n
    if n < 3:
        raise GeometryError("need at least 3 points to probe triples")
    if n ** 3 <= max(int(sample_count), 200_000):
        grid = np.indices((n, n, n)).reshape(3, -1).T
        mask = ((grid[:, 0] != grid[:, 1]) & (grid[:, 1] != grid[:, 2])
                & (grid[:, 0] != grid[:, 2]))
        triples = grid[mask]
    else:
        rng = np.random.default_rng(rng_seed)
        draws = rng.integers(0, n, size=(int(sample_count) * 2, 3))
        ok = ((draws[:, 0] != draws[:, 1]) & (draws[:, 1] != draws[:, 2])
              & (draws[:, 0] != draws[:, 2]))
        triples = draws[ok][: int(sample_count)]
        if triples.shape[0] == 0:
            raise GeometryError("could not sample distinct triples")
    x, w, y = triples[:, 0], triples[:, 1], triples[:, 2]
    if metric.kind == PRECOMPUTED:
        dxy = metric.matrix[x, y]
        denom = metric.matrix[x, w] + metric.matrix[w, y]
    else:
        c = cloud.coords
        dxy = row_distances(metric, c[x], c[y])
        denom = row_distances(metric, c[x], c[w]) + row_distances(metric, c[w], c[y])
    valid = denom > 0
    if not np.any(valid):
        raise GeometryError("all sampled triples are degenerate (zero distances)")
    ratio = dxy[valid] / denom[valid]
    return max(1.0, float(ratio.max()))


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def _load_table(path, what: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            sample = ""
            for line in fh:
                stripped = line.strip()
                if stripped and not stripped.startswith("#"):
                    sample = stripped
                    break
    except OSError as exc:
        raise GeometryError(f"cannot read {what} file {path}: {exc}") from exc
    if not sample:
        raise GeometryError(f"{what} file {path} has no data rows")
    delim = "," if "," in sample else None
    try:
        arr = np.loadtxt(path, comments="#", delimiter=delim, ndmin=2,
                         dtype=np.float64)
    except ValueError as exc:
        raise GeometryError(f"malformed {what} file {path}: {exc}") from exc
    if not np.all(np.isfinite(arr)):
        raise GeometryError(f"{what} file {path} contains NaN/Inf")
    return arr


def load_points(path) -> np.ndarray:
    """Load a point table: one point per row, float columns, '#' comments."""
    return _load_table(path, "point")


def load_matrix(path) -> np.ndarray:
    """Load an n-by-n distance matrix (validated by the Metric constructor)."""
    arr = _load_table(path, "matrix")
    if arr.shape[0] != arr.shape[1]:
        raise GeometryError(f"matrix file {path} is not square: {arr.shape}")
    return arr


def save_points(path, points: np.ndarray) -> None:
    """Write points as CSV with full double round-trip precision."""
    np.savetxt(path, np.atleast_2d(points), fmt="%.17g", delimiter=",")
