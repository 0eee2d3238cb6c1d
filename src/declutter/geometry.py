"""Point clouds, metrics (exact and relaxed), and ground-truth references.

Clouds are immutable and hold their points in the form
:func:`cross_distances` takes: on a coordinate cloud a point is its row of
coordinates, on a matrix-backed cloud it is its row id in the metric's
distance matrix. A sub-cloud selects points and keeps the metric, so a
matrix-backed sub-cloud reads its parent's matrix. Everything downstream works
from distances alone, so general-metric inputs flow through unchanged.

Every distance comes from one canonical kernel: dense blocks from
:func:`cross_distances` and paired points (tree candidates, sampled pairs)
from :func:`paired_distances`, which sums the coordinates in the same order
and so agrees with it bit for bit. That keeps every query path bit-identical
regardless of acceleration strategy. This is the bottom layer: it imports
nothing from the package, and :mod:`neighbors` answers every query on it.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

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
            if np.any(np.signbit(m)):
                if np.any(m < 0):
                    raise GeometryError("distance matrix has negative entries")
                m = m + 0.0  # -0.0 becomes +0.0, so sorting cannot flip a sign
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


@dataclass(frozen=True)
class PointCloud:
    """Finite indexed point set with stable ids 0..n-1.

    ``points[i]`` is point i in the form :func:`cross_distances` takes: a
    coordinate row on a coordinate cloud (``points`` is an (n, d) float
    array), or a row id of the metric's distance matrix on a matrix-backed
    cloud (``points`` is an int vector and ``matrix_size`` the matrix side).
    """

    points: np.ndarray
    matrix_size: int | None = None

    @staticmethod
    def from_coords(coords) -> "PointCloud":
        arr = np.ascontiguousarray(coords, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(-1, 1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise GeometryError("coordinates must form a nonempty 2-D array")
        if not np.all(np.isfinite(arr)):
            raise GeometryError("coordinates contain NaN/Inf")
        return PointCloud(arr)

    @staticmethod
    def matrix_backed(n: int) -> "PointCloud":
        """All n rows of an n-by-n distance matrix."""
        if n < 1:
            raise GeometryError("cloud needs at least one point")
        return PointCloud(np.arange(n, dtype=np.intp), int(n))

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def is_coordinate(self) -> bool:
        return self.matrix_size is None

    @property
    def coords(self) -> np.ndarray | None:
        """The (n, d) coordinates, or None on a matrix-backed cloud."""
        return self.points if self.matrix_size is None else None

    @property
    def dim(self) -> int:
        if not self.is_coordinate:
            raise GeometryError("matrix-backed cloud has no coordinate dimension")
        return self.points.shape[1]

    def ids(self) -> np.ndarray:
        return np.arange(self.n, dtype=np.intp)

    def check_metric(self, metric: Metric) -> None:
        """GeometryError unless the metric measures this cloud's points."""
        if metric.kind == PRECOMPUTED:
            if self.is_coordinate:
                raise GeometryError("precomputed metric paired with coordinate cloud")
            if metric.matrix.shape[0] != self.matrix_size:
                raise GeometryError("distance matrix size does not match cloud")
        elif not self.is_coordinate:
            raise GeometryError("matrix-backed cloud needs a precomputed metric")

    def query_array(self, queries) -> np.ndarray:
        """Normalize queries to an (m, d) coordinate block or a vector of
        matrix row ids (any row of the matrix, member or not)."""
        if self.is_coordinate:
            q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
            if q.shape[1] != self.dim:
                raise GeometryError(
                    f"query dimension {q.shape[1]} != cloud dimension {self.dim}")
            if not np.all(np.isfinite(q)):
                raise GeometryError("query contains NaN/Inf")
            return q
        q = np.atleast_1d(np.asarray(queries))
        if q.dtype.kind not in "iu":
            raise GeometryError("matrix-backed clouds only accept matrix row ids as queries")
        q = q.astype(np.intp)
        if q.size and (q.min() < 0 or q.max() >= self.matrix_size):
            raise GeometryError("query id out of matrix range")
        return q


def _member_ids(ids, n: int) -> np.ndarray:
    """ids as an intp array, or GeometryError unless there is at least one
    and each is an integer in 0..n-1."""
    ids = np.asarray(ids)
    if ids.size < 1:
        raise GeometryError("ids must select at least one point")
    if ids.dtype.kind not in "iu":
        raise GeometryError(f"ids must be integers, got dtype {ids.dtype}")
    ids = ids.astype(np.intp, copy=False)
    if ids.min() < 0 or ids.max() >= n:
        raise GeometryError(f"ids out of range 0..{n - 1}")
    return ids


def subset_cloud(cloud: PointCloud, metric: Metric, ids) -> tuple[PointCloud, Metric]:
    """The sub-cloud of the given member ids, renumbered 0..len(ids)-1, and
    the unchanged metric (a matrix-backed sub-cloud shares the matrix)."""
    return replace(cloud, points=cloud.points[_member_ids(ids, cloud.n)]), metric


# ---------------------------------------------------------------------------
# canonical distance evaluation
# ---------------------------------------------------------------------------

def cross_distances(metric: Metric, queries, targets) -> np.ndarray:
    """Dense block of distances from each query to each target.

    With :func:`paired_distances` this is the canonical distance kernel:
    every code path in the package, accelerated or not, funnels through the
    two so results agree exactly.
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


def paired_distances(metric: Metric, a, b) -> np.ndarray:
    """Distances between paired points of a and b, which broadcast against
    each other: coordinate arrays whose last axis is the coordinate axis, or
    matrix row ids under a precomputed metric.

    The sum runs over the coordinate axis one column at a time, in order,
    which is the order ``cdist`` sums in, so every value equals the matching
    :func:`cross_distances` entry bit for bit.
    """
    if metric.kind == PRECOMPUTED:
        return metric.matrix[np.asarray(a, dtype=np.intp),
                             np.asarray(b, dtype=np.intp)]
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[-1] != b.shape[-1]:
        raise GeometryError("dimension mismatch")
    acc = np.zeros(np.broadcast_shapes(a.shape[:-1], b.shape[:-1]))
    with np.errstate(over="ignore"):  # overflows to inf, as cdist does
        for j in range(a.shape[-1]):
            diff = a[..., j] - b[..., j]
            acc += np.abs(diff) if metric.kind == MANHATTAN else diff * diff
    return acc if metric.kind == MANHATTAN else np.sqrt(acc)


def row_chunks(n_rows: int, n_cols: int) -> list[slice]:
    """Row slices sized so each dense block stays within the cell budget."""
    step = max(1, _CHUNK_CELLS // max(1, n_cols))
    return [slice(s, min(s + step, n_rows)) for s in range(0, n_rows, step)]


def _positive_int(value, name: str, upper: int | None = None) -> int:
    """value as a plain int, or GeometryError naming ``name`` unless it is an
    integer in 1..upper (no upper limit when ``upper`` is None)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise GeometryError(f"{name} must be an integer, got {value!r}")
    if value < 1 or (upper is not None and value > upper):
        raise GeometryError(f"{name}={value} must be at least 1" if upper is None
                            else f"{name}={value} out of range 1..{upper}")
    return int(value)


def _positive_finite(value, name: str) -> None:
    """GeometryError naming ``name`` unless value is finite and > 0."""
    if not (value > 0 and np.isfinite(value)):
        raise GeometryError(f"{name} must be finite and positive, got {value!r}")


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
    cloud.check_metric(metric)
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
    x, w, y = (cloud.points[triples[:, j]] for j in range(3))
    dxy = paired_distances(metric, x, y)
    denom = paired_distances(metric, x, w) + paired_distances(metric, w, y)
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
