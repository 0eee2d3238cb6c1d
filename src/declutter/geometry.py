"""Point clouds, metrics (exact and relaxed), and ground-truth references.

Clouds are immutable and hold their points in the form
:func:`cross_distances` takes: on a coordinate cloud a point is its row of
coordinates, on a matrix-backed cloud it is its row id in the metric's
distance matrix, an integer in 0..N-1 (one check, :func:`_row_ids`). A
sub-cloud selects points and keeps the metric, so a matrix-backed sub-cloud
reads its parent's matrix. Everything downstream works from distances alone,
so general-metric inputs flow through unchanged.

Every distance comes from one canonical kernel: dense blocks from
:func:`cross_distances` and paired coordinate points (tree candidates)
from :func:`paired_distances`, which sums the coordinates in the same order
and so agrees with it bit for bit. That keeps every query path bit-identical
regardless of acceleration strategy. This is the bottom layer: it imports
nothing from the package, and :mod:`neighbors` answers every query on it.
"""
from __future__ import annotations

import math
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

# rows and columns of a tile of the distance-matrix check: a tile and its
# mirror (1 MB) stay in cache while they are compared
_MATRIX_TILE = 256

# index cells of the scratch a matrix gather fills its block through (128 KB)
_GATHER_CELLS = 16_384

# cells per chunk of a written table (4096 rows of 2-D points)
_WRITE_CELLS = 8192


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
            m = np.ascontiguousarray(self.matrix, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise GeometryError("distance matrix must be square")
            fault, negative_zero = _matrix_fault(m)
            if fault:
                raise GeometryError(fault)
            if negative_zero:
                m = m + 0.0  # -0.0 becomes +0.0, so sorting cannot flip a sign
            object.__setattr__(self, "matrix", m)
        elif self.matrix is not None:
            raise GeometryError(f"{self.kind} metric does not take a matrix")

    @property
    def is_exact(self) -> bool:
        """True for true coordinate metrics (triangle inequality exact)."""
        return self.kind in (EUCLIDEAN, MANHATTAN)


def _matrix_fault(m: np.ndarray) -> tuple[str | None, bool]:
    """(the first fault of a square distance matrix, or None; whether it
    holds a -0.0), from one pass over tile pairs.

    Faults, first first: an entry that is NaN or infinite, a negative entry,
    a nonzero diagonal entry, an entry that differs from its transpose. Each
    upper tile ``m[I, J]`` (I <= J) is read with its mirror ``m[J, I]``
    while both are in cache, so every cell is read from memory once. A tile
    equal to its mirror's transpose holds the mirror's values, zeros in the
    same cells, so the mirror's range is read only where the two differ, and
    the signs of both only where the tile holds a zero.
    """
    n = m.shape[0]
    negative = diagonal = asymmetric = negative_zero = False
    for i in range(0, n, _MATRIX_TILE):
        rows = slice(i, i + _MATRIX_TILE)
        for j in range(i, n, _MATRIX_TILE):
            tile = m[rows, j:j + _MATRIX_TILE]
            mirror = tile if i == j else m[j:j + _MATRIX_TILE, rows]
            low = tile.min()
            if not (np.isfinite(low) and np.isfinite(tile.max())):
                return "distance matrix contains NaN/Inf", False
            negative |= bool(low < 0)
            if i == j:
                diagonal |= bool(np.any(tile.diagonal()))
            if not np.array_equal(tile, mirror.T):
                asymmetric = True
                low = mirror.min()
                if not (np.isfinite(low) and np.isfinite(mirror.max())):
                    return "distance matrix contains NaN/Inf", False
                negative |= bool(low < 0)
            elif low == 0 and not negative_zero:
                negative_zero = bool(np.signbit(tile).any() or np.signbit(mirror).any())
    if negative:
        return "distance matrix has negative entries", False
    if diagonal:
        return "distance matrix diagonal must be zero", False
    if asymmetric:
        return "distance matrix must be symmetric", False
    return None, negative_zero


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
        n = _positive_int(n, "matrix size")
        return PointCloud(np.arange(n, dtype=np.intp), n)

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
        """Normalize queries to an (m, d) coordinate block or a flat vector of
        matrix row ids (any row of the matrix, member or not)."""
        if not self.is_coordinate:
            return _row_ids(queries, self.matrix_size, "query ids")
        q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
        if q.shape[1] != self.dim:
            raise GeometryError(
                f"query dimension {q.shape[1]} != cloud dimension {self.dim}")
        if not np.all(np.isfinite(q)):
            raise GeometryError("query contains NaN/Inf")
        return q


def _row_ids(ids, n: int, what: str) -> np.ndarray:
    """ids as a flat intp vector, or GeometryError naming ``what`` unless
    every id is an integer in 0..n-1 (bools, floats and strings are not)."""
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise GeometryError(f"{what} must be integers, got dtype {ids.dtype}")
    ids = ids.astype(np.intp, copy=False).reshape(-1)
    # viewed unsigned a negative id is huge, so one max checks both ends
    if ids.size and ids.view(np.uintp).max() >= n:
        raise GeometryError(f"{what} out of range 0..{n - 1}")
    return ids


def _member_ids(ids, n: int) -> np.ndarray:
    """ids as a flat intp vector, or GeometryError unless there is at least
    one and each is an integer in 0..n-1."""
    if np.size(ids) < 1:
        raise GeometryError("ids must select at least one point")
    return _row_ids(ids, n, "ids")


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
    two so results agree exactly. Under a precomputed metric the queries and
    targets are matrix row ids (GeometryError unless integers in range) and
    the block is copied out of the matrix by :func:`_matrix_block`: row
    slices for consecutive targets, a bounded flat gather otherwise, and
    never a view, so the caller may sort it in place.
    """
    if metric.kind == PRECOMPUTED:
        n = metric.matrix.shape[0]
        return _matrix_block(metric.matrix, _row_ids(queries, n, "query ids"),
                             _row_ids(targets, n, "target ids"))
    q = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    t = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if q.shape[1] != t.shape[1]:
        raise GeometryError("dimension mismatch")
    return cdist(q, t, _CDIST_NAME[metric.kind])


def _matrix_block(matrix: np.ndarray, q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The block ``matrix[q][:, t]`` as a fresh C-contiguous array (callers
    sort it in place), read at memory speed.

    Ascending consecutive targets ``a..b-1`` (every full-set sweep) are row
    slices ``matrix[q, a:b]``. Any other targets are gathered from the flat
    matrix at ``q * N + t``, a group of rows at a time through one index
    scratch of at most ``_GATHER_CELLS`` cells (or one row, when a row is
    wider), so no index array as large as the block is ever built. Ids must
    be in 0..N-1 (:func:`_row_ids`): a flat offset would read another row.
    """
    n = matrix.shape[0]
    if not (q.size and t.size):
        return np.empty((q.size, t.size))
    if t[-1] - t[0] == t.size - 1 and np.all(t[1:] - t[:-1] == 1):
        return matrix[q, t[0]:t[-1] + 1]
    out = np.empty((q.size, t.size))
    rows = max(1, min(q.size, _GATHER_CELLS // t.size))
    flat = matrix.reshape(-1)  # a view: the metric keeps its matrix C-contiguous
    offsets = q * n
    scratch = np.empty(rows * t.size, dtype=np.intp)
    for start in range(0, q.size, rows):
        sl = slice(start, min(start + rows, q.size))
        idx = scratch[:(sl.stop - start) * t.size].reshape(sl.stop - start, t.size)
        np.add(offsets[sl, None], t, out=idx)
        flat.take(idx, out=out[sl], mode="clip")  # ids are checked: nothing clips
    return out


def paired_distances(metric: Metric, a, b) -> np.ndarray:
    """Distances between paired points of a and b, coordinate arrays that
    broadcast against each other and whose last axis is the coordinate axis
    (GeometryError under a precomputed metric, whose points have none).

    The sum runs over the coordinate axis one column at a time, in order,
    which is the order ``cdist`` sums in, so every value equals the matching
    :func:`cross_distances` entry bit for bit.
    """
    if metric.kind == PRECOMPUTED:
        raise GeometryError("paired_distances takes coordinates, not matrix row ids")
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


def _require(value, cls: type, name: str):
    """value, or GeometryError naming ``name`` and the expected type unless
    it is an instance of ``cls``."""
    if not isinstance(value, cls):
        raise GeometryError(f"{name} must be a {cls.__name__}, "
                            f"got {type(value).__name__}")
    return value


def _flag(value, name: str) -> bool:
    """value, or GeometryError naming ``name`` unless it is a bool (a JSON
    true or false, never a string or a number)."""
    if not isinstance(value, bool):
        raise GeometryError(f"{name} must be true or false, got {value!r}")
    return value


def _number(value, name: str) -> float:
    """value as a float, or GeometryError naming ``name`` unless it is an int
    or a float (a JSON number, never a numeric string or a bool)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise GeometryError(f"{name} must be a number, got {value!r}")
    return float(value)


def _positive_finite(value, name: str) -> None:
    """GeometryError naming ``name`` unless value is a real number (an int,
    a float or a numpy scalar of either, never a bool) that is > 0 and
    finite as a float."""
    if (isinstance(value, (bool, np.bool_))
            or not isinstance(value, (int, float, np.integer, np.floating))):
        raise GeometryError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not (value > 0 and finite):
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
# file I/O
# ---------------------------------------------------------------------------

def _load_table(path, what: str, dtype=np.float64) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            sample = ""
            for line in fh:
                # the delimiter is read from data, never from a comment
                sample = line.split("#", 1)[0].strip()
                if sample:
                    break
    except OSError as exc:
        raise GeometryError(f"cannot read {what} file {path}: {exc}") from exc
    if not sample:
        raise GeometryError(f"{what} file {path} has no data rows")
    delim = "," if "," in sample else None
    try:
        arr = np.loadtxt(path, comments="#", delimiter=delim, ndmin=2, dtype=dtype)
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


def load_ids(path, what: str) -> np.ndarray:
    """Load an id file: one integer per line, '#' comments (``what`` names
    the file in errors)."""
    arr = _load_table(path, what, np.intp)
    if arr.shape[1] != 1:
        raise GeometryError(f"{what} file {path} holds {arr.shape[1]} columns, "
                            "not one id per line")
    return arr[:, 0]


def _write_rows(path, table, fmt: str) -> None:
    """Write ``table`` with ``fmt`` per cell, comma-separated, one row per
    line (a 1-D table is one column). The bytes are numpy's text writer's at
    the same format and delimiter, but each chunk of rows is formatted with
    one ``%`` rather than one per row."""
    table = np.asarray(table)
    if table.ndim < 2:
        table = table.reshape(-1, 1)
    if table.ndim != 2:
        raise GeometryError(f"a table to write must be 1-D or 2-D, got {table.ndim}-D")
    row = ",".join([fmt] * table.shape[1]) + "\n"
    step = max(1, _WRITE_CELLS // max(1, table.shape[1]))
    with open(path, "w", encoding="utf-8") as fh:
        for s in range(0, table.shape[0], step):
            chunk = table[s:s + step]
            fh.write((row * chunk.shape[0]) % tuple(chunk.ravel().tolist()))


def save_points(path, points: np.ndarray) -> None:
    """Write points as CSV with full double round-trip precision, one point
    per row (a 1-D array is n one-dimensional points, as in
    :meth:`PointCloud.from_coords`)."""
    _write_rows(path, points, "%.17g")


def save_ids(path, ids) -> None:
    """Write integer ids, one per line."""
    _write_rows(path, ids, "%d")
