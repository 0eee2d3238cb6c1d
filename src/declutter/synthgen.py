"""Synthetic inputs: shapes, on-shape sampling (uniform or feature-size
adaptive), Gaussian perturbation, and ambient background noise.

Every generator is deterministic given its seed; grid (seed-free) sampling
is exactly reproducible arc-length equipartition. Ground-truth tags travel
with generated clouds so evaluation never has to re-associate points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import GeometryError, GroundTruthRef, Metric, PointCloud, _positive_finite
from .neighbors import build_index, nearest_cross


# ---------------------------------------------------------------------------
# shapes
# ---------------------------------------------------------------------------

class Shape:
    """Common surface for samplable reference shapes."""

    def reference(self, count: int) -> np.ndarray:
        raise NotImplementedError

    def sample(self, n: int, seed=None, feature_fn=None) -> np.ndarray:
        raise NotImplementedError

    def point_distance(self, points: np.ndarray) -> np.ndarray:
        """Distance from each point to the shape (used for validation)."""
        raise NotImplementedError


def _curve_positions(n: int, length: float, closed: bool, seed,
                     weight_fn=None, fine: int = 8192):
    """Arc-length positions for n points along a curve of the given length.

    weight_fn maps positions to local spacing weights (spacing grows with the
    weight); None means uniform. Seed None gives the deterministic grid.
    """
    if n < 1:
        raise GeometryError("need n >= 1 sample points")
    if weight_fn is None:
        if seed is None:
            if closed:
                return np.arange(n) * (length / n)
            if n == 1:
                return np.zeros(1)
            return np.arange(n) * (length / (n - 1))
        rng = np.random.default_rng(seed)
        return np.sort(rng.uniform(0.0, length, size=n))
    # adaptive: integrate density 1/weight on a fine grid, invert its CDF
    grid = np.linspace(0.0, length, fine)
    w = np.asarray(weight_fn(grid), dtype=np.float64)
    if np.any(w <= 0):
        raise GeometryError("adaptive spacing weights must be positive")
    density = 1.0 / w
    cdf = np.concatenate([[0.0], np.cumsum((density[1:] + density[:-1]) * 0.5
                                           * np.diff(grid))])
    cdf /= cdf[-1]
    if seed is None:
        targets = (np.arange(n) + 0.5) / n
    else:
        rng = np.random.default_rng(seed)
        targets = np.sort(rng.uniform(0.0, 1.0, size=n))
    return np.interp(targets, cdf, grid)


class _Curve(Shape):
    """A curve through its arc-length map ``_at`` over [0, ``length``]; a
    closed curve's end is its start, so it is not placed twice."""

    closed = True

    def reference(self, count: int) -> np.ndarray:
        return self._at(_curve_positions(count, self.length, self.closed, None))

    def sample(self, n: int, seed=None, feature_fn=None) -> np.ndarray:
        weight = None
        if feature_fn is not None:
            weight = lambda s: feature_fn(self._at(s))
        return self._at(_curve_positions(n, self.length, self.closed, seed, weight))


@dataclass(frozen=True)
class Circle(_Curve):
    center: tuple
    radius: float

    def __post_init__(self):
        _positive_finite(self.radius, "circle radius")

    def _at(self, s: np.ndarray) -> np.ndarray:
        theta = s / self.radius
        c = np.asarray(self.center, dtype=np.float64)
        return c + self.radius * np.column_stack([np.cos(theta), np.sin(theta)])

    @property
    def length(self) -> float:
        return 2.0 * math.pi * self.radius

    def point_distance(self, points: np.ndarray) -> np.ndarray:
        c = np.asarray(self.center, dtype=np.float64)
        r = np.linalg.norm(np.atleast_2d(points) - c, axis=1)
        return np.abs(r - self.radius)


@dataclass(frozen=True)
class Polyline(_Curve):
    vertices: np.ndarray
    closed: bool = False

    def __post_init__(self):
        v = np.atleast_2d(np.asarray(self.vertices, dtype=np.float64))
        if v.shape[0] < 2:
            raise GeometryError("polyline needs at least two vertices")
        object.__setattr__(self, "vertices", v)

    def _segments(self):
        v = self.vertices
        if self.closed:
            v = np.vstack([v, v[:1]])
        seg = v[1:] - v[:-1]
        lens = np.linalg.norm(seg, axis=1)
        return v[:-1], seg, lens

    @property
    def length(self) -> float:
        return float(self._segments()[2].sum())

    def _at(self, s: np.ndarray) -> np.ndarray:
        starts, seg, lens = self._segments()
        bounds = np.concatenate([[0.0], np.cumsum(lens)])
        s = np.clip(np.asarray(s, dtype=np.float64), 0.0, bounds[-1])
        idx = np.clip(np.searchsorted(bounds, s, side="right") - 1, 0, len(lens) - 1)
        local = np.where(lens[idx] > 0, (s - bounds[idx]) / np.where(lens[idx] > 0, lens[idx], 1.0), 0.0)
        return starts[idx] + seg[idx] * local[:, None]

    def point_distance(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        starts, seg, lens = self._segments()
        best = np.full(pts.shape[0], np.inf)
        for a, d, ln in zip(starts, seg, lens):
            if ln == 0:
                cand = np.linalg.norm(pts - a, axis=1)
            else:
                t = np.clip((pts - a) @ d / (ln * ln), 0.0, 1.0)
                proj = a + t[:, None] * d
                cand = np.linalg.norm(pts - proj, axis=1)
            best = np.minimum(best, cand)
        return best


@dataclass(frozen=True)
class TwoScaleLoops(Shape):
    """m small loops whose centers sit on one big circle: the classic
    scale-ambiguous dataset (small loops up close, one circle from afar)."""

    big_radius: float
    loop_radius: float
    loop_count: int
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        _positive_finite(self.big_radius, "big radius")
        _positive_finite(self.loop_radius, "loop radius")
        if self.loop_radius >= self.big_radius:
            raise GeometryError("loop radius must be smaller than the big radius")
        if self.loop_count < 2:
            raise GeometryError("need at least two loops")

    def loops(self) -> list[Circle]:
        c = np.asarray(self.center, dtype=np.float64)
        out = []
        for j in range(self.loop_count):
            ang = 2.0 * math.pi * j / self.loop_count
            ctr = c + self.big_radius * np.array([math.cos(ang), math.sin(ang)])
            out.append(Circle(tuple(ctr), self.loop_radius))
        return out

    def big_circle(self) -> Circle:
        return Circle(tuple(self.center), self.big_radius)

    def _allocate(self, n: int) -> list[int]:
        base, extra = divmod(n, self.loop_count)
        return [base + (1 if j < extra else 0) for j in range(self.loop_count)]

    def reference(self, count: int) -> np.ndarray:
        parts = [loop.reference(max(1, cnt))
                 for loop, cnt in zip(self.loops(), self._allocate(count))]
        return np.vstack(parts)

    def sample(self, n: int, seed=None, feature_fn=None) -> np.ndarray:
        parts = []
        for j, (loop, cnt) in enumerate(zip(self.loops(), self._allocate(n))):
            if cnt == 0:
                continue
            sub_seed = None if seed is None else seed + 7919 * j
            parts.append(loop.sample(cnt, sub_seed, feature_fn))
        return np.vstack(parts)

    def point_distance(self, points: np.ndarray) -> np.ndarray:
        best = np.full(np.atleast_2d(points).shape[0], np.inf)
        for loop in self.loops():
            best = np.minimum(best, loop.point_distance(points))
        return best


@dataclass(frozen=True)
class SurfaceGrid(Shape):
    """Desk-scale embedded 2-manifold given as a parametric grid of points."""

    grid: np.ndarray  # (nu, nv, d)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        if g.ndim != 3 or g.shape[0] < 2 or g.shape[1] < 2:
            raise GeometryError("surface grid must be (nu, nv, d) with nu, nv >= 2")
        object.__setattr__(self, "grid", g)

    def _flat(self) -> np.ndarray:
        return self.grid.reshape(-1, self.grid.shape[2])

    def reference(self, count: int) -> np.ndarray:
        flat = self._flat()
        if count >= flat.shape[0]:
            return flat.copy()
        stride = max(1, flat.shape[0] // count)
        return flat[::stride][:count].copy()

    def sample(self, n: int, seed=None, feature_fn=None) -> np.ndarray:
        flat = self._flat()
        if n > flat.shape[0]:
            raise GeometryError("cannot sample more points than the grid holds")
        if seed is None:
            stride = flat.shape[0] / n
            idx = (np.arange(n) * stride).astype(np.intp)
            return flat[idx].copy()
        rng = np.random.default_rng(seed)
        if feature_fn is not None:
            w = 1.0 / np.asarray(feature_fn(flat), dtype=np.float64)
            w /= w.sum()
            idx = rng.choice(flat.shape[0], size=n, replace=False, p=w)
        else:
            idx = rng.choice(flat.shape[0], size=n, replace=False)
        return flat[np.sort(idx)].copy()

    def point_distance(self, points: np.ndarray) -> np.ndarray:
        metric = Metric()
        return nearest_cross(metric, np.atleast_2d(points), self._flat())[0]


def torus_grid(big_radius: float, tube_radius: float, nu: int = 96,
               nv: int = 48) -> SurfaceGrid:
    """Standard torus in 3-D, gridded over both angles."""
    _positive_finite(big_radius, "ring radius")
    _positive_finite(tube_radius, "tube radius")
    if tube_radius >= big_radius:
        raise GeometryError("tube radius must be smaller than the ring radius")
    u = np.arange(nu) * (2.0 * math.pi / nu)
    v = np.arange(nv) * (2.0 * math.pi / nv)
    uu, vv = np.meshgrid(u, v, indexing="ij")
    x = (big_radius + tube_radius * np.cos(vv)) * np.cos(uu)
    y = (big_radius + tube_radius * np.cos(vv)) * np.sin(uu)
    z = tube_radius * np.sin(vv)
    return SurfaceGrid(np.stack([x, y, z], axis=-1))


# ---------------------------------------------------------------------------
# feature-size helpers
# ---------------------------------------------------------------------------

def feature_from_anchor(anchor, floor: float):
    """f(x) = floor + d(x, anchor): positive and 1-Lipschitz by construction."""
    _positive_finite(floor, "feature floor")
    anchor = np.asarray(anchor, dtype=np.float64)

    def f(points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return floor + np.linalg.norm(pts - anchor, axis=1)

    return f


# ---------------------------------------------------------------------------
# sampling operations
# ---------------------------------------------------------------------------

def sample_shape(shape: Shape, n: int, mode: str = "uniform", seed=None,
                 feature_fn=None) -> tuple[GroundTruthRef, np.ndarray]:
    """Dense deterministic reference (max(10n, 64) points) plus an n-point
    on-shape sample. Adaptive mode spaces sample points proportionally to the
    feature size and attaches feature values to the reference."""
    if n < 1:
        raise GeometryError("need n >= 1")
    if mode not in ("uniform", "adaptive"):
        raise GeometryError(f"unknown sampling mode: {mode!r}")
    if mode == "adaptive" and feature_fn is None:
        raise GeometryError("adaptive mode needs a feature function")
    ref_points = shape.reference(max(10 * n, 64))
    fvals = None
    use_f = feature_fn if mode == "adaptive" else None
    if use_f is not None:
        fvals = np.asarray(use_f(ref_points), dtype=np.float64)
    kref = GroundTruthRef(PointCloud.from_coords(ref_points), fvals)
    sample = shape.sample(n, seed, use_f)
    return kref, sample


def perturb_gaussian(points: np.ndarray, sigma: float, seed: int,
                     scales: np.ndarray | None = None) -> np.ndarray:
    """Add i.i.d. zero-mean Gaussian offsets per coordinate. ``scales``
    multiplies sigma per point (adaptive noise)."""
    if not 0 <= sigma < np.inf:  # NaN fails both
        raise GeometryError(f"sigma must be finite and non-negative, got {sigma!r}")
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if sigma == 0:
        return pts.copy()
    rng = np.random.default_rng(seed)
    offs = rng.normal(0.0, sigma, size=pts.shape)
    if scales is not None:
        scales = np.asarray(scales, dtype=np.float64)
        if scales.shape != (pts.shape[0],):
            raise GeometryError("one noise scale per point required")
        offs *= scales[:, None]
    return pts + offs


def add_ambient_noise(points: np.ndarray, box, m: int, seed: int,
                      min_clearance: float = 0.0,
                      clearance_points: np.ndarray | None = None
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Append m uniform points drawn in the box; returns (points, is_ambient).

    ``min_clearance`` optionally keeps ambient points at least that far from
    ``clearance_points`` (ambient noise means points far from the hidden
    set), via seeded rejection sampling. It must be non-negative, and a
    positive one needs the points.

    Each draw of the rejection loop is tested in chunks, each sized to the
    points still needed over the acceptance rate seen so far, by one bounded
    query per chunk against an index built once
    (:meth:`NeighborIndex._clear_of`), and testing stops at the m-th
    accepted point. Every draw is still taken whole and in the same order,
    so the points are the same bytes as testing every draw in full.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if m < 0:
        raise GeometryError("ambient count must be non-negative")
    if not min_clearance >= 0:  # NaN compares False
        raise GeometryError(f"clearance must be non-negative, got {min_clearance!r}")
    if min_clearance > 0 and clearance_points is None:
        raise GeometryError("a positive clearance needs the points to keep clear of")
    if m == 0:
        return pts.copy(), np.zeros(pts.shape[0], dtype=bool)
    lo = np.asarray(box[0], dtype=np.float64)
    hi = np.asarray(box[1], dtype=np.float64)
    if lo.shape != hi.shape or np.any(hi <= lo):
        raise GeometryError("ambient box must have positive extent in every dimension")
    if lo.shape[0] != pts.shape[1]:
        raise GeometryError("ambient box dimension does not match the points")
    index = None
    if min_clearance > 0:
        index = build_index(PointCloud.from_coords(np.atleast_2d(clearance_points)),
                            Metric())
    rng = np.random.default_rng(seed)
    accepted: list[np.ndarray] = []
    total = tested = 0
    for _ in range(64):
        draw = rng.uniform(lo, hi, size=(max(m, 4 * (m - total)), lo.shape[0]))
        if index is None:
            accepted.append(draw)
            total += draw.shape[0]
        start = 0
        while total < m and start < draw.shape[0]:
            need = m - total
            step = need if total == 0 else -(-need * tested // total)
            chunk = draw[start:start + step]
            start += step
            tested += chunk.shape[0]
            chunk = chunk[index._clear_of(chunk, min_clearance)]
            if chunk.shape[0]:
                accepted.append(chunk)
                total += chunk.shape[0]
        if total >= m:
            break
    if total < m:
        raise GeometryError("clearance constraint rejects too much of the box")
    ambient = np.vstack(accepted)[:m]
    tags = np.concatenate([np.zeros(pts.shape[0], dtype=bool),
                           np.ones(m, dtype=bool)])
    return np.vstack([pts, ambient]), tags
