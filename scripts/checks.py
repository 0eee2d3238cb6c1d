"""Byte checks of the library's fast paths against the plain computations
they replaced, on the benchmark's recipes at a tenth of their point counts.

    python -m pytest -q scripts/checks.py

Each test keeps the inputs, seeds and constants of the bench script it came
from, and fails on the first answer that is not its oracle's bytes:

- ``test_certify_prune``: pruned cond1 (``certify._reference_maxima``),
  plain and divided by ``feature_from_anchor`` sizes, against a sweep of
  every reference point;
- ``test_tree_layout``: every ``cKDTree`` layout of a grid, on the query
  shapes the library runs, against the brute index;
- ``test_table_writer``: ``save_points`` and ``save_ids`` against
  ``np.savetxt`` on edge values and chunk-boundary shapes;
- ``test_clearance``: the clearance sampler against ``plain`` rejection
  sampling;
- ``test_greedy``: the kd-tree greedy pass against the dense pass, at the
  chosen constants and at small ones;
- ``test_resample``: the kd-tree ``_captured`` mask against the brute
  index's, at the load rule and with the nearest-centre check forced on
  and off;
- ``test_running_sums_*``: ``robust._prefix_values`` against squares and a
  ``cumsum`` (``cumsum_sums``), overflow errors included.

The timing tables the fast paths were chosen from are committed as
``BENCH_*.json``. The scripts that made them, with these checks as their
``--check`` modes, are in git history: ``git show
bbe28ed:scripts/bench_<name>.py``.
"""
from __future__ import annotations

import copy
import functools
import itertools
import os
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from declutter import (AVG_K, PRACTICAL_C, RMS_K, THEORETICAL_C, GeometryError,
                       Metric, PointCloud, build_index, declutter,
                       decluttering, feature_from_anchor, geometry, neighbors,
                       parfree_declutter, profile, robust, save_ids,
                       save_points, subset_cloud, synthgen, values_at_scales)
from declutter.certify import _reference_maxima
from declutter.neighbors import NeighborIndex
from declutter.robust import KIND_NAMES, parse_kind

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), HERE]
from parfree_memory_guard import recipe as guard_recipe  # noqa: E402
from perfbench.workloads import (CertifyCli, Circle20kK16, Fig2Parfree,  # noqa: E402
                                 Matrix3600Parfree, _superellipse)

SCALE = 0.1
SEED = 1
EUCLIDEAN = Metric()


def recorded_calls(owner, name: str, run) -> tuple[list, object]:
    """(the (args, kwargs) of every call to ``owner.name`` while ``run()``
    runs, what ``run()`` returns); each call still goes through."""
    calls, real = [], getattr(owner, name)

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    with mock.patch.object(owner, name, record):
        return calls, run()


def captured_calls(cloud: PointCloud) -> list:
    """(kd-tree index over the members, centres, radii) of every
    ``NeighborIndex._captured`` call of one Euclidean ``parfree`` run."""
    calls, _ = recorded_calls(NeighborIndex, "_captured",
                              lambda: parfree_declutter(cloud, EUCLIDEAN))
    return [(build_index(PointCloud.from_coords(index.cloud.coords), EUCLIDEAN,
                         "kdtree"), q, radii) for (index, q, radii), _ in calls]


@functools.cache
def certify_cli_gen(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(cloud, reference) coordinates the ``certify_cli`` workload's ``gen``
    step writes, at a tenth of its point counts."""
    params = {"n_curve": int(4000 * SCALE), "ambient": int(400 * SCALE)}
    with tempfile.TemporaryDirectory() as workdir:
        gen = CertifyCli(**params).setup(seed, workdir)["gen"]
        return tuple(np.loadtxt(os.path.join(gen, name), delimiter=",")
                     for name in ("points.csv", "reference.csv"))


def same_bytes(got, want) -> bool:
    """Arrays, or nested tuples and lists of them, hold the same bytes."""
    if isinstance(want, (tuple, list)):
        return len(got) == len(want) and all(map(same_bytes, got, want))
    return np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


# -- certify_prune ----------------------------------------------------------

CERT_KS = [8, 16, 32]


@pytest.mark.parametrize("kind", KIND_NAMES)
@pytest.mark.parametrize("metric", ["euclidean", "manhattan"])
@pytest.mark.parametrize("shuffled", [False, True], ids=["certify_cli",
                                                         "certify_cli shuffled"])
def test_certify_prune(shuffled, metric, kind):
    # a permuted reference makes the stride sample uneven in space
    cloud, ref = certify_cli_gen(SEED)
    if shuffled:
        ref = ref[np.random.default_rng(SEED).permutation(ref.shape[0])]
    metric, kind = Metric(metric), parse_kind(kind)
    index = build_index(PointCloud.from_coords(cloud), metric)
    full = values_at_scales(index, ref, CERT_KS, kind)
    sizes = feature_from_anchor(ref[0], 0.2)(ref)
    for f in (None, sizes):
        pruned = _reference_maxima(index, metric, ref, CERT_KS, kind, 1, f)
        for k in CERT_KS:
            want = float((full[k] / (1.0 if f is None else f)).max())
            assert pruned[k].hex() == want.hex(), (k, "adaptive" if f is not None
                                                   else "plain")


# -- tree_layout ------------------------------------------------------------

LAYOUTS = [{"leafsize": leaf, "compact_nodes": compact, "balanced_tree": balanced}
           for leaf, compact, balanced in itertools.product(
               (8, 16, 32, 64), (True, False), (True, False))]
LAYOUT_SHAPES = ("far_nn1", "far_nn2", "cond2", "torus_outliers",
                 "circle20k_self_k16", "certify_self_k33", "hausdorff",
                 "fig2_captured", "torus_self_k17", "torus_self_k65",
                 "gauss9_nearest", "gauss5_self_k8")


def _with_tree(index: NeighborIndex, layout: dict) -> NeighborIndex:
    """A copy of a kd-tree index whose tree has the given layout."""
    other = copy.copy(index)
    other._tree = cKDTree(index.cloud.coords, **layout)
    return other


def _clearance_draw(curve_pts: np.ndarray, pad: float, m: int, seed: int):
    """The first draw of ``add_ambient_noise``'s clearance loop for m
    ambient points: 4m points in the padded box."""
    lo, hi = curve_pts.min(axis=0), curve_pts.max(axis=0)
    return np.random.default_rng(seed).uniform(lo - pad, hi + pad,
                                               size=(4 * m, lo.shape[0]))


def _rows(members, queries, k, threads=1, rule_free=False):
    """(brute k-NN rows, rows from a kd-tree of a given layout) of queries
    into members; ``rule_free`` takes the tree whatever the rule picks."""
    index = build_index(PointCloud.from_coords(members), EUCLIDEAN, "kdtree")
    brute = build_index(index.cloud, EUCLIDEAN, "brute")

    def answer(layout):
        tree = _with_tree(index, layout)
        rows = tree._tree_rows if rule_free else tree._nearest_rows
        return rows(queries, k, threads)

    return brute._nearest_rows(queries, k, threads), answer


def _balls(calls):
    """(brute ``_captured`` masks, masks from kd-trees of a given layout)
    of recorded resampling rounds."""
    want = [build_index(index.cloud, EUCLIDEAN, "brute")._captured(q, r)
            for index, q, r in calls]
    return want, lambda layout: [_with_tree(index, layout)._captured(q, r)
                                 for index, q, r in calls]


@functools.cache
def layout_shapes() -> dict:
    """Per query shape: (brute answer, answer under a tree layout)."""
    fig2 = Fig2Parfree(n_curve=int(3500 * SCALE), ambient=int(1000 * SCALE))
    kref, sample = synthgen.sample_shape(synthgen.Polyline(_superellipse(), closed=True),
                                         fig2.params["n_curve"], seed=None)
    noisy = synthgen.perturb_gaussian(sample, fig2.params["sigma"], SEED)
    draws = _clearance_draw(noisy, fig2.params["box_pad"], fig2.params["ambient"],
                            SEED + 1)
    cloud, ref = certify_cli_gen(SEED)
    kept = cloud[declutter(PointCloud.from_coords(cloud), EUCLIDEAN, 16).kept_ids]
    circle = Circle20kK16(n_curve=int(20000 * SCALE), ambient=int(2000 * SCALE))
    circle_pts = circle.setup(SEED, None)["cloud"].coords
    torus_ref, torus_sample = synthgen.sample_shape(
        synthgen.torus_grid(2.0, 0.6, nu=160, nv=60), int(2000 * SCALE))
    torus_noisy = synthgen.perturb_gaussian(torus_sample, 0.03, SEED)
    torus_pad = 0.3 * float(np.ptp(torus_noisy, axis=0).max())
    torus_draws = _clearance_draw(torus_noisy, torus_pad, int(400 * SCALE), SEED + 1)
    torus_cloud = np.vstack([torus_noisy, torus_draws])
    rng = np.random.default_rng(SEED)
    gauss9, gauss9_q = (rng.normal(size=(int(8192 * SCALE), 9)),
                        rng.normal(size=(int(2000 * SCALE), 9)))
    gauss5 = rng.normal(size=(int(4096 * SCALE), 5))
    return {
        "far_nn1": _rows(kref.points, draws, 1),
        "far_nn2": _rows(kref.points, draws, 2),
        "cond2": _rows(ref, cloud, 2),
        "torus_outliers": _rows(torus_ref.points, torus_draws, 1),
        "circle20k_self_k16": _rows(circle_pts, circle_pts, 16, threads=2),
        "certify_self_k33": _rows(cloud, cloud, 33),
        "hausdorff": _rows(kept, ref, 1),
        "fig2_captured": _balls(captured_calls(fig2.setup(SEED, None)["cloud"])),
        "torus_self_k17": _rows(torus_cloud, torus_cloud, 17, rule_free=True),
        "torus_self_k65": _rows(torus_cloud, torus_cloud, 65, rule_free=True),
        "gauss9_nearest": _rows(gauss9, gauss9_q, 1, rule_free=True),
        "gauss5_self_k8": _rows(gauss5, gauss5, 8, rule_free=True),
    }


@pytest.mark.parametrize("shape", LAYOUT_SHAPES)
def test_tree_layout(shape):
    want, answer = layout_shapes()[shape]
    for layout in LAYOUTS:
        assert same_bytes(answer(layout), want), layout


# -- table_writer -----------------------------------------------------------

SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                     2.2250738585072009e-308, 1e-310, 1.7976931348623157e308,
                     -1.7976931348623157e308, 1.79e308, -1.8e307, 0.1])


def edge_tables() -> list[np.ndarray]:
    """Empty tables, rows of no columns, 1-D values, the special values, and
    row counts one below, at and one above a write chunk."""
    rng = np.random.default_rng(1)
    step = geometry._WRITE_CELLS
    tables = [np.zeros((0, 2)), np.zeros((0, 1)), np.zeros(0), np.zeros((1, 0)),
              np.zeros((3, 0)), SPECIALS, SPECIALS.reshape(-1, 2),
              SPECIALS.reshape(-1, 7)]
    for ncol in (1, 2, 3):
        for rows in (step // ncol - 1, step // ncol, step // ncol + 1):
            table = rng.normal(size=(rows, ncol)) * 10.0 ** rng.integers(-300, 300,
                                                                          (rows, ncol))
            table.flat[:SPECIALS.size] = SPECIALS
            tables.append(table)
    return tables


def edge_ids() -> list[np.ndarray]:
    step = geometry._WRITE_CELLS
    return [np.zeros(0, np.intp), np.array([0]), np.array([-3, 2**62, -2**62]),
            np.array([True, False]).astype(int), np.arange(step - 1),
            np.arange(step), np.arange(step + 1), np.arange(2 * step + 1)]


@pytest.mark.parametrize("writer, fmt, tables", [(save_points, "%.17g", edge_tables),
                                                 (save_ids, "%d", edge_ids)],
                         ids=["save_points", "save_ids"])
def test_table_writer(tmp_path, writer, fmt, tables):
    mine, oracle = tmp_path / "mine.csv", tmp_path / "np.csv"
    for table in tables():
        writer(mine, table)
        np.savetxt(oracle, table, fmt=fmt, delimiter=",")
        assert mine.read_bytes() == oracle.read_bytes(), table.shape


# -- clearance --------------------------------------------------------------

def clearance_args(recipe: str, seed: int) -> tuple:
    """The (args, kwargs) a recipe's set-up passes to the clearance sampler:
    the ``fig2_parfree`` and ``matrix3600_parfree`` workloads, and ``repro
    fig5`` (``cli._repro_pipeline``) on its torus."""
    if recipe == "torus":
        shape = synthgen.torus_grid(2.0, 0.6, nu=160, nv=60)
        kref, sample = synthgen.sample_shape(shape, int(2000 * SCALE), seed=None)
        noisy = synthgen.perturb_gaussian(sample, 0.03, seed)
        lo, hi = noisy.min(axis=0), noisy.max(axis=0)
        pad = 0.3 * float((hi - lo).max())
        return ((noisy, (lo - pad, hi + pad), int(400 * SCALE), seed + 1),
                {"min_clearance": 0.5, "clearance_points": kref.points})
    cls, size = {"fig2": (Fig2Parfree, (3500, 1000)),
                 "matrix3600": (Matrix3600Parfree, (3000, 600))}[recipe]
    workload = cls(n_curve=int(size[0] * SCALE), ambient=int(size[1] * SCALE))
    (call,), _ = recorded_calls(synthgen, "add_ambient_noise",
                                lambda: workload.setup(seed, None))
    return call


def plain(points, box, m, seed, min_clearance, clearance_points):
    """Rejection sampling that tests every draw in full with ``cdist``."""
    lo, hi = (np.asarray(b, dtype=np.float64) for b in box)
    rng = np.random.default_rng(seed)
    accepted, total = [], 0
    while total < m:
        draw = rng.uniform(lo, hi, size=(max(m, 4 * (m - total)), lo.shape[0]))
        draw = draw[cdist(draw, clearance_points).min(axis=1) >= min_clearance]
        accepted.append(draw)
        total += draw.shape[0]
    return np.vstack([points, *accepted])[:points.shape[0] + m]


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("recipe", ["fig2", "matrix3600", "torus"])
def test_clearance(recipe, seed):
    args, kwargs = clearance_args(recipe, seed)
    got = synthgen.add_ambient_noise(*args, **kwargs)[0]
    assert got.tobytes() == plain(*args, **kwargs).tobytes()


# -- greedy -----------------------------------------------------------------

GAUSSIAN_DIMS = (3, 5, 9)
GREEDY_KS = {"circle20k_k16": (2, 16, 64), "fig2_parfree": (2, 16, 256, 4096),
             **{f"gaussian{d}d": (2, 16) for d in GAUSSIAN_DIMS}}


def greedy_input(name: str, seed: int):
    """(cloud, metric, kd-tree index, threads) of a workload's cloud or a
    Gaussian cloud, at a tenth of its point count."""
    if name.startswith("gaussian"):
        d = int(name[len("gaussian"):-1])
        cloud = PointCloud.from_coords(
            np.random.default_rng(seed).normal(size=(int(20000 * SCALE), d)))
        return cloud, EUCLIDEAN, build_index(cloud, EUCLIDEAN, "kdtree"), 2
    cls = {c.name: c for c in (Circle20kK16, Fig2Parfree)}[name]
    workload = cls(n_curve=int(cls.defaults["n_curve"] * SCALE),
                   ambient=int(cls.defaults["ambient"] * SCALE))
    state = workload.setup(seed, None)
    cloud, metric = state["cloud"], state["metric"]
    return cloud, metric, build_index(cloud, metric, "kdtree"), workload.threads


@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize("name", GREEDY_KS)
def test_greedy(name, seed):
    # the chosen constants, and a tenth of the window and an eighth of the
    # kept-count threshold, so that the tree answers on small clouds too
    chosen = {"_WINDOW": decluttering._WINDOW, "_TREE_SHIFT": decluttering._TREE_SHIFT}
    small = {"_WINDOW": decluttering._WINDOW // 10,
             "_TREE_SHIFT": decluttering._TREE_SHIFT - 3}
    cloud, metric, index, threads = greedy_input(name, seed)
    built = 0
    for k in GREEDY_KS[name]:
        if k > cloud.n:
            continue
        values = profile(cloud, index, k, threads=threads).values
        want = decluttering._greedy_pass(metric, cloud.points, values, False)
        for constants in (chosen, small):
            with mock.patch.multiple(decluttering, **constants):
                trees, got = recorded_calls(decluttering, "cKDTree", lambda: (
                    decluttering._greedy_pass(metric, cloud.points, values, True)))
            assert same_bytes(got, want), (k, constants)
            built += len(trees)
    # the pass builds a kept-set tree from _TREE_K * 2**(d + shift) kept points on
    if cloud.n >= decluttering._TREE_K * 2 ** (cloud.dim + small["_TREE_SHIFT"]):
        assert built, "the tree pass never built a kept-set tree"


# -- resample ---------------------------------------------------------------

RESAMPLE_SHAPES = [(name, 1) for name in ("fig2_parfree", "guard20k", "all_in_balls",
                                          "small_c_0.5", "small_c_4", "small_c_12.8")]
RESAMPLE_SHAPES += [(name, seed) for seed in (2, 3)
                    for name in ("fig2_parfree", "guard20k")]


@functools.cache
def small_c(seed: int) -> tuple[NeighborIndex, np.ndarray, np.ndarray]:
    """(index, kept points, their robust values at k = 16) of a circle
    (sigma 0.01) in a wide uniform box, as many points in each."""
    n = int(8000 * SCALE)
    noisy = synthgen.perturb_gaussian(
        synthgen.sample_shape(synthgen.Circle((0.0, 0.0), 1.0), n, seed=None)[1],
        0.01, seed)
    box = np.random.default_rng(seed + 1).uniform(-3.0, 3.0, size=(n, 2))
    cloud = PointCloud.from_coords(np.vstack([noisy, box]))
    result = declutter(cloud, EUCLIDEAN, 16, strategy="kdtree")
    index = build_index(cloud, EUCLIDEAN, "kdtree")
    return index, cloud.coords[result.kept], result.profile.values[result.kept]


def resample_calls(name: str, seed: int) -> list:
    """The shape's (kd-tree index, centres, radii) calls of ``_captured``."""
    if name == "fig2_parfree":
        fig2 = Fig2Parfree(n_curve=int(3500 * SCALE), ambient=int(1000 * SCALE))
        return captured_calls(fig2.setup(seed, None)["cloud"])
    if name == "guard20k":
        return captured_calls(guard_recipe(int(16000 * SCALE), int(4000 * SCALE))[0])
    if name == "all_in_balls":  # every ball holds every point
        pts = np.random.default_rng(seed).uniform(size=(int(10000 * SCALE), 2))
        m = int(300 * SCALE)
        return [(build_index(PointCloud.from_coords(pts), EUCLIDEAN, "kdtree"),
                 pts[:m], np.full(m, 2.0))]
    index, kept, values = small_c(seed)
    return [(index, kept, float(name[len("small_c_"):]) * values)]


@pytest.mark.parametrize("name, seed", RESAMPLE_SHAPES)
def test_resample(name, seed):
    for i, (index, q, r) in enumerate(resample_calls(name, seed)):
        want = build_index(index.cloud, index.metric, "brute")._captured(q, r)
        # the load rule, and the nearest-centre check forced on and off
        for load in (neighbors._CAPTURE_LOAD, 0, np.inf):
            with mock.patch.object(neighbors, "_CAPTURE_LOAD", load):
                assert np.array_equal(index._captured(q, r), want), (i, load)


# -- running_sums -----------------------------------------------------------

def cumsum_sums(rows, ks, square):
    """The running sums as the row-wise kernel computed them: squared (under
    rms-k) and summed by ``cumsum`` in place in the rows."""
    with np.errstate(over="ignore"):
        if square:
            np.square(rows, out=rows)
        np.cumsum(rows, axis=1, out=rows)
    return {k: rows[:, k - 1] for k in ks}


def check_prefix(rows, ks, kind, what):
    """``_prefix_values`` gives the cumsum reference's bytes, or raises its
    overflow, and leaves the rows as they were."""
    before = rows.copy()
    sums = cumsum_sums(rows.copy(), ks, kind == RMS_K)
    want = {k: sums[k] / k for k in ks}
    if kind == RMS_K:
        want = {k: np.sqrt(v) for k, v in want.items()}
    try:
        got = robust._prefix_values(rows, ks, kind)
    except GeometryError:
        got = None
    if np.all(np.isfinite(want[ks[-1]])):
        assert got is not None and same_bytes([got[k] for k in ks],
                                              [want[k] for k in ks]), what
    else:
        assert got is None, f"{what}: no overflow error"
    assert rows.tobytes() == before.tobytes(), f"{what}: the rows changed"


def distinct_sets(workload, C, strategy, seed):
    """(index, schedule) per distinct surviving set of one parfree run on
    the workload's input."""
    state = workload.setup(seed, None)
    cloud, metric = state["cloud"], state["metric"]
    _, trace = parfree_declutter(cloud, metric, C=C, strategy=strategy,
                                 threads=workload.threads)
    sets, previous = [], None
    for it in trace.iterations:
        if it.input_ids.size != previous:
            previous = it.input_ids.size
            sub = subset_cloud(cloud, metric, it.input_ids)[0]
            sets.append((build_index(sub, metric, strategy),
                         sorted({min(2 ** j, sub.n) for j in range(it.i, 0, -1)})))
    return sets


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("name", ["fig2_parfree", "matrix3600_parfree"])
def test_running_sums_on_parfree_sets(name, seed):
    workload, C, strategy = {
        "fig2_parfree": (Fig2Parfree(n_curve=350, ambient=100), THEORETICAL_C, "kdtree"),
        "matrix3600_parfree": (Matrix3600Parfree(n_curve=300, ambient=60),
                               PRACTICAL_C, "brute")}[name]
    for index, ks in distinct_sets(workload, C, strategy, seed):
        points = index.cloud.points
        for kind in (RMS_K, AVG_K):
            what = f"n={index.cloud.n} {kind.name}"
            rows = index.knn_distance_rows(points, ks[-1])
            check_prefix(rows, ks, kind, what)
            got = values_at_scales(index, points, ks, kind)
            want = robust._prefix_values(rows, ks, kind)
            assert same_bytes([got[k] for k in ks], [want[k] for k in ks]), what


def edge_rows(rng, m, n_cols, style, scale):
    """(m, n_cols) ascending rows of one value style at one scale."""
    if style == "ties":
        rows = rng.integers(0, 4, size=(m, n_cols)).astype(float)
    elif style == "zeros":
        rows = rng.exponential(size=(m, n_cols)) * (rng.random((m, n_cols)) < 0.5)
    elif style == "subnormal":
        rows = rng.integers(0, 1000, size=(m, n_cols)) * 5e-324
    elif style == "overflow":
        rows = rng.random((m, n_cols))
        rows[:, n_cols // 2:] += 2.0 ** 1022 / max(1.0, scale)
    else:
        rows = rng.exponential(size=(m, n_cols))
    return np.sort(rows * scale, axis=1)


def test_running_sums_on_edge_shapes():
    # 0 to 3, 31 to 33, 70 and 3001 rows; K at the tile width less one, the
    # width, one more and twice it; ks on and off the tile edges; at the
    # library's fewest tiled rows and with tiles from two rows on
    rng = np.random.default_rng(SEED)
    for tile_rows in (robust._TILE_ROWS, 2):
        with mock.patch.object(robust, "_TILE_ROWS", tile_rows):
            for m in (0, 1, 2, 3, 31, 32, 33, 70, 3001):
                width = max(8, robust._TILE_CELLS // max(m, 1))
                for n_cols in (width - 1, width, width + 1, 2 * width):
                    edges = [1, n_cols] + [e + d for e in (width, 2 * width)
                                           for d in (-1, 0, 1) if e + d <= n_cols]
                    off = sorted({int(k) for k in rng.integers(1, n_cols + 1, size=3)})
                    for ks in (sorted(set(edges)), off, [n_cols]):
                        for style in ("spread", "ties", "zeros", "subnormal", "overflow"):
                            for scale in (1.0, 2.0 ** -500, 2.0 ** 500):
                                rows = edge_rows(rng, m, n_cols + 3, style,
                                                 scale)[:, :n_cols]
                                for kind in (RMS_K, AVG_K):
                                    check_prefix(rows, ks, kind,
                                                 f"m={m} K={n_cols} {style} "
                                                 f"from {tile_rows} rows")
