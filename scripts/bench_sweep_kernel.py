"""The dense k-NN sweep kernel: its running sums per surviving set, and the
sort crossover across k/n.

    PYTHONPATH=src python scripts/bench_sweep_kernel.py
    PYTHONPATH=src python scripts/bench_sweep_kernel.py --check
    PYTHONPATH=src python scripts/bench_sweep_kernel.py --parent DIR --pairs 10

Sets: runs ``parfree_declutter`` on the ``fig2_parfree`` and
``matrix3600_parfree`` benchmark inputs (seed 1, built by
``perfbench.workloads``, with the workload's strategy, constant and thread
count). For every distinct surviving set it times ``robust.values_at_scales``
over the set at its remaining k schedule, the sweep the loop runs. On the
sweep's first row block (the library's block size, rows laid out as the
sweep gets them) it times the rms-k running sums two ways: squares and a
row-wise ``cumsum`` in place in the rows (``cumsum_sums``, the kernel the
tiled one replaced, kept here as the reference) against
``robust._running_sums``, which adds down transposed tiles. Both must give
the same bytes at every k, and every row of ``knn_distance_rows`` must equal
the k-prefix of a full sort of its distance row, or the script exits 1.

Rows: the same two kernels on blocks of 2 to 128 sorted rows of 4096
columns (uniform values, row stride 4500 as in a dense block, rms-k at
every power of two k), the tiles forced on for every row count: the table
``robust._TILE_ROWS`` is read from, the fewest rows summed down tiles.

Crossover: dense distance blocks of 3600 columns (the matrix3600 input) and
20000 columns (the first 20000 points of the circle20k input), one block of
rows each. At k/n from 0.3 to 1 it times partition then prefix sort against a
whole-row sort, checks that both prefixes are identical on every row, and
records the side ``NeighborIndex._sorted_block`` picks.

``--check`` exits 1 unless ``robust._prefix_values`` under rms-k and avg-k
gives the ``cumsum`` reference's bytes, raises the overflow error exactly
when the reference overflows, and leaves its rows as they were: on every
distinct surviving set of both inputs at a tenth of their point counts
(seeds 1-3, also through ``values_at_scales``), and on edge shapes: 0 to 3,
31 to 33, 70 and 3001 rows, K at the tile width less one, the width, one
more and twice it, ks on and off the tile edges, with zeros, ties,
subnormals, 2^-500 and 2^500 scales and a sum that overflows halfway along
the rows. The edge shapes run at ``robust._TILE_ROWS`` and with tiles from
two rows on.

``--parent DIR`` (a checkout of the parent commit) first adds the paired
end-to-end runs of ``bench_resample.paired``: ``fig2_parfree`` job_s pairs
against the parent, the hold-out seed, the other workloads and the memory
guard.

Prints one JSON document; every time is the best wall time over the repeats.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from declutter import (AVG_K, PRACTICAL_C, RMS_K, THEORETICAL_C, GeometryError,
                       Metric, build_index, cross_distances, parfree_declutter,
                       subset_cloud, values_at_scales)
from declutter import robust
from declutter.geometry import _CHUNK_CELLS, row_chunks

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from bench_resample import paired  # noqa: E402
from perfbench.workloads import (Circle20kK16, Fig2Parfree,  # noqa: E402
                                 Matrix3600Parfree)

SEED = 1
REPEATS = 5
FRACTIONS = (0.3, 0.4, 0.5, 0.55, 0.6, 0.65, 0.7, 0.8, 0.9, 1.0)


def best_of(fn, prepare=lambda: None):
    """(smallest wall time over the repeats, last result); ``prepare`` runs
    untimed before each repeat and its result is passed to ``fn``."""
    best, out = float("inf"), None
    for _ in range(REPEATS):
        arg = prepare()
        start = time.perf_counter()
        out = fn(arg)
        best = min(best, time.perf_counter() - start)
    return best, out


def cumsum_sums(rows, ks, square):
    """The running sums as the row-wise kernel computed them: squared (under
    rms-k) and summed by ``cumsum`` in place in the rows."""
    with np.errstate(over="ignore"):
        if square:
            np.square(rows, out=rows)
        np.cumsum(rows, axis=1, out=rows)
    return {k: rows[:, k - 1] for k in ks}


def check_rows(index, points, k):
    """SystemExit unless every k-NN row equals its full sort's prefix."""
    for sl in row_chunks(points.shape[0], index.cloud.n):
        full = np.sort(cross_distances(index.metric, points[sl], index.cloud.points),
                       axis=1)[:, :k]
        if index.knn_distance_rows(points[sl], k).tobytes() != full.tobytes():
            raise SystemExit(f"k-NN rows at k={k} differ from a full sort")


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


def surviving_sets(workload, C, strategy):
    """Per distinct surviving set: the sweep's time, and the running sums'
    time on its first row block by ``cumsum`` and by the tiled kernel."""
    table = []
    for index, ks in distinct_sets(workload, C, strategy, SEED):
        points, k_max = index.cloud.points, ks[-1]
        sweep_s, _ = best_of(lambda _: values_at_scales(index, points, ks, RMS_K,
                                                        workload.threads))
        block = points[row_chunks(points.shape[0], index._row_cells(k_max))[0]]
        rows = index.knn_distance_rows(block, k_max)
        tiled_s, got = best_of(lambda _: robust._running_sums(rows, ks, True))
        cumsum_s, want = best_of(lambda r: cumsum_sums(r, ks, True),
                                 lambda: index.knn_distance_rows(block, k_max))
        if any(got[k].tobytes() != want[k].tobytes() for k in ks):
            raise SystemExit(f"{workload.name} n={index.cloud.n}: running sums differ")
        check_rows(index, points, k_max)
        cells = rows.size
        table.append({"n": index.cloud.n, "k_max": k_max, "ks": len(ks),
                      "path": "tree" if index._tree_serves(k_max) else "dense",
                      "sweep_s": round(sweep_s, 4), "block_rows": rows.shape[0],
                      "tile_width": max(8, robust._TILE_CELLS // rows.shape[0]),
                      "cumsum_ns_per_cell": round(cumsum_s / cells * 1e9, 2),
                      "tiled_ns_per_cell": round(tiled_s / cells * 1e9, 2)})
    return table


def tile_rows():
    """The running sums of a few rows by cumsum and by tiles forced on."""
    rng = np.random.default_rng(SEED)
    ks = [2 ** j for j in range(13)]
    table, default = [], robust._TILE_ROWS
    robust._TILE_ROWS = 2
    try:
        for m in (2, 4, 8, 16, 24, 32, 48, 64, 128):
            block = np.sort(rng.random((m, 4500)), axis=1)
            tiled_s, got = best_of(lambda _: robust._running_sums(block[:, :4096], ks, True))
            cumsum_s, want = best_of(lambda b: cumsum_sums(b[:, :4096], ks, True), block.copy)
            if any(got[k].tobytes() != want[k].tobytes() for k in ks):
                raise SystemExit(f"{m} rows: running sums differ")
            table.append({"rows": m, "cumsum_ns_per_cell": round(cumsum_s / m / 4096 * 1e9, 2),
                          "tiled_ns_per_cell": round(tiled_s / m / 4096 * 1e9, 2)})
    finally:
        robust._TILE_ROWS = default
    return table


def crossover(name, block, n):
    """Partition + prefix sort against a whole-row sort on one block."""
    rows = []
    for frac in FRACTIONS:
        k = max(1, int(round(frac * n)))

        def partial(b):
            if k < n:
                b.partition(k - 1, axis=1)
            b[:, :k].sort(axis=1)
            return b[:, :k]

        def whole(b):
            b.sort(axis=1)
            return b[:, :k]

        partial_s, got = best_of(partial, block.copy)
        whole_s, want = best_of(whole, block.copy)
        if got.tobytes() != want.tobytes():
            raise SystemExit(f"{name} k={k}: prefixes differ")
        rows.append({"k": k, "k_over_n": round(k / n, 3),
                     "partition_sort_s": round(partial_s, 4),
                     "whole_sort_s": round(whole_s, 4),
                     "partition_over_whole": round(partial_s / whole_s, 3),
                     "rule_picks": "whole" if 5 * k >= 3 * n else "partition"})
    cells = block.size
    return {"rows_in_block": block.shape[0], "n": n,
            "whole_sort_ns_per_cell": round(min(r["whole_sort_s"] for r in rows)
                                            / cells * 1e9, 2),
            "rows": rows}


def check_prefix(rows, ks, kind, what):
    """SystemExit unless ``_prefix_values`` gives the cumsum reference's
    bytes (or its overflow) and leaves the rows as they were."""
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
        if got is None or any(got[k].tobytes() != want[k].tobytes() for k in ks):
            raise SystemExit(f"{what} {kind.name}: values differ from cumsum's")
    elif got is not None:
        raise SystemExit(f"{what} {kind.name}: no overflow error")
    if rows.tobytes() != before.tobytes():
        raise SystemExit(f"{what} {kind.name}: the rows changed")


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


def check() -> int:
    """Run every check; returns how many (rows, ks, kind) cases it compared."""
    cases = 0
    for seed in (1, 2, 3):
        for workload, C, strategy in (
                (Fig2Parfree(n_curve=350, ambient=100), THEORETICAL_C, "kdtree"),
                (Matrix3600Parfree(n_curve=300, ambient=60), PRACTICAL_C, "brute")):
            for index, ks in distinct_sets(workload, C, strategy, seed):
                points = index.cloud.points
                what = f"{workload.name} seed {seed} n={index.cloud.n}"
                for kind in (RMS_K, AVG_K):
                    rows = index.knn_distance_rows(points, ks[-1])
                    check_prefix(rows, ks, kind, what)
                    got = values_at_scales(index, points, ks, kind)
                    want = robust._prefix_values(rows, ks, kind)
                    if any(got[k].tobytes() != want[k].tobytes() for k in ks):
                        raise SystemExit(f"{what} {kind.name}: the sweep differs")
                    cases += 1
    rng = np.random.default_rng(SEED)
    default = robust._TILE_ROWS
    try:
        for robust._TILE_ROWS in (default, 2):
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
                                    check_prefix(rows, ks, kind, f"m={m} K={n_cols} "
                                                 f"{style} from {robust._TILE_ROWS} rows")
                                    cases += 1
    finally:
        robust._TILE_ROWS = default
    return cases


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--other-pairs", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=2801)
    args = parser.parse_args(argv)
    if args.check:
        print(f"the tiled running sums equal cumsum's bytes on {check()} cases")
        return 0
    record = {}
    if args.parent:
        # before the inputs are built: Linux carries a process's peak RSS
        # across exec, so no run started later could report one below theirs
        record.update(paired(os.path.abspath(args.parent), args.pairs,
                             args.other_pairs, args.first_seed))
    fig2, matrix = Fig2Parfree(), Matrix3600Parfree()
    sets = {fig2.name: surviving_sets(fig2, THEORETICAL_C, "kdtree"),
            matrix.name: surviving_sets(matrix, PRACTICAL_C, "brute")}
    print("sets", file=sys.stderr, flush=True)
    rows = tile_rows()
    state = matrix.setup(SEED, None)
    ids = state["cloud"].points
    coords = Circle20kK16().setup(SEED, None)["cloud"].coords[:20000]
    blocks = {
        "matrix3600": (cross_distances(state["metric"], ids[:_CHUNK_CELLS // ids.size],
                                       ids), ids.size),
        "circle20k": (cross_distances(Metric(), coords[:_CHUNK_CELLS // 20000], coords),
                      20000)}
    table = {name: crossover(name, block, n) for name, (block, n) in blocks.items()}
    record.update({"repeats": REPEATS, "seed": SEED,
                   "tile_cells": robust._TILE_CELLS, "tile_rows": robust._TILE_ROWS,
                   "sets": sets, "rows": rows, "crossover": table})
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
