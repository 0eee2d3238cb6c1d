"""The dense k-NN sweep kernel, per surviving set and across k/n.

    PYTHONPATH=src python scripts/bench_sweep_kernel.py

Sets: runs ``parfree_declutter`` on the ``fig2_parfree`` and
``matrix3600_parfree`` benchmark inputs (seed 1, built by
``perfbench.workloads``, with the workload's strategy, constant and thread
count). For every distinct surviving set it times ``robust.values_at_scales``
over the set at its remaining k schedule, the sweep the loop runs, against
the copying kernel it replaced (each block's k-prefix copied into an (m, k)
table, sorted there, then summed from fresh squares; reproduced below). It
checks that both give the same bytes at every k and that every row of
``knn_distance_rows`` equals the k-prefix of a full sort of its distance row.

Crossover: dense distance blocks of 3600 columns (the matrix3600 input) and
20000 columns (the first 20000 points of the circle20k input), one block of
rows each. At k/n from 0.3 to 1 it times partition then prefix sort against a
whole-row sort, checks that both prefixes are identical on every row, and
records the side ``NeighborIndex._sorted_block`` picks.

Prints one JSON document; every time is the best wall time over the repeats.
"""
from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from declutter import (PRACTICAL_C, RMS_K, THEORETICAL_C, Metric,
                       build_index, cross_distances, parfree_declutter,
                       subset_cloud, values_at_scales)
from declutter.geometry import _CHUNK_CELLS, row_chunks

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
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


def copying_sweep(index, q, ks):
    """The rms-k sweep as it was before rows were sorted and reduced in
    place."""
    n, k_max = index.cloud.n, ks[-1]
    out = {k: np.empty(q.shape[0]) for k in ks}
    for sl in row_chunks(q.shape[0], index._row_cells(k_max)):
        if index._tree_serves(k_max):
            rows = index._tree_rows(q[sl], k_max, 1)[0]
        else:
            block = cross_distances(index.metric, q[sl], index.cloud.points)
            if k_max < n:
                block.partition(k_max - 1, axis=1)
            rows = block[:, :k_max].copy()
            rows.sort(axis=1)
        cs = np.cumsum(rows * rows, axis=1)
        for k in ks:
            out[k][sl] = np.sqrt(cs[:, k - 1] / k)
    return out


def check_rows(index, points, k):
    """SystemExit unless every k-NN row equals its full sort's prefix."""
    for sl in row_chunks(points.shape[0], index.cloud.n):
        full = np.sort(cross_distances(index.metric, points[sl], index.cloud.points),
                       axis=1)[:, :k]
        if index.knn_distance_rows(points[sl], k).tobytes() != full.tobytes():
            raise SystemExit(f"k-NN rows at k={k} differ from a full sort")


def surviving_sets(workload, C, strategy):
    """Per distinct surviving set of one parfree run: sizes, schedule, and
    the sweep's time in place and with the copying kernel."""
    state = workload.setup(SEED, None)
    cloud, metric, threads = state["cloud"], state["metric"], workload.threads
    _, trace = parfree_declutter(cloud, metric, C=C, strategy=strategy,
                                 threads=threads)
    table, previous = [], None
    for it in trace.iterations:
        if it.input_ids.size == previous:
            continue
        previous = it.input_ids.size
        sub = subset_cloud(cloud, metric, it.input_ids)[0]
        index = build_index(sub, metric, strategy)
        ks = sorted({min(2 ** j, sub.n) for j in range(it.i, 0, -1)})
        in_place_s, got = best_of(lambda _: values_at_scales(
            index, sub.points, ks, RMS_K, threads))
        copying_s, want = best_of(lambda _: copying_sweep(index, sub.points, ks))
        if any(got[k].tobytes() != want[k].tobytes() for k in ks):
            raise SystemExit(f"{workload.name} i={it.i}: sweeps differ")
        check_rows(index, sub.points, ks[-1])
        table.append({"i": it.i, "n": sub.n, "k_max": ks[-1], "ks": len(ks),
                      "path": "tree" if index._tree_serves(ks[-1]) else "dense",
                      "in_place_s": round(in_place_s, 4),
                      "copying_s": round(copying_s, 4)})
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


def main() -> int:
    fig2, matrix = Fig2Parfree(), Matrix3600Parfree()
    sets = {fig2.name: surviving_sets(fig2, THEORETICAL_C, "kdtree"),
            matrix.name: surviving_sets(matrix, PRACTICAL_C, "brute")}
    print("sets", file=sys.stderr, flush=True)
    state = matrix.setup(SEED, None)
    ids = state["cloud"].points
    coords = Circle20kK16().setup(SEED, None)["cloud"].coords[:20000]
    blocks = {
        "matrix3600": (cross_distances(state["metric"], ids[:_CHUNK_CELLS // ids.size],
                                       ids), ids.size),
        "circle20k": (cross_distances(Metric(), coords[:_CHUNK_CELLS // 20000], coords),
                      20000)}
    table = {name: crossover(name, block, n) for name, (block, n) in blocks.items()}
    print(json.dumps({"repeats": REPEATS, "seed": SEED, "sets": sets,
                      "crossover": table}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
