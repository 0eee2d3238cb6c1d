"""Dense vs kd-tree k-NN rows, the table the tree crossover rule is read from.

    PYTHONPATH=src python scripts/bench_tree_rows.py

Clouds: the ``circle20k_k16`` and ``fig2_parfree`` benchmark inputs (seed 1,
built by ``perfbench.workloads``, at the workload's thread count) and
standard Gaussian clouds in d = 1 to 16 dimensions (seed 5, 1 thread), the
worst case for a kd-tree since their points fill every dimension. For every
cloud and k it times ``knn_distance_rows`` over all members on dense blocks
(brute index) and on the tree candidate path (kd-tree index), checks that
both return the same bytes, and prints one JSON document: per cloud and k,
the best wall time of each path over the repeats, their ratio and the side
the crossover rule (``NeighborIndex._tree_serves``) picks.
"""
from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from declutter import Metric, PointCloud, build_index

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.workloads import Circle20kK16, Fig2Parfree  # noqa: E402

KS = (2, 16, 64, 256, 1024)
REPEATS = 3
# (dimension, points) of the Gaussian clouds
GAUSSIANS = ((1, 10000), (3, 10000), (5, 10000), (5, 20000), (9, 10000),
             (9, 20000), (12, 10000), (16, 10000))


def clouds():
    """(name, cloud, threads) for every cloud in the table."""
    for workload in (Circle20kK16(), Fig2Parfree()):
        yield workload.name, workload.setup(1, None)["cloud"], workload.threads
    for d, n in GAUSSIANS:
        pts = np.random.default_rng(5).normal(size=(n, d))
        yield f"gauss_d{d}_n{n}", PointCloud.from_coords(pts), 1


def best_of(fn):
    """(smallest wall time over the repeats, last result)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def main() -> int:
    table = {}
    for name, cloud, threads in clouds():
        dense = build_index(cloud, Metric(), "brute")
        tree = build_index(cloud, Metric(), "kdtree")
        rows = []
        for k in KS:
            dense_s, want = best_of(lambda: dense.knn_distance_rows(
                cloud.points, k, threads))
            tree_s, got = best_of(lambda: tree._tree_rows(
                cloud.points, k, threads)[0])
            if want.tobytes() != got.tobytes():
                raise SystemExit(f"{name} k={k}: tree rows differ from dense rows")
            rows.append({"k": k, "dense_s": round(dense_s, 4),
                         "tree_s": round(tree_s, 4),
                         "tree_over_dense": round(tree_s / dense_s, 3),
                         "rule_picks": "tree" if tree._tree_serves(k) else "dense"})
        table[name] = {"n": cloud.n, "d": cloud.dim, "threads": threads, "rows": rows}
        print(name, file=sys.stderr, flush=True)
    print(json.dumps({"repeats": REPEATS, "clouds": table}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
