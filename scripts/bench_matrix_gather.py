"""The broadcast fancy index against the matrix kernel of
``geometry.cross_distances``, on every block shape the matrix path issues.

    PYTHONPATH=src python scripts/bench_matrix_gather.py

Input: the ``matrix3600_parfree`` matrix at seed 1 (built by
``perfbench.workloads``). Block shapes, rows x targets:

- the greedy pass: 64 random member rows against m kept ids in selection
  order (a random order), for m = 16, 137, 554 and 1087;
- the first sweep: 1111 rows (one ``row_chunks`` block) against all 3600
  ids, which are consecutive;
- a shrunk set's sweep: its first 1111 rows against all its ids, for the
  last set of a ``parfree`` run on the matrix (2880 ids);
- resampling: that last round's kept ids against the ids of its set.

Each shape runs ``REPEATS`` times, on a fresh draw of rows for the greedy
shapes so that they read cold rows as the pass does. Every draw is timed
with the old ``matrix[q[:, None], t]`` and with ``cross_distances``, which
must return the same bytes, or the script exits with an error. It prints one
JSON document: per shape, the best total wall time of each side over
``ROUNDS`` rounds.
"""
from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from declutter import PRACTICAL_C, cross_distances, geometry, parfree_declutter

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.workloads import Matrix3600Parfree  # noqa: E402

REPEATS = 20
ROUNDS = 5


def fancy(metric, q, t):
    """The gather the kernel replaced."""
    return metric.matrix[q[:, None], t]


def shapes(state, rng):
    """(name, [(rows, targets)] * REPEATS) for every block shape."""
    n = state["cloud"].n
    _, trace = parfree_declutter(state["cloud"], state["metric"], C=PRACTICAL_C,
                                 strategy="brute")
    last = trace.iterations[-1]
    shrunk, kept = last.input_ids, last.kept_ids
    every = np.arange(n)
    rows = geometry.row_chunks(n, n)[0].stop
    for m in (16, 137, 554, 1087):
        yield f"greedy 64x{m}", [(rng.choice(n, 64, replace=False),
                                  rng.permutation(n)[:m]) for _ in range(REPEATS)]
    yield f"sweep {rows}x{n}", [(every[:rows], every)] * REPEATS
    yield (f"shrunk-set sweep {rows}x{shrunk.size}",
           [(shrunk[:rows], shrunk)] * REPEATS)
    yield f"resampling {kept.size}x{shrunk.size}", [(kept, shrunk)] * REPEATS


def best_total(fn, metric, draws):
    """Smallest total wall time over the rounds for all draws, and the
    blocks of the last round."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        blocks = [fn(metric, q, t) for q, t in draws]
        best = min(best, time.perf_counter() - start)
    return best, blocks


def main() -> int:
    state = Matrix3600Parfree().setup(1, None)
    metric = state["metric"]
    rng = np.random.default_rng(1)
    table = []
    for name, draws in shapes(state, rng):
        old_s, old = best_total(fancy, metric, draws)
        new_s, new = best_total(cross_distances, metric, draws)
        if any(a.tobytes() != b.tobytes() for a, b in zip(old, new)):
            raise SystemExit(f"{name}: the kernel's block differs from the fancy index")
        cells = sum(q.size * t.size for q, t in draws)
        table.append({"shape": name, "cells": cells, "identical": True,
                      "fancy_s": round(old_s, 5), "kernel_s": round(new_s, 5),
                      "fancy_ns_per_cell": round(old_s / cells * 1e9, 2),
                      "kernel_ns_per_cell": round(new_s / cells * 1e9, 2),
                      "speedup": round(old_s / new_s, 2)})
        print(name, file=sys.stderr, flush=True)
    print(json.dumps({"n": metric.matrix.shape[0], "repeats": REPEATS,
                      "rounds": ROUNDS, "shapes": table}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
