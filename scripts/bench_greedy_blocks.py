"""Per-point greedy loop vs the blocked greedy pass, the table the block size
``decluttering._BLOCK`` is read from.

    PYTHONPATH=src python scripts/bench_greedy_blocks.py

Inputs: the ``circle20k_k16`` cloud at k = 2, 16 and 64 and the
``fig2_parfree`` cloud at k = 4096, 256, 16 and 2 (seed 1, built by
``perfbench.workloads``; profiles on the kd-tree index at the workload's
thread count). For every input it times the greedy pass alone, on a profile
computed once: the per-point loop the blocked pass replaced (one
``cross_distances`` call per point, kept here as the reference) and
``decluttering.greedy_declutter`` at each candidate block size. Every blocked
result must equal the loop's kept order, witnesses and witness distance bytes,
or the script exits with an error. It prints one JSON document: per input,
the best wall time of each pass over the repeats, and the block size in use.
"""
from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

from declutter import build_index, cross_distances, decluttering, profile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.workloads import Circle20kK16, Fig2Parfree  # noqa: E402

BLOCKS = (8, 16, 32, 48, 64, 96, 128, 256)
REPEATS = 5
KS = {"circle20k_k16": (2, 16, 64), "fig2_parfree": (4096, 256, 16, 2)}


def per_point_pass(cloud, metric, prof, factor=2.0):
    """The greedy loop before blocking: (kept ids, {id: (witness, distance)})."""
    values = prof.values
    order = np.lexsort((np.arange(cloud.n), values))
    members = cloud.points
    kept_buf = np.empty_like(members)
    kept, rejected = [], {}
    for pid in order.tolist():
        m = len(kept)
        if m:
            d = cross_distances(metric, members[pid:pid + 1], kept_buf[:m])[0]
            hits = np.flatnonzero(d <= factor * values[pid])
            if hits.size:
                rejected[pid] = (kept[hits[0]], float(d[hits[0]]))
                continue
        kept_buf[m] = members[pid]
        kept.append(pid)
    return kept, rejected


def outcome(kept, rejected):
    """Kept order, rejected ids and witnesses in insertion order, and the
    witness distances as bytes."""
    return (list(kept), list(rejected), [w for w, _ in rejected.values()],
            np.array([x for _, x in rejected.values()]).tobytes())


def best_of(fn):
    """(smallest wall time over the repeats, last result)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - start)
    return best, out


def main() -> int:
    chosen = decluttering._BLOCK
    table = {}
    for workload in (Circle20kK16(), Fig2Parfree()):
        state = workload.setup(1, None)
        cloud, metric = state["cloud"], state["metric"]
        index = build_index(cloud, metric, "kdtree")
        rows = []
        for k in KS[workload.name]:
            prof = profile(cloud, index, k, threads=workload.threads)
            loop_s, (kept, rejected) = best_of(
                lambda: per_point_pass(cloud, metric, prof))
            want = outcome(kept, rejected)
            blocked = {}
            for block in BLOCKS:
                decluttering._BLOCK = block
                block_s, result = best_of(
                    lambda: decluttering.greedy_declutter(cloud, metric, prof))
                got = outcome(result.kept.tolist(), {
                    p: (r.witness, r.distance) for p, r in result.rejected.items()})
                if got != want:
                    raise SystemExit(f"{workload.name} k={k} block={block}: "
                                     "blocked pass differs from the per-point loop")
                blocked[str(block)] = round(block_s, 4)
            decluttering._BLOCK = chosen
            rows.append({"k": k, "kept": len(kept), "identical": True,
                         "per_point_s": round(loop_s, 4), "blocked_s": blocked})
            print(workload.name, k, file=sys.stderr, flush=True)
        table[workload.name] = {"n": cloud.n, "threads": workload.threads,
                                "rows": rows}
    print(json.dumps({"repeats": REPEATS, "chosen_block": chosen,
                      "inputs": table}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
