"""Per-point greedy loop vs the blocked greedy pass, and the dense blocked
pass vs the kd-tree pass: the tables the block size ``decluttering._BLOCK``
and the tree pass's constants are read from (``_WINDOW``, ``_TREE_K``, and
``_TREE_SHIFT`` of the kept-count rule ``_TREE_K * 2**(d + _TREE_SHIFT)``).

    PYTHONPATH=src python scripts/bench_greedy_blocks.py
    PYTHONPATH=src python scripts/bench_greedy_blocks.py --check

Inputs: the ``circle20k_k16`` cloud at k = 2, 16 and 64 and the
``fig2_parfree`` cloud at k = 4096, 256, 16 and 2 (seed 1, built by
``perfbench.workloads``; profiles on the kd-tree index at the workload's
thread count). For every input it times the greedy pass alone, on a profile
computed once: the per-point loop the blocked pass replaced (one
``cross_distances`` call per point, kept here as the reference) and the
dense blocked pass at each candidate block size. Every blocked result must
equal the loop's kept order, witnesses and witness distance bytes, or the
script exits with an error.

At k = 2, 16 and 64 on the circle and k = 16 and 2 on fig2 it also times the
kd-tree pass (``decluttering._greedy_pass`` with the tree on) against the
dense pass, varying one constant at a time around the chosen ones, and on
Gaussian clouds of 20000 points in 3, 5 and 9 dimensions (seed 1) at k = 2
and 16 it varies the shift alone; every tree result must be the dense pass's
bytes. It prints one JSON document: per input, the best wall time of each
pass over the repeats, and the constants in use.

``--check`` runs every input at a tenth of its point count, at seeds 1-5
and every k above that the smaller cloud allows, with the chosen constants
and with a tenth of the window and an eighth of the kept-count threshold,
and exits 1 unless the tree pass returns the dense pass's bytes everywhere
and the tree answered on some input.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from declutter import Metric, PointCloud, build_index, cross_distances, decluttering, profile

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.workloads import Circle20kK16, Fig2Parfree  # noqa: E402

BLOCKS = (8, 16, 32, 48, 64, 96, 128, 256)
REPEATS = 9
KS = {"circle20k_k16": (2, 16, 64), "fig2_parfree": (4096, 256, 16, 2)}
GAUSSIAN_DIMS = (3, 5, 9)
TREE_KS = {"circle20k_k16": (2, 16, 64), "fig2_parfree": (16, 2),
           **{f"gaussian{d}d": (2, 16) for d in GAUSSIAN_DIMS}}
# the tree pass's constants and the values tried for each, one at a time (the
# shift alone on the Gaussian clouds); in 2-D the shifts put the kept-count
# threshold at 16, 32, ..., 1024
SHIFTS = {"_TREE_SHIFT": (0, 1, 2, 3, 4, 5, 6)}
TREE_CONSTANTS = {"_WINDOW": (256, 512, 1024, 2048, 4096),
                  "_TREE_K": (1, 2, 4, 8, 16), **SHIFTS}


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


def with_constants(values: dict, fn):
    """fn() with the decluttering module's attributes set to ``values``."""
    saved = {name: getattr(decluttering, name) for name in values}
    for name, value in values.items():
        setattr(decluttering, name, value)
    try:
        return fn()
    finally:
        for name, value in saved.items():
            setattr(decluttering, name, value)


def pass_bytes(cloud, metric, prof, tree: bool) -> bytes:
    """Every array the greedy pass returns, as one byte string."""
    out = decluttering._greedy_pass(metric, cloud.points, prof.values, tree)
    return b"|".join(a.tobytes() for a in out)


def inputs(seed: int, scale: float = 1.0):
    """(input name, cloud, metric, index, threads) of both recipes and the
    Gaussian clouds."""
    for cls in (Circle20kK16, Fig2Parfree):
        workload = cls(n_curve=int(cls.defaults["n_curve"] * scale),
                       ambient=int(cls.defaults["ambient"] * scale))
        state = workload.setup(seed, None)
        cloud, metric = state["cloud"], state["metric"]
        yield (workload.name, cloud, metric, build_index(cloud, metric, "kdtree"),
               workload.threads)
    for d in GAUSSIAN_DIMS:
        rng = np.random.default_rng(seed)
        cloud, metric = PointCloud.from_coords(rng.normal(size=(int(20000 * scale), d))), Metric()
        yield f"gaussian{d}d", cloud, metric, build_index(cloud, metric, "kdtree"), 2


def block_rows(cloud, metric, index, threads, ks) -> list:
    rows = []
    for k in ks:
        prof = profile(cloud, index, k, threads=threads)
        loop_s, (kept, rejected) = best_of(
            lambda: per_point_pass(cloud, metric, prof))
        want = outcome(kept, rejected)
        blocked = {}
        for block in BLOCKS:
            block_s, result = with_constants({"_BLOCK": block}, lambda: best_of(
                lambda: decluttering._greedy_result(cloud, metric, prof, tree=False)))
            got = outcome(result.kept.tolist(), {
                p: (r.witness, r.distance) for p, r in result.rejected.items()})
            if got != want:
                raise SystemExit(f"k={k} block={block}: blocked pass differs "
                                 "from the per-point loop")
            blocked[str(block)] = round(block_s, 4)
        rows.append({"k": k, "kept": len(kept), "identical": True,
                     "per_point_s": round(loop_s, 4), "blocked_s": blocked})
        print("blocks", cloud.n, k, file=sys.stderr, flush=True)
    return rows


def tree_rows(cloud, metric, index, threads, ks, constants) -> list:
    rows = []
    for k in ks:
        prof = profile(cloud, index, k, threads=threads)
        dense_s, want = best_of(lambda: pass_bytes(cloud, metric, prof, False))
        tree_s = {}
        for name, values in constants.items():
            tree_s[name] = {}
            for value in values:
                t, got = with_constants({name: value}, lambda: best_of(
                    lambda: pass_bytes(cloud, metric, prof, True)))
                if got != want:
                    raise SystemExit(f"k={k} {name}={value}: the tree pass differs "
                                     "from the dense pass")
                tree_s[name][str(value)] = round(t, 4)
        kept = decluttering._greedy_pass(metric, cloud.points, prof.values)[0].size
        rows.append({"k": k, "kept": int(kept), "identical": True,
                     "dense_s": round(dense_s, 4), "tree_s": tree_s})
        print("tree", cloud.n, k, file=sys.stderr, flush=True)
    return rows


def check() -> int:
    """Number of passes compared; SystemExit on the first difference or when
    the tree never answered."""
    small = {"_WINDOW": decluttering._WINDOW // 10,
             "_TREE_SHIFT": decluttering._TREE_SHIFT - 3}
    builds = []
    real = decluttering.cKDTree

    def counted(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    count = 0
    for seed in range(1, 6):
        for name, cloud, metric, index, threads in inputs(seed, 0.1):
            for k in sorted({*KS.get(name, ()), *TREE_KS[name]}):
                if k > cloud.n:
                    continue
                prof = profile(cloud, index, k, threads=threads)
                want = pass_bytes(cloud, metric, prof, False)
                for constants in ({}, small):
                    got = with_constants({**constants, "cKDTree": counted},
                                         lambda: pass_bytes(cloud, metric, prof, True))
                    if got != want:
                        raise SystemExit(f"{name} seed {seed} k={k} {constants}: "
                                         "the tree pass differs from the dense pass")
                    count += 1
    if not builds:
        raise SystemExit("the tree pass never built a kept-set tree")
    return count


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    if args.check:
        print(f"the kd-tree greedy pass returns the dense pass's bytes on "
              f"{check()} tenth-size passes")
        return 0
    table = {}
    for name, cloud, metric, index, threads in inputs(1):
        table[name] = {"n": cloud.n, "dim": cloud.dim, "threads": threads,
                       "rows": block_rows(cloud, metric, index, threads,
                                          KS.get(name, ())),
                       "tree_rows": tree_rows(cloud, metric, index, threads,
                                              TREE_KS[name],
                                              TREE_CONSTANTS if name in KS else SHIFTS)}
    print(json.dumps({"repeats": REPEATS, "chosen_block": decluttering._BLOCK,
                      "chosen_tree": {name: getattr(decluttering, name)
                                      for name in TREE_CONSTANTS},
                      "inputs": table}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
