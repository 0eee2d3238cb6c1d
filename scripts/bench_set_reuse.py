"""Reuse of a shrunk set's robust values in ``parfree``: rows swept per set,
byte identity with the parent commit, paired timings and the memory guard.

    PYTHONPATH=src python scripts/bench_set_reuse.py --parent DIR [--pairs 10] [--seconds 20]

DIR holds the files of the parent commit (for example from ``git archive``);
the benchmark code there must be the same as here.

- rows: ``parfree_declutter`` on the ``fig2_parfree`` and
  ``matrix3600_parfree`` inputs (seed 7, with the workload's constant,
  strategy and thread count) with ``parfree._sweep`` wrapped: per distinct
  surviving set, its size, its largest k and the rows swept.
- identity: per workload and seed (7, 11, 23), a digest of the final ids and
  of every iteration's input, kept and resampled ids, witnesses and profile
  bytes, on 1 and 2 threads and, for coordinate inputs, on the brute and
  kd-tree paths. Each side computes them from its own ``src``; they must
  match.
- traced: one ``perfbench/run.py --trace 1`` run per workload and side at
  seed 7, for the per-layer counts.
- pairs: ``perfbench/run.py --trace 0`` per workload at seeds 901, 902, ...,
  alternating which side runs first; per side the median and quartiles of
  each end-to-end metric, and the pairs the change won on ``job_s``.
- holdout: one such pair per workload at seed 918273.
- guard: ``scripts/parfree_memory_guard.py`` once per side.

Prints one JSON document.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("fig2_parfree", "matrix3600_parfree")
SEED = 7
IDENTITY_SEEDS = (7, 11, 23)
HOLDOUT_SEED = 918273
TRACED = ("neighbors.knn_rows", "geometry.distance_cells", "neighbors.knn_rows_s",
          "geometry.cross_distances_s", "parfree.loop_self_s", "parfree.set_changes")


def _workloads():
    sys.path.insert(0, ROOT)
    from perfbench import workloads
    return workloads


def _constant_and_strategy(name):
    from declutter import PRACTICAL_C, THEORETICAL_C
    return (THEORETICAL_C, "kdtree") if name == "fig2_parfree" else (PRACTICAL_C, "brute")


def rows_per_set() -> dict:
    """Per workload: the sets of one seed-7 run and the rows each swept."""
    from declutter import parfree
    workloads = _workloads()
    out = {}
    original = parfree._sweep
    for name in WORKLOADS:
        workload = workloads.WORKLOADS[name]()
        state = workload.setup(SEED, None)
        C, strategy = _constant_and_strategy(name)
        sets = []

        def recorded(index, queries, ks, kind, threads):
            sets.append({"n": index.cloud.n, "k_max": max(ks),
                         "rows_swept": len(queries)})
            return original(index, queries, ks, kind, threads)

        parfree._sweep = recorded
        try:
            parfree.parfree_declutter(state["cloud"], state["metric"], C=C,
                                      strategy=strategy, threads=workload.threads)
        finally:
            parfree._sweep = original
        out[name] = {"sets": sets,
                     "rows_swept": sum(s["rows_swept"] for s in sets),
                     "rows_in_sets": sum(s["n"] for s in sets)}
    return out


def digests() -> dict:
    """Digests of parfree's outputs on every identity seed and run path,
    from whichever library ``declutter`` imports."""
    from declutter import parfree
    workloads = _workloads()
    out = {}
    for name in WORKLOADS:
        workload = workloads.WORKLOADS[name]()
        C, strategy = _constant_and_strategy(name)
        for seed in IDENTITY_SEEDS:
            state = workload.setup(seed, None)
            paths = [(strategy, 1), (strategy, 2)]
            if state["cloud"].is_coordinate:
                paths.append(("brute", 1))
            for path, threads in paths:
                ids, trace = parfree.parfree_declutter(
                    state["cloud"], state["metric"], C=C, strategy=path,
                    threads=threads)
                parts = [ids]
                for it in trace.iterations:
                    parts += [it.input_ids, it.kept_ids, it.resampled_ids,
                              it.profile_values,
                              sorted(it.rejected.items()), it.summary()]
                out[f"{name} seed={seed} {path} threads={threads}"] = \
                    workloads._digest(*parts)
    return out


def _run(checkout: str, argv: list[str]) -> dict:
    """The last JSON line a command prints, run in a checkout on its src."""
    env = {**os.environ, "PYTHONPATH": os.path.join(checkout, "src")}
    done = subprocess.run([sys.executable, *argv], cwd=checkout, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def _bench(checkout: str, name: str, seed: int, seconds: float, trace: int) -> dict:
    result = _run(checkout, ["perfbench/run.py", "--workload", name, "--seed",
                             str(seed), "--seconds", str(seconds), "--trace", str(trace)])
    if result["correct"] is not True:
        raise SystemExit(f"{checkout}: {name} seed {seed} is not correct")
    return result


def _summary(runs: list[float]) -> dict:
    if len(runs) == 1:
        return {"runs": [round(runs[0], 4)]}
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4),
            "runs": [round(r, 4) for r in runs]}


def pairs(parent: str, name: str, seeds, seconds: float) -> dict:
    """Alternating parent/change runs; the side that runs first swaps."""
    sides = {"parent": parent, "change": ROOT}
    runs = {side: [] for side in sides}
    for j, seed in enumerate(seeds):
        order = ("parent", "change") if j % 2 == 0 else ("change", "parent")
        for side in order:
            print(f"{name} seed {seed} {side}", file=sys.stderr, flush=True)
            runs[side].append(_bench(sides[side], name, seed, seconds, 0))
    metrics = runs["parent"][0]["metrics"]
    table = {side: {m: _summary([r["metrics"][m]["value"] for r in rs])
                    for m in metrics} for side, rs in runs.items()}
    job = [(p["metrics"]["job_s"]["value"], c["metrics"]["job_s"]["value"])
           for p, c in zip(runs["parent"], runs["change"])]
    table["seeds"] = list(seeds)
    table["job_s_pairs_won"] = f"{sum(c < p for p, c in job)}/{len(job)}"
    table["failed"] = {side: sum(r["failed"] for r in rs) for side, rs in runs.items()}
    return table


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--part", choices=("digests", "rows"),
                    help="print only this part, computed with the library on "
                         "PYTHONPATH, and stop")
    args = ap.parse_args(argv)
    if args.part:
        print(json.dumps(digests() if args.part == "digests" else rows_per_set()))
        return 0
    # the library runs in child processes only: a child's ru_maxrss starts
    # from the peak of the process it was started from
    parent = os.path.abspath(args.parent)
    me = [os.path.join(ROOT, "scripts", "bench_set_reuse.py"), "--parent", parent,
          "--part"]
    ours, theirs = _run(ROOT, me + ["digests"]), _run(parent, me + ["digests"])
    if ours != theirs:
        differ = sorted(k for k in ours if ours[k] != theirs.get(k))
        raise SystemExit(f"outputs differ: {differ}")
    report = {"rows": _run(ROOT, me + ["rows"]),
              "identity": {"runs_compared": len(ours), "identical": True},
              "traced_seed_7": {}}
    for name in WORKLOADS:
        report["traced_seed_7"][name] = {
            side: {m: _bench(path, name, SEED, 5.0, 1)["metrics"][m]["value"]
                   for m in TRACED}
            for side, path in (("parent", parent), ("change", ROOT))}
    report["pairs"] = {name: pairs(parent, name, range(901, 901 + args.pairs),
                                   args.seconds) for name in WORKLOADS}
    report["holdout"] = {name: pairs(parent, name, [HOLDOUT_SEED], args.seconds)
                         for name in WORKLOADS}
    guard = ["scripts/parfree_memory_guard.py"]
    report["memory_guard"] = {"parent": _run(parent, guard),
                              "change": _run(ROOT, guard)}
    print(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
