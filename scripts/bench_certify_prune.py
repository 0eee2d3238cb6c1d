"""Pruned against full reference sweeps in ``certify._certificates``, and the
paired end-to-end runs of the ``certify_cli`` workload.

    PYTHONPATH=src python scripts/bench_certify_prune.py
    PYTHONPATH=src python scripts/bench_certify_prune.py --check
    PYTHONPATH=src python scripts/bench_certify_prune.py --parent DIR --pairs 10

The plain and weak certificates read the reference only through cond1, the
largest robust distance at a reference point. ``certify._reference_maxima``
sweeps every ``_CERT_STRIDE``-th reference point and then only the points
whose Lipschitz bound reaches the sampled maximum; the full sweep takes every
reference point. Each table row times both, best of ``ROUNDS``, on one input
at ks 8, 16, 32 and one kind, counts the reference points each sweeps, and
exits with an error unless their maxima are the same floats. Inputs:

- ``certify_cli``: the workload's recipe (``gen`` circle, 4000 points,
  sigma 0.02, 400 ambient, 40000 reference points) at ``--seed``;
- ``certify_cli shuffled``: the same with the reference ids permuted, so the
  stride sample is not spatially even;
- ``ring around a cluster``: 40000 reference points on the unit circle and
  4400 cloud points within 1e-4 of its centre. Every robust value is within
  the sample spacing of the maximum, so nearly every point is swept: the
  worst case, where pruning only adds its sample and bound work.

``--check`` runs the first two inputs at seed 1 and a tenth of the size,
under the Euclidean and Manhattan metrics, and exits non-zero unless the
pruned cond1 equals the full one at every kind and k.

``--parent DIR`` (a checkout of the parent commit) adds the end-to-end
record: ``--pairs`` paired ``perfbench/run.py --workload certify_cli --trace
0`` runs, parent against this checkout, the side that runs first
alternating; one pair at the hold-out seed 918273; and one traced run per
side at seed 7 for its ``neighbors.knn_rows`` count. It prints one JSON
document.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np
import scipy

from declutter import Metric, PointCloud, build_index
from declutter.robust import KIND_NAMES, parse_kind, values_at_scales

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from perfbench.workloads import CertifyCli  # noqa: E402

# the module, which the package's ``certify`` function shadows
certify = importlib.import_module("declutter.certify")

KS = [8, 16, 32]
ROUNDS = 5
HOLDOUT_SEED = 918273
RUN_SECONDS = 20
END_TO_END = ("job_s", "points_per_s", "cpu_s", "setup_s", "peak_rss_mb")


def recipe(seed: int, scale: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(cloud, reference) coordinates of the ``certify_cli`` recipe, through
    the workload's own ``gen`` step; ``scale`` shrinks the point counts."""
    params = {"n_curve": int(4000 * scale), "ambient": int(400 * scale)}
    with tempfile.TemporaryDirectory() as workdir:
        gen = CertifyCli(**params).setup(seed, workdir)["gen"]
        return tuple(np.loadtxt(os.path.join(gen, name), delimiter=",")
                     for name in ("points.csv", "reference.csv"))


def ring_around_cluster(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    theta = np.linspace(0.0, 2 * np.pi, 40000, endpoint=False)
    ref = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return rng.normal(scale=1e-4, size=(4400, 2)), ref


def inputs(seed: int, scale: float = 1.0):
    cloud, ref = recipe(seed, scale)
    yield "certify_cli", cloud, ref
    perm = np.random.default_rng(seed).permutation(ref.shape[0])
    yield "certify_cli shuffled", cloud, ref[perm]
    if scale == 1.0:
        yield "ring around a cluster", *ring_around_cluster(seed)


def sweeps(metric: Metric, cloud: np.ndarray, ref: np.ndarray, kind):
    """(full maxima, full seconds, pruned maxima, pruned seconds, points the
    pruned path swept), best of ROUNDS each."""
    index = build_index(PointCloud.from_coords(cloud), metric)
    swept = []
    real = certify.values_at_scales

    def counting(index, queries, ks, kind, threads=1):
        swept.append(len(queries))
        return real(index, queries, ks, kind, threads)

    full_s = pruned_s = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        vals = values_at_scales(index, ref, KS, kind)
        full = {k: float(v.max()) for k, v in vals.items()}
        full_s = min(full_s, time.perf_counter() - t0)
        swept.clear()
        certify.values_at_scales = counting
        try:
            t0 = time.perf_counter()
            pruned = certify._reference_maxima(index, metric, ref, KS, kind, 1)
            pruned_s = min(pruned_s, time.perf_counter() - t0)
        finally:
            certify.values_at_scales = real
    return full, full_s, pruned, pruned_s, sum(swept)


def sweep_table(seed: int, scale: float, metrics) -> list[dict]:
    table = []
    for name, cloud, ref in inputs(seed, scale):
        for metric in metrics:
            for kind in map(parse_kind, KIND_NAMES):
                full, full_s, pruned, pruned_s, swept = sweeps(metric, cloud, ref, kind)
                if any(full[k].hex() != pruned[k].hex() for k in KS):
                    raise SystemExit(f"{name} {metric.kind} {kind.name}: pruned "
                                     f"cond1 {pruned} differs from full {full}")
                table.append({"input": name, "metric": metric.kind,
                              "kind": kind.name, "reference_points": ref.shape[0],
                              "pruned_swept": swept,
                              "sample": -(-ref.shape[0] // certify._CERT_STRIDE),
                              "cond1_identical": True, "full_s": round(full_s, 4),
                              "pruned_s": round(pruned_s, 4),
                              "speedup": round(full_s / pruned_s, 2)})
                print(name, metric.kind, kind.name, file=sys.stderr, flush=True)
    return table


def perfbench(checkout: str, seed: int, trace: int,
              workload: str = "certify_cli") -> dict:
    """The result line of one ``perfbench/run.py`` run in ``checkout``, with
    each metric read as its value."""
    out = subprocess.run(
        [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(RUN_SECONDS), "--trace", str(trace)],
        cwd=checkout, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def summary(runs: list[dict]) -> dict:
    out = {"all_correct": all(r["correct"] for r in runs),
           "failed": sum(r["failed"] for r in runs),
           "attempted": sum(r["attempted"] for r in runs), "metrics": {}}
    for name in END_TO_END:
        vals = [r["metrics"][name] for r in runs]
        q1, _, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                     if len(vals) > 1 else vals * 3)
        out["metrics"][name] = {"median": round(statistics.median(vals), 4),
                                "q1": round(q1, 4), "q3": round(q3, 4),
                                "runs": [round(v, 4) for v in vals]}
    return out


def paired(parent: str, pairs: int, first_seed: int) -> dict:
    sides = {"parent": parent, "change": ROOT}
    runs = {"parent": [], "change": []}
    seeds = list(range(first_seed, first_seed + pairs))
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(perfbench(sides[side], seed, 0))
        print(f"pair {i + 1}/{pairs}", file=sys.stderr, flush=True)
    won = sum(c["metrics"]["job_s"] < p["metrics"]["job_s"]
              for p, c in zip(runs["parent"], runs["change"]))
    batch = {side: {"seeds": seeds, **summary(r)} for side, r in runs.items()}
    parent_job = batch["parent"]["metrics"]["job_s"]
    change_job = batch["change"]["metrics"]["job_s"]
    holdout = {side: perfbench(sides[side], HOLDOUT_SEED, 0)["metrics"]["job_s"]
               for side in ("change", "parent")}
    knn_rows = {side: perfbench(sides[side], 7, 1)["metrics"]["neighbors.knn_rows"]
                for side in ("parent", "change")}
    iqr = parent_job["q3"] - parent_job["q1"]
    return {"claim": {"metric": "job_s", "workload": "certify_cli",
                      "parent_median": parent_job["median"],
                      "change_median": change_job["median"],
                      "parent_iqr": round(iqr, 4),
                      "pairs_won": f"{won}/{pairs}",
                      f"holdout_{HOLDOUT_SEED}_job_s": holdout,
                      "met": (won >= 0.9 * pairs
                              and parent_job["median"] - change_job["median"] > iqr
                              and holdout["change"] < holdout["parent"])},
            "traced_seed7_knn_rows": knn_rows,
            "paired_batch": batch}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1801)
    args = parser.parse_args(argv)
    if args.check:
        table = sweep_table(1, 0.1, [Metric("euclidean"), Metric("manhattan")])
        print(f"pruned cond1 equals the full sweep's on {len(table)} "
              "input, metric and kind combinations")
        return 0
    record = {"machine": {"nproc": os.cpu_count(),
                          "python": platform.python_version(),
                          "numpy": np.__version__, "scipy": scipy.__version__,
                          "platform": platform.platform()},
              "ks": KS, "rounds": ROUNDS, "seed": args.seed,
              "sweeps": sweep_table(args.seed, 1.0, [Metric("euclidean")])}
    if args.parent:
        record.update(paired(os.path.abspath(args.parent), args.pairs,
                             args.first_seed))
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
