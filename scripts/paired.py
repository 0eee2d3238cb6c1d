"""Paired benchmark runs of the parent commit against this checkout.

    python3 scripts/paired.py --parent DIR --workload W --metric M \\
        [--pairs 10] [--other-pairs 3] [--first-seed S]

DIR holds the files of the parent commit, for example from ``git archive
<commit> | tar -x -C DIR``. The run seconds, the workload names and each
end-to-end metric's ``better`` and ``bound`` come from this checkout's
``BENCHMARK.json``; the hold-out seed is ``perfbench.workloads.HOLDOUT_SEED``.

1. Identity. In each checkout a child process imports that checkout's
   ``src`` and ``perfbench``, checks that it did, and digests every
   workload's inputs (``fingerprint_inputs``) and one job's output
   (``fingerprint``) at seeds 1 and 7. Any difference exits 1.
2. Timing. ``--pairs`` pairs of ``perfbench/run.py --trace 0`` runs of W at
   seeds S, S+1, ..., the side that runs first alternating; one pair at the
   hold-out seed; then ``--other-pairs`` pairs of every other workload.
3. Memory guard. Each checkout's ``scripts/parfree_memory_guard.py`` runs
   once.

It prints one JSON document: per workload and side the median, quartiles
and runs of every end-to-end metric, with ``correct``, ``failed`` and
``attempted``; the claim on (W, M): the pairs the change won (a tie counts
for neither side), the parent's interquartile range, and ``met`` when the
change won at least 9 of every 10 pairs and its median beats the parent's by
more than that range; and ``regressed``: every (workload, metric) whose
change median is worse than the parent's by more than the metric's bound.

This process imports only the standard library and every run is a child
of it: Linux carries ``ru_maxrss`` across exec, so a run started from a
process that had grown would report that process's peak as its own.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
IDENTITY_SEEDS = (1, 7)


def probe(checkout: str) -> dict:
    """Run in a child: the input and output digests of every workload at
    the identity seeds, from the checkout's own library and workloads."""
    import declutter
    import workloads
    for module, home in ((declutter, "src"), (workloads, "perfbench")):
        if not os.path.abspath(module.__file__).startswith(
                os.path.join(checkout, home, "")):
            sys.exit(f"imported {module.__file__}, not from {checkout}/{home}")
    digests = {}
    with tempfile.TemporaryDirectory() as workdir:
        for name, cls in sorted(workloads.WORKLOADS.items()):
            for seed in IDENTITY_SEEDS:
                workload = cls()
                state = workload.setup(seed, workdir)
                digests[f"{name} seed {seed}"] = {
                    "inputs": workload.fingerprint_inputs(state),
                    "output": workload.fingerprint(workload.job(state))}
    return {"holdout_seed": workloads.HOLDOUT_SEED, "digests": digests}


def child_json(checkout: str, argv: list[str], env: dict | None = None,
               check: bool = True) -> dict:
    """The last line of a child's standard output, read as JSON. The child
    runs in ``checkout``; unless it exits 0, this process exits 1, or with
    ``check`` False the line gains the child's ``exit_code``."""
    done = subprocess.run([sys.executable, *argv], cwd=checkout, text=True,
                          stdout=subprocess.PIPE, env={**os.environ, **(env or {})})
    if done.returncode != 0 and check:
        sys.exit(f"{' '.join(argv)} exited {done.returncode} in {checkout}")
    line = json.loads(done.stdout.strip().splitlines()[-1])
    return line if check else {**line, "exit_code": done.returncode}


def identity(sides: dict) -> int:
    """Compare both checkouts' digests; returns the hold-out seed."""
    probes = {side: child_json(checkout, [os.path.abspath(__file__), "--probe", checkout],
                               {"PYTHONPATH": os.pathsep.join(
                                   os.path.join(checkout, d) for d in ("src", "perfbench"))})
              for side, checkout in sides.items()}
    parent, change = probes["parent"]["digests"], probes["change"]["digests"]
    differ = sorted(key for key in change if parent.get(key) != change[key])
    if differ or parent.keys() != change.keys():
        sys.exit(f"outputs differ from the parent's: {differ}")
    print(f"identity: {len(change)} workload and seed digests equal", file=sys.stderr)
    return probes["change"]["holdout_seed"]


def bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    return child_json(checkout, ["perfbench/run.py", "--workload", workload,
                                 "--seed", str(seed), "--seconds", str(seconds),
                                 "--trace", "0"])


def pairs(sides: dict, workload: str, seeds: list[int], seconds: float) -> dict:
    """Per side, the result of each seed's run, the first side alternating."""
    runs = {side: [] for side in sides}
    for i, seed in enumerate(seeds):
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            runs[side].append(bench(sides[side], workload, seed, seconds))
        print(f"{workload} seed {seed}: pair {i + 1}/{len(seeds)}", file=sys.stderr,
              flush=True)
    return runs


def summary(runs: list[dict], metrics: dict) -> dict:
    """Median, quartiles and runs of every metric, and the job tallies."""
    out = {"correct": all(r["correct"] for r in runs),
           "failed": sum(r["failed"] for r in runs),
           "attempted": sum(r["attempted"] for r in runs), "metrics": {}}
    for name in metrics:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                          if len(vals) > 1 else vals * 3)
        out["metrics"][name] = {"median": round(median, 4), "q1": round(q1, 4),
                                "q3": round(q3, 4), "runs": [round(v, 4) for v in vals]}
    return out


def gain(parent: float, change: float, better: str) -> float:
    """How much better the change is, in the metric's own direction."""
    return parent - change if better == "lower" else change - parent


def claim(runs: dict, metric: str, better: str) -> dict:
    """The claim on one metric from paired runs: pairs won, the parent's
    interquartile range, and whether the claim is met."""
    values = {side: [r["metrics"][metric]["value"] for r in rs]
              for side, rs in runs.items()}
    won = sum(gain(p, c, better) > 0 for p, c in zip(values["parent"], values["change"]))
    n = len(values["parent"])
    stats = {side: summary(rs, [metric])["metrics"][metric] for side, rs in runs.items()}
    iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
    return {"metric": metric, "better": better, "pairs_won": f"{won}/{n}",
            "parent_median": stats["parent"]["median"],
            "change_median": stats["change"]["median"], "parent_iqr": round(iqr, 4),
            "met": (10 * won >= 9 * n and gain(stats["parent"]["median"],
                                                 stats["change"]["median"], better) > iqr)}


def regressed(table: dict, metrics: dict) -> list[dict]:
    """Every (workload, metric) whose change median is worse than the
    parent's by more than the metric's bound, relative to the parent's."""
    out = []
    for workload, sides in table.items():
        for name, spec in metrics.items():
            parent = sides["parent"]["metrics"][name]["median"]
            change = sides["change"]["metrics"][name]["median"]
            worse = -gain(parent, change, spec["better"]) / parent if parent else 0.0
            if worse > spec["bound"]:
                out.append({"workload": workload, "metric": name,
                            "parent_median": parent, "change_median": change,
                            "worse_by": round(worse, 4), "bound": spec["bound"]})
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="files of the parent commit")
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--metric", choices=list(metrics))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--other-pairs", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=1001)
    parser.add_argument("--probe", metavar="CHECKOUT", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:  # a child of step 1
        print(json.dumps(probe(args.probe)))
        return 0
    if not (args.parent and args.workload and args.metric):
        parser.error("--parent, --workload and --metric are required")
    if args.pairs < 1 or args.other_pairs < 0:
        parser.error("--pairs must be positive and --other-pairs not negative")
    sides = {"parent": os.path.abspath(args.parent), "change": ROOT}
    if not os.path.isfile(os.path.join(sides["parent"], "perfbench", "run.py")):
        parser.error(f"{args.parent} holds no perfbench/run.py")
    holdout = identity(sides)
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.pairs))
    runs = pairs(sides, args.workload, seeds, seconds)
    held = pairs(sides, args.workload, [holdout], seconds)
    table = {args.workload: {"seeds": seeds, **{side: summary(rs, metrics)
                                                for side, rs in runs.items()}}}
    other_seeds = list(range(seeds[-1] + 1, seeds[-1] + 1 + args.other_pairs))
    for name in names:
        if name != args.workload and other_seeds:
            other = pairs(sides, name, other_seeds, seconds)
            table[name] = {"seeds": other_seeds, **{side: summary(rs, metrics)
                                                    for side, rs in other.items()}}
    guard = {side: child_json(checkout, ["scripts/parfree_memory_guard.py"],
                              {"PYTHONPATH": os.path.join(checkout, "src")}, check=False)
             for side, checkout in sides.items()}
    record = {"parent": sides["parent"], "run_seconds": seconds,
              "identity": {"seeds": list(IDENTITY_SEEDS), "identical": True},
              "claim": {"workload": args.workload,
                        **claim(runs, args.metric, metrics[args.metric]["better"]),
                        "holdout": {"seed": holdout, **{
                            side: round(rs[0]["metrics"][args.metric]["value"], 4)
                            for side, rs in held.items()}}},
              "regressed": regressed(table, metrics),
              "workloads": table, "memory_guard": guard}
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
