"""The chunked table writer (``geometry._write_rows``) against
``np.savetxt`` on the ``certify_cli`` ``gen`` tables, and the paired
end-to-end runs of the ``certify_cli`` workload.

    PYTHONPATH=src python scripts/bench_table_writer.py
    PYTHONPATH=src python scripts/bench_table_writer.py --check
    PYTHONPATH=src python scripts/bench_table_writer.py --parent DIR --pairs 10

Every CSV file the CLI writes goes through ``save_points`` (``%.17g``) or
``save_ids`` (``%d``), which format a chunk of ``geometry._WRITE_CELLS``
cells with one ``%`` where ``np.savetxt`` formats and writes one row per
call. The table times both on the files ``gen`` writes for the workload's
recipe (4000 curve and 400 ambient points on a circle, sigma 0.02, 40000
reference points) at ``--seed``, median of ``ROUNDS``, and exits with an
error unless the two files are the same bytes.

``--check`` compares the writers' bytes with ``np.savetxt``'s on the edge
shapes and values: empty tables, rows of no columns, 1-D ids and values,
signed zeros, infinities, nan, subnormals, the ends of the double range, and
row counts one below, at and one above a chunk, and just over two chunks. It
exits 1 on any difference.

``--parent DIR`` (a checkout of the parent commit) adds the end-to-end
record: ``--pairs`` paired ``perfbench/run.py --workload certify_cli --trace
0`` runs, the side that runs first alternating; one pair at the hold-out seed
918273; one traced run per side at seed 7, for the time the set-up spends in
``geometry.save_points`` spans; and ``--other-pairs`` pairs of every other
workload.
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import statistics
import sys
import tempfile
import time

import numpy as np
import scipy

from declutter import geometry, load_ids, load_points, save_ids, save_points

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from bench_certify_prune import HOLDOUT_SEED, perfbench  # noqa: E402
from bench_tree_layout import paired_batch  # noqa: E402
from perfbench.workloads import WORKLOADS, CertifyCli  # noqa: E402

ROUNDS = 9
FMT = {save_points: "%.17g", save_ids: "%d"}


def savetxt_bytes(path: str, table, fmt: str) -> bytes:
    np.savetxt(path, table, fmt=fmt, delimiter=",")
    with open(path, "rb") as fh:
        return fh.read()


def written_bytes(path: str, writer, table) -> bytes:
    writer(path, table)
    with open(path, "rb") as fh:
        return fh.read()


def gen_tables(seed: int) -> dict:
    """The tables ``gen`` writes on the workload's recipe, read back."""
    with tempfile.TemporaryDirectory() as workdir:
        gen = CertifyCli().setup(seed, workdir)["gen"]
        return {"points.csv": (save_points, load_points(os.path.join(gen, "points.csv"))),
                "tags.csv": (save_ids, load_ids(os.path.join(gen, "tags.csv"), "tag")),
                "reference.csv": (save_points,
                                  load_points(os.path.join(gen, "reference.csv")))}


def time_writers(seed: int) -> list[dict]:
    rows = []
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "table.csv")
        for name, (writer, table) in gen_tables(seed).items():
            fmt = FMT[writer]
            if written_bytes(path, writer, table) != savetxt_bytes(path, table, fmt):
                raise SystemExit(f"{name}: {writer.__name__} bytes differ from np.savetxt")
            times = {"savetxt": [], "writer": []}
            for _ in range(ROUNDS):
                for side in times:
                    t0 = time.perf_counter()
                    if side == "savetxt":
                        np.savetxt(path, table, fmt=fmt, delimiter=",")
                    else:
                        writer(path, table)
                    times[side].append(time.perf_counter() - t0)
            savetxt_s = statistics.median(times["savetxt"])
            writer_s = statistics.median(times["writer"])
            rows.append({"table": name, "shape": list(table.shape), "format": fmt,
                         "bytes": os.path.getsize(path), "identical": True,
                         "savetxt_s": round(savetxt_s, 4),
                         "writer_s": round(writer_s, 4),
                         "speedup": round(savetxt_s / writer_s, 2)})
    return rows


def edge_tables() -> list[np.ndarray]:
    rng = np.random.default_rng(1)
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                         2.2250738585072009e-308, 1e-310, 1.7976931348623157e308,
                         -1.7976931348623157e308, 1.79e308, -1.8e307, 0.1])
    step = geometry._WRITE_CELLS
    tables = [np.zeros((0, 2)), np.zeros((0, 1)), np.zeros(0), np.zeros((1, 0)),
              np.zeros((3, 0)), specials, specials.reshape(-1, 2),
              specials.reshape(-1, 7)]
    for ncol in (1, 2, 3):
        for rows in (step // ncol - 1, step // ncol, step // ncol + 1):
            table = rng.normal(size=(rows, ncol)) * 10.0 ** rng.integers(-300, 300,
                                                                          (rows, ncol))
            table.flat[:specials.size] = specials
            tables.append(table)
    return tables


def edge_ids() -> list[np.ndarray]:
    step = geometry._WRITE_CELLS
    return [np.zeros(0, np.intp), np.array([0]), np.array([-3, 2**62, -2**62]),
            np.array([True, False]).astype(int), np.arange(step - 1),
            np.arange(step), np.arange(step + 1), np.arange(2 * step + 1)]


def check() -> int:
    """Number of tables compared; SystemExit on the first byte difference."""
    cases = ([(save_points, t) for t in edge_tables()]
             + [(save_ids, t) for t in edge_ids()])
    with tempfile.TemporaryDirectory() as workdir:
        mine, oracle = os.path.join(workdir, "mine.csv"), os.path.join(workdir, "np.csv")
        for writer, table in cases:
            if (written_bytes(mine, writer, table)
                    != savetxt_bytes(oracle, table, FMT[writer])):
                raise SystemExit(f"{writer.__name__} on shape {table.shape}: "
                                 "bytes differ from np.savetxt")
    return len(cases)


def setup_writes(checkout: str, seed: int) -> dict:
    """One traced run: the seconds and calls of ``geometry.save_points``
    spans in its set-up (job -1), and the set-up's own seconds."""
    perfbench(checkout, seed, 1)
    path = os.path.join(checkout, ".bench_out",
                        f"certify_cli-seed{seed}-trace1-spans.json.gz")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    setup = [s for s in spans if s[5] == -1]
    saves = [s[3] - s[2] for s in setup if s[:2] == ["geometry", "save_points"]]
    root = [s[3] - s[2] for s in setup if s[:2] == ["bench", "setup"]]
    return {"save_points_s": round(sum(saves), 4), "save_points_calls": len(saves),
            "setup_s": round(root[0], 4)}


def paired(parent: str, pairs: int, other_pairs: int, first_seed: int) -> dict:
    seeds = list(range(first_seed, first_seed + pairs))
    batch = paired_batch(parent, "certify_cli", seeds)
    parent_setup = batch["parent"]["metrics"]["setup_s"]
    change_setup = batch["change"]["metrics"]["setup_s"]
    won = sum(c < p for p, c in zip(parent_setup["runs"], change_setup["runs"]))
    holdout = paired_batch(parent, "certify_cli", [HOLDOUT_SEED])
    holdout_setup = {side: holdout[side]["metrics"]["setup_s"]["median"]
                     for side in ("parent", "change")}
    traced = {side: setup_writes(checkout, 7)
              for side, checkout in (("parent", parent), ("change", ROOT))}
    iqr = parent_setup["q3"] - parent_setup["q1"]
    other_seeds = list(range(first_seed + pairs, first_seed + pairs + other_pairs))
    return {"claim": {"metric": "setup_s", "workload": "certify_cli",
                      "parent_median": parent_setup["median"],
                      "change_median": change_setup["median"],
                      "parent_iqr": round(iqr, 4),
                      "pairs_won": f"{won}/{pairs}",
                      f"holdout_{HOLDOUT_SEED}_setup_s": holdout_setup,
                      "met": (won >= 0.9 * pairs
                              and parent_setup["median"] - change_setup["median"] > iqr
                              and holdout_setup["change"] < holdout_setup["parent"])},
            "traced_seed7_setup": traced,
            "paired_batch": batch,
            "holdout_batch": holdout,
            "other_workloads": {w: paired_batch(parent, w, other_seeds)
                                for w in sorted(WORKLOADS) if w != "certify_cli"}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--other-pairs", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=2001)
    args = parser.parse_args(argv)
    if args.check:
        print(f"save_points and save_ids write np.savetxt's bytes on {check()} tables")
        return 0
    record = {"machine": {"nproc": os.cpu_count(),
                          "python": platform.python_version(),
                          "numpy": np.__version__, "scipy": scipy.__version__,
                          "platform": platform.platform()}}
    if args.parent:
        # before the tables are timed: Linux carries a process's peak RSS
        # across exec, so no run started later could report one below theirs
        record.update(paired(os.path.abspath(args.parent), args.pairs,
                             args.other_pairs, args.first_seed))
    record.update({"rounds": ROUNDS, "seed": args.seed,
                   "write_cells": geometry._WRITE_CELLS,
                   "tables": time_writers(args.seed)})
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
