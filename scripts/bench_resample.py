"""Resampling's captured mask on the kd-tree path
(``NeighborIndex._captured``): the two-phase pass against the ball pass it
replaced, and the paired end-to-end runs of the ``fig2_parfree`` workload.

    PYTHONPATH=src python scripts/bench_resample.py
    PYTHONPATH=src python scripts/bench_resample.py --check
    PYTHONPATH=src python scripts/bench_resample.py --parent DIR --pairs 10

The ball pass (``ball_pass`` below, kept here as the timing reference) asks
the members' tree for every ball's candidates and decides each with a
canonical distance: about the sum of the ball sizes in candidates. The
two-phase pass first checks each member against its nearest ball centre and
walks balls only for the members that check leaves open. Shapes (seed 1):

- ``fig2_parfree``: every ``_captured`` call of one ``parfree`` run on the
  workload's cloud (3500 curve and 1000 ambient points), replayed;
- ``guard20k``: the same on the memory guard's fig2 recipe (16000 curve and
  4000 ambient points, ``scripts/parfree_memory_guard.py``);
- ``all_in_balls``: 300 centres whose balls each hold all of 10^4 uniform
  points in the unit square;
- ``small_c_0.5``, ``small_c_4``, ``small_c_12.8``: 8000 circle points
  (sigma 0.01) and 8000 uniform points in [-3, 3]^2, decluttered at k = 16,
  balls of C times the kept points' robust distances.

Each of ``ROUNDS`` rounds times both passes on every shape, the side that
runs first alternating, and the table reports per shape the median and
quartile milliseconds of each, their ratio of medians, the balls' member
count per member (``load``, what ``neighbors._ball_load`` estimates) and how
many members the nearest-centre check leaves open. Both passes must return
the same mask, or the script exits 1. The ``crossover`` table, which
``neighbors._CAPTURE_LOAD`` is read from, times the ball pass against the
two phases forced on (``_CAPTURE_LOAD = 0``) on the small-C cloud at C from
0.5 to 4, where the load passes from below to above 2 candidates per member.

``--check`` builds every shape at a tenth of its point counts (and the
``parfree`` calls of both recipes at seeds 1-3) and exits 1 unless the
mask equals the brute index's mask everywhere: at the load rule, and with
the nearest-centre check forced on and off.

``--parent DIR`` (a checkout of the parent commit) adds the end-to-end
record: ``--pairs`` paired ``perfbench/run.py --workload fig2_parfree
--trace 0`` runs, the side that runs first alternating; one pair at the
hold-out seed 918273; ``--other-pairs`` pairs of every other workload; and
one run of the memory guard per side.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import numpy as np
import scipy

from declutter import Metric, PointCloud, build_index, declutter, neighbors
from declutter.geometry import row_chunks
from declutter.neighbors import NeighborIndex
from declutter.synthgen import Circle, perturb_gaussian, sample_shape

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from bench_certify_prune import HOLDOUT_SEED  # noqa: E402
from bench_tree_layout import _recorded_balls, paired_batch  # noqa: E402
from parfree_memory_guard import recipe  # noqa: E402
from perfbench.workloads import WORKLOADS, Fig2Parfree  # noqa: E402

ROUNDS = 15
SEED = 1
SMALL_CS = (0.5, 4.0, 12.8)
CROSSOVER_CS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0)


def ball_pass(index: NeighborIndex, q: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """The captured mask from the members' tree alone: every ball's
    candidates, each decided by its canonical distance."""
    captured = np.zeros(index.cloud.n, dtype=bool)
    for sl in row_chunks(q.shape[0], index._ball_cells()):
        row, cand, d = index._ball_candidates(q[sl], radii[sl])
        captured[cand[d <= radii[sl][row]]] = True
    return captured


def load(index: NeighborIndex, q: np.ndarray, radii: np.ndarray) -> int:
    """Members of all the balls together (each counted once per ball)."""
    return int(index._tree.query_ball_point(q, radii, return_length=True).sum())


def with_load(value: float, index: NeighborIndex, q: np.ndarray,
              radii: np.ndarray) -> np.ndarray:
    """``_captured`` with ``neighbors._CAPTURE_LOAD`` set to ``value``."""
    saved, neighbors._CAPTURE_LOAD = neighbors._CAPTURE_LOAD, value
    try:
        return index._captured(q, radii)
    finally:
        neighbors._CAPTURE_LOAD = saved


def forced(index: NeighborIndex, q: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """``_captured`` with the nearest-centre check whatever the load."""
    return with_load(0, index, q, radii)


def two_phase(index: NeighborIndex, q: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """``_captured`` as the library runs it, at the load rule."""
    return index._captured(q, radii)


def nearest_open(index: NeighborIndex, q: np.ndarray, radii: np.ndarray) -> int:
    """Members whose nearest centre's ball misses them (brute count)."""
    near = build_index(PointCloud.from_coords(q), index.metric, "brute")._nearest_rows(
        index.cloud.points, 1)
    return int((near[0][:, 0] > radii[near[1][:, 0]]).sum())


def recorded(cloud: PointCloud) -> list:
    """(kd-tree index, centres, radii) of every ``_captured`` call of one
    Euclidean ``parfree`` run over the cloud."""
    return [(build_index(PointCloud.from_coords(m), Metric(), "kdtree"), q, r)
            for m, q, r in _recorded_balls(cloud)]


def small_c(scale: float, seed: int) -> tuple[NeighborIndex, np.ndarray, np.ndarray]:
    """(index, kept points, their robust values at k = 16) of the circle in
    a wide uniform box."""
    n = int(8000 * scale)
    noisy = perturb_gaussian(sample_shape(Circle((0.0, 0.0), 1.0), n, seed=None)[1],
                             0.01, seed)
    box = np.random.default_rng(seed + 1).uniform(-3.0, 3.0, size=(n, 2))
    cloud = PointCloud.from_coords(np.vstack([noisy, box]))
    result = declutter(cloud, Metric(), 16, strategy="kdtree")
    index = build_index(cloud, Metric(), "kdtree")
    return index, cloud.coords[result.kept], result.profile.values[result.kept]


def shapes(scale: float, seed: int) -> dict:
    """Per shape, its list of (kd-tree index, centres, radii) calls."""
    fig2 = Fig2Parfree(n_curve=int(3500 * scale), ambient=int(1000 * scale))
    pts = np.random.default_rng(seed).uniform(size=(int(10000 * scale), 2))
    table = {
        "fig2_parfree": recorded(fig2.setup(seed, None)["cloud"]),
        "guard20k": recorded(recipe(int(16000 * scale), int(4000 * scale))[0]),
        "all_in_balls": [(build_index(PointCloud.from_coords(pts), Metric(), "kdtree"),
                          pts[:max(1, int(300 * scale))],
                          np.full(max(1, int(300 * scale)), 2.0))],
    }
    index, kept, values = small_c(scale, seed)
    for c in SMALL_CS:
        table[f"small_c_{c:g}"] = [(index, kept, c * values)]
    return table


def check() -> int:
    """Masks compared; SystemExit on the first that differs from brute."""
    count = 0
    for seed in (1, 2, 3):
        for name, calls in shapes(0.1, seed).items():
            if seed > 1 and name not in ("fig2_parfree", "guard20k"):
                continue
            for i, (index, q, r) in enumerate(calls):
                want = build_index(index.cloud, index.metric, "brute")._captured(q, r)
                # the load rule, and the nearest-centre check forced on and off
                for load in (neighbors._CAPTURE_LOAD, 0, np.inf):
                    if not np.array_equal(with_load(load, index, q, r), want):
                        raise SystemExit(f"{name} seed {seed} call {i} load {load}: "
                                         "the mask differs from brute")
                    count += 1
    return count


def time_passes(table: dict, passes: dict) -> dict:
    """Per shape: milliseconds of each pass over ``ROUNDS`` rounds (the
    pass that runs first rotating) and the shape's figures; SystemExit when
    two passes return different masks."""
    times = {name: {side: [] for side in passes} for name in table}
    masks = {}
    for r in range(ROUNDS):
        for name, calls in table.items():
            for side in np.roll(list(passes), -r):
                t0 = time.perf_counter()
                out = [passes[side](index, q, radii) for index, q, radii in calls]
                times[name][side].append(1e3 * (time.perf_counter() - t0))
                masks.setdefault(name, out)
                if not all(np.array_equal(a, b) for a, b in zip(masks[name], out)):
                    raise SystemExit(f"{name}: {side} returns another mask")
        print(f"round {r + 1}/{ROUNDS}", file=sys.stderr, flush=True)
    rows = {}
    first, *rest = passes
    for name, calls in table.items():
        n = sum(index.cloud.n for index, _, _ in calls)
        row = {"calls": len(calls), "members": n,
               "centres": sum(q.shape[0] for _, q, _ in calls),
               "load_per_member": round(sum(load(*call) for call in calls) / n, 2),
               "nearest_check_open": sum(nearest_open(*call) for call in calls),
               "captured": sum(int(m.sum()) for m in masks[name])}
        for side in passes:
            q1, med, q3 = statistics.quantiles(times[name][side], n=4, method="inclusive")
            row[f"{side}_ms"] = {"median": round(med, 3), "q1": round(q1, 3),
                                 "q3": round(q3, 3)}
        for side in rest:
            row[f"{side}_over_{first}"] = round(
                row[f"{side}_ms"]["median"] / row[f"{first}_ms"]["median"], 3)
        rows[name] = row
    return rows


def guard(checkout: str) -> dict:
    """The memory guard's JSON line, run in ``checkout``."""
    out = subprocess.run(
        [sys.executable, os.path.join(checkout, "scripts", "parfree_memory_guard.py")],
        cwd=checkout, env={**os.environ, "PYTHONPATH": os.path.join(checkout, "src")},
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def paired(parent: str, pairs: int, other_pairs: int, first_seed: int) -> dict:
    seeds = list(range(first_seed, first_seed + pairs))
    batch = paired_batch(parent, "fig2_parfree", seeds)
    parent_job = batch["parent"]["metrics"]["job_s"]
    change_job = batch["change"]["metrics"]["job_s"]
    won = sum(c < p for p, c in zip(parent_job["runs"], change_job["runs"]))
    holdout = paired_batch(parent, "fig2_parfree", [HOLDOUT_SEED])
    holdout_job = {side: holdout[side]["metrics"]["job_s"]["median"]
                   for side in ("parent", "change")}
    iqr = parent_job["q3"] - parent_job["q1"]
    other_seeds = list(range(first_seed + pairs, first_seed + pairs + other_pairs))
    return {"claim": {"metric": "job_s", "workload": "fig2_parfree",
                      "parent_median": parent_job["median"],
                      "change_median": change_job["median"],
                      "parent_iqr": round(iqr, 4),
                      "pairs_won": f"{won}/{pairs}",
                      f"holdout_{HOLDOUT_SEED}_job_s": holdout_job,
                      "met": (won >= 0.9 * pairs
                              and parent_job["median"] - change_job["median"] > iqr
                              and holdout_job["change"] < holdout_job["parent"])},
            "paired_batch": batch,
            "holdout_batch": holdout,
            "other_workloads": {w: paired_batch(parent, w, other_seeds)
                                for w in sorted(WORKLOADS) if w != "fig2_parfree"},
            "memory_guard": {side: guard(checkout) for side, checkout
                             in (("parent", parent), ("change", ROOT))}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--other-pairs", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=2301)
    args = parser.parse_args(argv)
    if args.check:
        print(f"the kd-tree captured mask equals brute's on {check()} "
              "tenth-size calls")
        return 0
    record = {"machine": {"nproc": os.cpu_count(),
                          "python": platform.python_version(),
                          "numpy": np.__version__, "scipy": scipy.__version__,
                          "platform": platform.platform()}}
    if args.parent:
        # before the shapes are built: Linux carries a process's peak RSS
        # across exec, so no run started later could report one below theirs
        record.update(paired(os.path.abspath(args.parent), args.pairs,
                             args.other_pairs, args.first_seed))
    index, kept, values = small_c(1.0, SEED)
    crossover = {f"C={c:g}": [(index, kept, c * values)] for c in CROSSOVER_CS}
    record.update({"rounds": ROUNDS, "seed": SEED,
                   "capture_load": neighbors._CAPTURE_LOAD,
                   "capture_stride": neighbors._CAPTURE_STRIDE,
                   "shapes": time_passes(shapes(1.0, SEED), {"ball_pass": ball_pass,
                                                            "two_phase": two_phase}),
                   "crossover": time_passes(crossover, {"ball_pass": ball_pass,
                                                        "forced": forced})})
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
