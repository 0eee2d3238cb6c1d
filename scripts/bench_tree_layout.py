"""kd-tree layouts on the query shapes the library runs, the table the
layout of every ``NeighborIndex`` tree (``neighbors._TREE_LAYOUT``) is read
from, and the paired end-to-end runs of the ``fig2_parfree`` workload.

    PYTHONPATH=src python scripts/bench_tree_layout.py
    PYTHONPATH=src python scripts/bench_tree_layout.py --check
    PYTHONPATH=src python scripts/bench_tree_layout.py --parent DIR --pairs 10

Every ``cKDTree`` layout in the grid leafsize {8, 16, 32, 64} x
``compact_nodes`` x ``balanced_tree`` answers each query shape through the
library's own path (the tree swapped into a copy of a kd-tree index), and
the answer must be the brute index's bytes. The torus self rows and the
Gaussian shapes take the tree path whatever the crossover rule picks.
Shapes (seed 1):

- ``far_nn1``, ``far_nn2``: the first clearance draw of the ``fig2_parfree``
  recipe (4000 points in the padded box) into its 35000-point reference, at
  k = 1 and 2;
- ``cond2``: the ``certify_cli`` cloud (4000 curve and 400 ambient points)
  at k = 2 into its 40000-point reference (certification's cond2);
- ``torus_outliers``: the first clearance draw of ``repro fig5`` (1600
  points) into its 9600-point torus reference, at k = 1;
- ``circle20k_self_k16``: self k-NN rows of the ``circle20k_k16`` cloud at
  k = 16 on 2 threads;
- ``certify_self_k33``: self k-NN rows of the ``certify_cli`` cloud at k = 33;
- ``hausdorff``: the 40000 reference points at k = 1 into the points
  ``declutter`` keeps at k = 16 on the ``certify_cli`` cloud;
- ``fig2_captured``: the resampling balls (``_captured``) of every round of
  ``parfree`` on the ``fig2_parfree`` cloud, replayed. When the balls hold
  many members, ``_captured`` checks each member against its nearest ball
  centre first, from a tree of its own over the centres, and walks the
  balls only for the members that check leaves open, over a tree of those
  members. The member tree with the layout under test now serves only the
  ball walk of rounds whose balls hold few members (or whose check leaves
  most members open), and counts the balls' members;
- ``torus_self_k17``, ``torus_self_k65``: self k-NN rows of the ``repro
  fig5`` cloud (2400 points in 3-D);
- ``gauss9_nearest``: 2000 standard Gaussian points at k = 1 into 8192
  others in 9-D, as ``nearest_cross`` and Hausdorff distances query 9-D
  inputs (the rule gives the tree k = 1 from 8192 points on);
- ``gauss5_self_k8``: self k-NN rows of 4096 standard Gaussian points in
  5-D at k = 8, the largest k the rule gives the tree there;
- ``build_35k``, ``build_40k``: tree builds over the fig2 and certify
  references.

The first four are the outlier shapes: query points far from a dense
sample. Each of ``ROUNDS`` rounds times every layout once on every shape,
and a layout's figure on a shape is its median over rounds of its time over
the time of scipy's default layout (leafsize 16, compact and balanced) in
the same round. A layout wins a shape when that figure is below 1, and
loses one when it is above 1 + ``TOLERANCE``. Each round also times the
default layout a second time, as a control: its figure shows how far
timing noise alone moves a shape. The pick is the layout that wins every outlier shape
and loses none, with the least summed time on the outlier shapes.

``--check`` runs every layout at a tenth of the point counts and exits 1 on
any byte difference from brute.

``--parent DIR`` (a checkout of the parent commit) adds the end-to-end
record: ``--pairs`` paired ``perfbench/run.py --workload fig2_parfree
--trace 0`` runs, the side that runs first alternating; one pair at the
hold-out seed 918273; one traced run per side at seed 7 (for
``synthgen.generate_s``); and ``--other-pairs`` pairs of every other
workload.
"""
from __future__ import annotations

import argparse
import copy
import itertools
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np
import scipy
from scipy.spatial import cKDTree

from declutter import Metric, PointCloud, build_index, declutter, parfree_declutter
from declutter.neighbors import NeighborIndex
from declutter.synthgen import (
    Polyline,
    perturb_gaussian,
    sample_shape,
    torus_grid,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from bench_certify_prune import HOLDOUT_SEED, perfbench, summary  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    CertifyCli,
    Circle20kK16,
    Fig2Parfree,
    _superellipse,
)

LAYOUTS = [{"leafsize": leaf, "compact_nodes": compact, "balanced_tree": balanced}
           for leaf, compact, balanced in itertools.product(
               (8, 16, 32, 64), (True, False), (True, False))]
DEFAULT = {"leafsize": 16, "compact_nodes": True, "balanced_tree": True}
OUTLIER_SHAPES = ("far_nn1", "far_nn2", "cond2", "torus_outliers")
# twice the largest move of the control on any shape (0.052 on a 2-core
# machine), so that timing noise alone makes no layout lose
TOLERANCE = 0.10
ROUNDS = 15
SEED = 1
EUCLIDEAN = Metric()


def _clearance_draw(curve_pts: np.ndarray, pad: float, m: int, seed: int):
    """The first draw of ``add_ambient_noise``'s clearance loop for m
    ambient points: 4m points in the padded box."""
    lo, hi = curve_pts.min(axis=0), curve_pts.max(axis=0)
    return np.random.default_rng(seed).uniform(lo - pad, hi + pad,
                                               size=(4 * m, lo.shape[0]))


def _gen(scale: float):
    """(cloud, reference) coordinates of the ``certify_cli`` recipe."""
    params = {"n_curve": int(4000 * scale), "ambient": int(400 * scale)}
    with tempfile.TemporaryDirectory() as workdir:
        gen = CertifyCli(**params).setup(SEED, workdir)["gen"]
        return tuple(np.loadtxt(os.path.join(gen, name), delimiter=",")
                     for name in ("points.csv", "reference.csv"))


def _recorded_balls(cloud: PointCloud) -> list:
    """(members, ball centres, radii) of every ``_captured`` call of one
    ``parfree`` run over the cloud."""
    calls = []
    real = NeighborIndex._captured

    def record(self, q, radii):
        calls.append((self.cloud.coords, q.copy(), radii.copy()))
        return real(self, q, radii)

    NeighborIndex._captured = record
    try:
        parfree_declutter(cloud, EUCLIDEAN)
    finally:
        NeighborIndex._captured = real
    return calls


class Rows:
    """k-NN rows (distances and ids) of queries into members."""

    def __init__(self, members, queries, k, threads=1, rule_free=False):
        self.index = build_index(PointCloud.from_coords(members), EUCLIDEAN, "kdtree")
        self.brute = build_index(self.index.cloud, EUCLIDEAN, "brute")
        self.queries, self.k, self.threads = queries, k, threads
        self.rule_free = rule_free

    def answer(self, index):
        if self.rule_free:  # the tree path whether or not the rule picks it
            return index._tree_rows(self.queries, self.k, self.threads)
        return index._nearest_rows(self.queries, self.k, self.threads)

    def run(self, layout):
        return self.answer(_with_tree(self.index, layout))

    def want(self):
        return self.brute._nearest_rows(self.queries, self.k, self.threads)


class Balls:
    """``_captured`` masks of recorded resampling rounds."""

    def __init__(self, calls):
        self.calls = calls
        self.indexes = [build_index(PointCloud.from_coords(m), EUCLIDEAN, "kdtree")
                        for m, _, _ in calls]
        self.trees = {}

    def prepare(self, layout):
        key = tuple(layout.values())
        if key not in self.trees:
            self.trees[key] = [_with_tree(i, layout) for i in self.indexes]
        return self.trees[key]

    def run(self, layout):
        return [index._captured(q, r) for index, (_, q, r)
                in zip(self.prepare(layout), self.calls)]

    def want(self):
        return [build_index(i.cloud, EUCLIDEAN, "brute")._captured(q, r)
                for i, (_, q, r) in zip(self.indexes, self.calls)]


class Build:
    """A tree build, which answers nothing to check."""

    def __init__(self, members):
        self.members = members

    def run(self, layout):
        return cKDTree(self.members, **layout)


def _with_tree(index: NeighborIndex, layout: dict) -> NeighborIndex:
    """A copy of a kd-tree index whose tree has the given layout."""
    other = copy.copy(index)
    other._tree = cKDTree(index.cloud.coords, **layout)
    return other


def shapes(scale: float) -> dict:
    """Every query shape, at ``scale`` times the recipes' point counts."""
    fig2 = Fig2Parfree(n_curve=int(3500 * scale), ambient=int(1000 * scale))
    kref, sample = sample_shape(Polyline(_superellipse(), closed=True),
                                fig2.params["n_curve"], seed=None)
    noisy = perturb_gaussian(sample, fig2.params["sigma"], SEED)
    draws = _clearance_draw(noisy, fig2.params["box_pad"], fig2.params["ambient"],
                            SEED + 1)
    cloud, ref = _gen(scale)
    kept = cloud[declutter(PointCloud.from_coords(cloud), EUCLIDEAN, 16).kept_ids]
    circle = Circle20kK16(n_curve=int(20000 * scale), ambient=int(2000 * scale))
    circle_pts = circle.setup(SEED, None)["cloud"].coords
    torus_n, torus_m = int(2000 * scale), int(400 * scale)
    torus_ref, torus_sample = sample_shape(torus_grid(2.0, 0.6, nu=160, nv=60),
                                           torus_n)
    torus_noisy = perturb_gaussian(torus_sample, 0.03, SEED)
    torus_pad = 0.3 * float(np.ptp(torus_noisy, axis=0).max())
    torus_draws = _clearance_draw(torus_noisy, torus_pad, torus_m, SEED + 1)
    torus_cloud = np.vstack([torus_noisy, torus_draws])
    fig2_cloud = fig2.setup(SEED, None)["cloud"]
    rng = np.random.default_rng(SEED)
    gauss9, gauss9_q = rng.normal(size=(int(8192 * scale), 9)), rng.normal(
        size=(int(2000 * scale), 9))
    gauss5 = rng.normal(size=(int(4096 * scale), 5))
    return {
        "far_nn1": Rows(kref.points, draws, 1),
        "far_nn2": Rows(kref.points, draws, 2),
        "cond2": Rows(ref, cloud, 2),
        "torus_outliers": Rows(torus_ref.points, torus_draws, 1),
        "circle20k_self_k16": Rows(circle_pts, circle_pts, 16, threads=2),
        "certify_self_k33": Rows(cloud, cloud, 33),
        "hausdorff": Rows(kept, ref, 1),
        "fig2_captured": Balls(_recorded_balls(fig2_cloud)),
        "torus_self_k17": Rows(torus_cloud, torus_cloud, 17, rule_free=True),
        "torus_self_k65": Rows(torus_cloud, torus_cloud, 65, rule_free=True),
        "gauss9_nearest": Rows(gauss9, gauss9_q, 1, rule_free=True),
        "gauss5_self_k8": Rows(gauss5, gauss5, 8, rule_free=True),
        "build_35k": Build(kref.points),
        "build_40k": Build(ref),
    }


def _bytes(answer) -> list[bytes]:
    if isinstance(answer, (tuple, list)):
        return [b for part in answer for b in _bytes(part)]
    return [np.ascontiguousarray(answer).tobytes()]


def check_layouts(table: dict) -> None:
    """Exit 1 unless every layout answers every query shape with brute's
    bytes."""
    for name, shape in table.items():
        if isinstance(shape, Build):
            continue
        want = _bytes(shape.want())
        for layout in LAYOUTS:
            if _bytes(shape.run(layout)) != want:
                sys.exit(f"{name}: layout {layout} differs from brute")
        print(f"{name}: every layout equals brute", file=sys.stderr, flush=True)


def time_layouts(table: dict) -> dict:
    """Seconds per shape, round and layout: each round times every layout
    once per shape, starting at a layout one further along each round."""
    timed = LAYOUTS + [DEFAULT]  # the last column is the control
    times = {name: np.empty((ROUNDS, len(timed))) for name in table}
    for shape in table.values():
        if isinstance(shape, Balls):
            for layout in LAYOUTS:
                shape.prepare(layout)
    for r in range(ROUNDS):
        for name, shape in table.items():
            for j in np.roll(np.arange(len(timed)), -r):
                if isinstance(shape, Rows):
                    index = _with_tree(shape.index, timed[j])
                    t0 = time.perf_counter()
                    shape.answer(index)
                else:
                    t0 = time.perf_counter()
                    shape.run(timed[j])
                times[name][r, j] = time.perf_counter() - t0
        print(f"round {r + 1}/{ROUNDS}", file=sys.stderr, flush=True)
    return times


def grid_record(times: dict) -> dict:
    """Per layout: its best seconds per shape, and its median over rounds of
    the ratio to the default layout's seconds in the same round."""
    base = LAYOUTS.index(DEFAULT)

    def over_default(j):
        return {name: round(float(np.median(t[:, j] / t[:, base])), 3)
                for name, t in times.items()}

    rows, qualified = [], []
    for j, layout in enumerate(LAYOUTS):
        ratio = over_default(j)
        wins = all(ratio[name] < 1.0 for name in OUTLIER_SHAPES)
        loses = sorted(name for name, x in ratio.items() if x > 1.0 + TOLERANCE)
        outlier_s = sum(float(times[name][:, j].min()) for name in OUTLIER_SHAPES)
        rows.append({**layout, "wins_outlier_shapes": wins, "loses_on": loses,
                     "outlier_s": round(outlier_s, 5),
                     "best_s": {name: round(float(t[:, j].min()), 5)
                                for name, t in times.items()},
                     "over_default": ratio})
        if wins and not loses:
            qualified.append((outlier_s, j))
    pick = LAYOUTS[min(qualified)[1]] if qualified else None
    return {"default": DEFAULT, "outlier_shapes": list(OUTLIER_SHAPES),
            "tolerance": TOLERANCE, "rounds": ROUNDS, "seed": SEED,
            "pick": pick, "control_over_default": over_default(len(LAYOUTS)),
            "layouts": rows}


def paired_batch(parent: str, workload: str, seeds: list[int]) -> dict:
    sides = {"parent": parent, "change": ROOT}
    runs = {"parent": [], "change": []}
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(perfbench(sides[side], seed, 0, workload))
        print(f"{workload} pair {i + 1}/{len(seeds)}", file=sys.stderr, flush=True)
    return {side: {"seeds": seeds, **summary(r)} for side, r in runs.items()}


def paired(parent: str, pairs: int, other_pairs: int, first_seed: int) -> dict:
    seeds = list(range(first_seed, first_seed + pairs))
    batch = paired_batch(parent, "fig2_parfree", seeds)
    parent_setup = batch["parent"]["metrics"]["setup_s"]
    change_setup = batch["change"]["metrics"]["setup_s"]
    won = sum(c < p for p, c in zip(parent_setup["runs"], change_setup["runs"]))
    holdout = paired_batch(parent, "fig2_parfree", [HOLDOUT_SEED])
    traced = {side: {"synthgen.generate_s": perfbench(
        checkout, 7, 1, "fig2_parfree")["metrics"]["synthgen.generate_s"]}
        for side, checkout in (("parent", parent), ("change", ROOT))}
    iqr = parent_setup["q3"] - parent_setup["q1"]
    holdout_setup = {side: holdout[side]["metrics"]["setup_s"]["median"]
                     for side in ("parent", "change")}
    other_seeds = list(range(first_seed + pairs, first_seed + pairs + other_pairs))
    return {"claim": {"metric": "setup_s", "workload": "fig2_parfree",
                      "parent_median": parent_setup["median"],
                      "change_median": change_setup["median"],
                      "parent_iqr": round(iqr, 4),
                      "pairs_won": f"{won}/{pairs}",
                      f"holdout_{HOLDOUT_SEED}_setup_s": holdout_setup,
                      "met": (won >= 0.9 * pairs
                              and parent_setup["median"] - change_setup["median"] > iqr
                              and holdout_setup["change"] < holdout_setup["parent"])},
            "traced_seed7": traced,
            "paired_batch": batch,
            "holdout_batch": holdout,
            "other_workloads": {w: paired_batch(parent, w, other_seeds)
                                for w in sorted(WORKLOADS) if w != "fig2_parfree"}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--other-pairs", type=int, default=3)
    parser.add_argument("--first-seed", type=int, default=1901)
    args = parser.parse_args(argv)
    if args.check:
        table = shapes(0.1)
        check_layouts(table)
        print(f"{len(LAYOUTS)} layouts equal brute on {len(table)} query shapes")
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
    table = shapes(1.0)
    check_layouts(table)
    record["grid"] = grid_record(time_layouts(table))
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
