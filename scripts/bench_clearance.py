"""The clearance sampler (``synthgen.add_ambient_noise`` with a positive
``min_clearance``) against plain rejection sampling, and the paired
end-to-end runs of the ``fig2_parfree`` workload.

    PYTHONPATH=src python scripts/bench_clearance.py --check
    PYTHONPATH=src python scripts/bench_clearance.py --parent DIR --pairs 10

The sampler tests each draw of its rejection loop in chunks, by one bounded
query per chunk (``NeighborIndex._clear_of``), and stops at the m-th
accepted point. The plain sampler here tests every draw in full with
``cdist``, as the sampler did before. Recipes, each through its own set-up
code with the sampler's arguments recorded:

- ``fig2``: the ``fig2_parfree`` workload (a rounded square, 3500 points,
  sigma 0.01, 1000 ambient points at clearance 5 in a box padded by 7);
- ``matrix3600``: the ``matrix3600_parfree`` workload (a circle, 3000
  points, sigma 0.02, 600 ambient points at clearance 0.2, pad 0.6);
- ``torus``: ``repro fig5`` (a 160 x 60 torus grid, 2000 points, sigma
  0.03, 400 ambient points at clearance 0.5 in 3-D).

``--check`` runs every recipe at a tenth of its point counts at seeds 1-5
and exits 1 unless the sampler's points are the plain sampler's bytes.

``--parent DIR`` (a checkout of the parent commit) writes the record:
a table of the sampler's median time per full-size recipe at seed 1 in
each checkout, with a digest of its output; ``fingerprint_inputs`` of the
``fig2_parfree`` and ``matrix3600_parfree`` workloads at seeds 1-10 in each
checkout; ``--pairs`` paired ``perfbench/run.py --workload fig2_parfree
--trace 0`` runs, the side that runs first alternating; one pair at the
hold-out seed 918273; one traced run per side at seed 7 (for
``synthgen.generate_s``); and ``--other-pairs`` pairs of every other
workload. It prints one JSON document.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from unittest import mock

import numpy as np
import scipy
from scipy.spatial.distance import cdist

from declutter import synthgen

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
from bench_certify_prune import HOLDOUT_SEED, perfbench  # noqa: E402
from bench_tree_layout import paired_batch  # noqa: E402
from perfbench.workloads import WORKLOADS, Fig2Parfree, Matrix3600Parfree  # noqa: E402

ROUNDS = 7
CHECK_SEEDS = range(1, 6)
FINGERPRINT_SEEDS = range(1, 11)


def _recorded(setup) -> tuple:
    """The arguments of the one ``add_ambient_noise`` call ``setup()`` makes."""
    calls = []
    real = synthgen.add_ambient_noise

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    with mock.patch.object(synthgen, "add_ambient_noise", record):
        setup()
    (args, kwargs), = calls
    return args, kwargs


def _torus(seed: int, scale: float) -> tuple:
    """The sampler's arguments in ``repro fig5`` (``cli._repro_pipeline``)."""
    shape = synthgen.torus_grid(2.0, 0.6, nu=160, nv=60)
    kref, sample = synthgen.sample_shape(shape, int(2000 * scale), seed=None)
    noisy = synthgen.perturb_gaussian(sample, 0.03, seed)
    lo, hi = noisy.min(axis=0), noisy.max(axis=0)
    pad = 0.3 * float((hi - lo).max())
    return ((noisy, (lo - pad, hi + pad), int(400 * scale), seed + 1),
            {"min_clearance": 0.5, "clearance_points": kref.points})


def recipes(seed: int, scale: float) -> dict:
    """Per recipe, the (args, kwargs) its set-up passes to the sampler."""
    with tempfile.TemporaryDirectory() as workdir:
        out = {}
        for name, cls, size in (("fig2", Fig2Parfree, (3500, 1000)),
                                ("matrix3600", Matrix3600Parfree, (3000, 600))):
            workload = cls(n_curve=int(size[0] * scale), ambient=int(size[1] * scale))
            out[name] = _recorded(lambda: workload.setup(seed, workdir))
        out["torus"] = _torus(seed, scale)
    return out


def plain(points, box, m, seed, min_clearance, clearance_points):
    """Rejection sampling that tests every draw in full with ``cdist``."""
    lo, hi = (np.asarray(b, dtype=np.float64) for b in box)
    rng = np.random.default_rng(seed)
    accepted, total = [], 0
    while total < m:
        draw = rng.uniform(lo, hi, size=(max(m, 4 * (m - total)), lo.shape[0]))
        draw = draw[cdist(draw, clearance_points).min(axis=1) >= min_clearance]
        accepted.append(draw)
        total += draw.shape[0]
    return np.vstack([points, *accepted])[:points.shape[0] + m]


def check() -> int:
    """Number of sampler calls compared; SystemExit on the first difference."""
    count = 0
    for seed in CHECK_SEEDS:
        for name, (args, kwargs) in recipes(seed, 0.1).items():
            got = synthgen.add_ambient_noise(*args, **kwargs)[0]
            if got.tobytes() != plain(*args, **kwargs).tobytes():
                raise SystemExit(f"{name} at seed {seed}: the sampler's points "
                                 "differ from plain rejection sampling")
            count += 1
    return count


def probe() -> dict:
    """In the checkout whose ``src`` is imported: the sampler's median time
    and output digest per full-size recipe at seed 1, and the workloads'
    input fingerprints at ``FINGERPRINT_SEEDS``."""
    times = {}
    for name, (args, kwargs) in recipes(1, 1.0).items():
        runs = []
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            points = synthgen.add_ambient_noise(*args, **kwargs)[0]
            runs.append(time.perf_counter() - t0)
        times[name] = {"median_s": round(statistics.median(runs), 4),
                       "digest": hashlib.blake2b(points.tobytes(),
                                                 digest_size=16).hexdigest()}
    fingerprints = {}
    with tempfile.TemporaryDirectory() as workdir:
        for cls in (Fig2Parfree, Matrix3600Parfree):
            workload = cls()
            fingerprints[cls.name] = [
                workload.fingerprint_inputs(workload.setup(seed, workdir))
                for seed in FINGERPRINT_SEEDS]
    return {"library": synthgen.__file__, "sampler": times,
            "fingerprint_inputs": fingerprints}


def probe_in(checkout: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    out = subprocess.run([sys.executable, os.path.abspath(__file__), "--probe"],
                         cwd=checkout, env=env, check=True, capture_output=True,
                         text=True).stdout
    result = json.loads(out)
    if not result["library"].startswith(os.path.join(checkout, "src", "")):
        raise SystemExit(f"probe of {checkout} imported {result['library']}")
    return result


def sampler_record(parent: str) -> dict:
    sides = {side: probe_in(checkout)
             for side, checkout in (("parent", parent), ("change", ROOT))}
    table = [{"recipe": name, "parent_s": sides["parent"]["sampler"][name]["median_s"],
              "change_s": sides["change"]["sampler"][name]["median_s"],
              "identical": (sides["parent"]["sampler"][name]["digest"]
                            == sides["change"]["sampler"][name]["digest"])}
             for name in sides["change"]["sampler"]]
    inputs = {name: {"seeds": list(FINGERPRINT_SEEDS),
                     "identical": sides["parent"]["fingerprint_inputs"][name] == fps}
              for name, fps in sides["change"]["fingerprint_inputs"].items()}
    return {"sampler_seed1": table, "fingerprint_inputs": inputs}


def paired(parent: str, pairs: int, other_pairs: int, first_seed: int) -> dict:
    seeds = list(range(first_seed, first_seed + pairs))
    batch = paired_batch(parent, "fig2_parfree", seeds)
    parent_setup = batch["parent"]["metrics"]["setup_s"]
    change_setup = batch["change"]["metrics"]["setup_s"]
    won = sum(c < p for p, c in zip(parent_setup["runs"], change_setup["runs"]))
    holdout = paired_batch(parent, "fig2_parfree", [HOLDOUT_SEED])
    holdout_setup = {side: holdout[side]["metrics"]["setup_s"]["median"]
                     for side in ("parent", "change")}
    traced = {side: {"synthgen.generate_s": perfbench(
        checkout, 7, 1, "fig2_parfree")["metrics"]["synthgen.generate_s"]}
        for side, checkout in (("parent", parent), ("change", ROOT))}
    iqr = parent_setup["q3"] - parent_setup["q1"]
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
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--parent", help="checkout of the parent commit")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--other-pairs", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=2101)
    args = parser.parse_args(argv)
    if args.check:
        print(f"the clearance sampler writes plain rejection sampling's bytes "
              f"on {check()} recipe and seed pairs")
        return 0
    if args.probe:
        print(json.dumps(probe()))
        return 0
    if not args.parent:
        parser.error("--parent DIR or --check is required")
    parent = os.path.abspath(args.parent)
    record = {"machine": {"nproc": os.cpu_count(),
                          "python": platform.python_version(),
                          "numpy": np.__version__, "scipy": scipy.__version__,
                          "platform": platform.platform()}}
    # the runs first: Linux carries a process's peak RSS across exec, so no
    # run started after the probes could report one below theirs
    record.update(paired(parent, args.pairs, args.other_pairs, args.first_seed))
    record.update(sampler_record(parent))
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
