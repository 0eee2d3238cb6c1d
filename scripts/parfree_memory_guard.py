"""Peak memory of one parameter-free run on the fig2 recipe at scale.

    PYTHONPATH=src python scripts/parfree_memory_guard.py [--n-curve N] [--ambient M]

Builds the fig2 recipe (the ``repro fig2`` rounded square sampled with
Gaussian noise of sigma 0.01, plus uniform ambient points at clearance 5 in
a box padded by 7; seed 1), runs ``parfree_declutter`` with the theoretical
resampling constant on the kd-tree path with 2 threads, and prints one JSON
line with the run time, the process's own peak resident memory and the
output size. Exits 1 when the peak reaches 400 MB or an ambient point survives.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import numpy as np

from declutter import Metric, PointCloud, parfree_declutter
from declutter import add_ambient_noise, perturb_gaussian, sample_shape
from declutter.cli import _rounded_square

SEED = 1
THREADS = 2
LIMIT_MB = 400.0


def recipe(n_curve: int, ambient: int, seed: int = SEED) -> tuple[PointCloud, np.ndarray]:
    """(cloud, ambient tags) of the fig2 recipe at these point counts."""
    kref, sample = sample_shape(_rounded_square(1.0), n_curve, seed=None)
    noisy = perturb_gaussian(sample, 0.01, seed)
    lo, hi = noisy.min(axis=0), noisy.max(axis=0)
    pts, tags = add_ambient_noise(noisy, (lo - 7.0, hi + 7.0), ambient, seed + 1,
                                  min_clearance=5.0, clearance_points=kref.points)
    return PointCloud.from_coords(pts), tags


def peak_rss_mb() -> float:
    """This process's peak resident memory in MB: ``VmHWM`` from
    ``/proc/self/status``, which belongs to this process's own address space,
    or ``ru_maxrss`` where that file is absent. Linux carries ``ru_maxrss``
    across ``execve``, so it can hold the peak of the process that started
    this one."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-curve", type=int, default=16000)
    ap.add_argument("--ambient", type=int, default=4000)
    args = ap.parse_args(argv)
    cloud, tags = recipe(args.n_curve, args.ambient)
    start = time.perf_counter()
    ids, trace = parfree_declutter(cloud, Metric(), strategy="kdtree", threads=THREADS)
    job_s = time.perf_counter() - start
    peak_mb = peak_rss_mb()
    survivors = int(tags[ids].sum())
    print(json.dumps({"n": cloud.n, "threads": THREADS, "job_s": round(job_s, 3),
                      "peak_rss_mb": round(peak_mb, 1), "n_final": int(ids.size),
                      "rounds": len(trace.iterations),
                      "surviving_ambient": survivors}))
    if peak_mb >= LIMIT_MB:
        print(f"peak RSS {peak_mb:.1f} MB reaches the {LIMIT_MB:g} MB limit",
              file=sys.stderr)
        return 1
    if survivors:
        print(f"{survivors} ambient points survived", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
