"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload fig2_parfree --seed 1 --seconds 15 --trace 0

The library is imported from ``src/`` of the checkout that holds this file;
the run fails without printing a result when it is missing. BLAS and OpenMP
pools are pinned to one thread, so each workload's ``threads`` argument is
the only source of parallelism.

With ``--trace 0`` the run measures the end-to-end metrics: set-up is
repeated and its median reported, the oracle runs untimed, then jobs run
back to back until ``--seconds`` have passed. With ``--trace 1`` traced and
untraced jobs alternate and the per-layer metrics are reported. Every job's
output is checked against the oracle and against the first job's output.
The last line of standard output is the result object; the line before it
records the machine. Spans of traced runs and a copy of the result go to
``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import os

_POOL_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in _POOL_VARS:  # before numpy is imported anywhere
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# set-up is short next to a job, so it is repeated, at least this many times
# and for at least this long, for a steady median
SETUP_REPEATS = 5
SETUP_MIN_S = 1.0


def _load_library():
    """Import ``declutter`` from this checkout's ``src/``, never elsewhere."""
    init = os.path.join(SRC, "declutter", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: {init} not found; run from a checkout of the repository")
    sys.path.insert(0, SRC)
    import declutter
    if os.path.abspath(declutter.__file__) != init:
        sys.exit(f"error: imported declutter from {declutter.__file__}, not {init}")
    return declutter


def _metric_specs() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def _machine(threads: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(),
            "workload_threads": threads,
            "pinned_pools": {v: os.environ[v] for v in _POOL_VARS}}


def _steal_s() -> float:
    """Seconds the hypervisor kept this machine's CPUs from running, since
    boot and summed over CPUs (0 where the kernel does not report it)."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0


class Run:
    """Jobs of one workload, checked as they complete."""

    def __init__(self, workload, state, expected):
        self.workload = workload
        self.state = state
        self.expected = expected
        self.first_fingerprint = None
        self.attempted = 0
        self.failed = 0

    def job(self, around=contextlib.nullcontext) -> tuple[float, float]:
        """Run and check one job inside ``around()``; returns (wall seconds,
        CPU seconds)."""
        self.attempted += 1
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            with around():
                output = self.workload.job(self.state)
        except Exception:  # a failed job is counted, and the run goes on
            traceback.print_exc(file=sys.stderr)
            output = None
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
        if output is None:
            self.failed += 1
        else:
            self._check(output)
        return wall, cpu

    def _check(self, output) -> None:
        from workloads import CheckFailed
        try:
            self.workload.check(self.state, output, self.expected)
            fingerprint = self.workload.fingerprint(output)
            if self.first_fingerprint is None:
                self.first_fingerprint = fingerprint
            elif fingerprint != self.first_fingerprint:
                raise CheckFailed("output differs from the run's first job")
        except CheckFailed as exc:
            print(f"check failed: {exc}", file=sys.stderr)
            self.failed += 1


def _another_job(walls: list[float], start: float, seconds: float) -> bool:
    """Start a job while a median job would end within ``seconds``; the
    first job always runs."""
    if not walls:
        return True
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def _setup(workload, seed: int, workdir: str, repeats: int, min_s: float = 0.0):
    """Repeat set-up; returns (state, median seconds, deterministic?)."""
    times, digests, state = [], set(), None
    while len(times) < repeats or sum(times) < min_s:
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        times.append(time.perf_counter() - t0)
        digests.add(workload.fingerprint_inputs(state))
    return state, statistics.median(times), len(digests) == 1


def measure(workload, seed: int, seconds: float, workdir: str) -> dict:
    """End-to-end run: the metrics and the job tallies."""
    state, setup_s, deterministic = _setup(workload, seed, workdir, SETUP_REPEATS,
                                            SETUP_MIN_S)
    run = Run(workload, state, workload.oracle(state))
    walls, cpus, steals = [], [], []
    start = time.perf_counter()
    while _another_job(walls, start, seconds):
        steal0 = _steal_s()
        wall, cpu = run.job()
        steals.append(_steal_s() - steal0)
        walls.append(wall)
        cpus.append(cpu)
    metrics = {
        "job_s": statistics.median(walls),
        "points_per_s": workload.points(state) / statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {"metrics": metrics, "attempted": run.attempted, "failed": run.failed,
            "correct": deterministic and run.failed == 0,
            "jobs": len(walls), "job_walls": walls, "job_cpus": cpus,
            "job_host_steal_s": steals}


def measure_traced(workload, seed: int, seconds: float, workdir: str,
                   tracer_obj) -> dict:
    """Traced run: untraced and traced jobs alternate, first one untraced."""
    from tracer import BENCH_LAYER, JobProfile, layer_metrics
    with tracer_obj.instrument(), tracer_obj.span(BENCH_LAYER, "setup", -1):
        state = workload.setup(seed, workdir)
    generate_s = JobProfile(tracer_obj.spans, -1).incl("synthgen")
    run = Run(workload, state, workload.oracle(state))
    plain, traced, per_job = [], [], []
    start = time.perf_counter()
    while not traced or _another_job(plain + traced, start, seconds):
        if len(plain) <= len(traced):
            plain.append(run.job()[0])
            continue
        job_id = len(traced)
        with tracer_obj.instrument():
            traced.append(run.job(lambda: tracer_obj.span(BENCH_LAYER, "job", job_id))[0])
        profile = JobProfile(tracer_obj.spans, job_id)
        values = layer_metrics(profile)
        values["layer_self_sum_s"] = sum(t for layer, t in profile.self_by_layer.items()
                                         if layer != BENCH_LAYER)
        values["traced_wall_s"] = traced[-1]
        per_job.append(values)
    metrics = {name: statistics.median(job[name] for job in per_job)
               for name in per_job[0]}
    metrics["synthgen.generate_s"] = generate_s
    metrics["cli.bytes_written"] = workload.bytes_written(state)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {"metrics": metrics, "attempted": run.attempted, "failed": run.failed,
            "correct": run.failed == 0, "jobs": len(traced),
            "per_job": per_job, "plain_walls": plain}


def _write_spans(path: str, spans: list[list]) -> None:
    with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
        json.dump({"fields": ["layer", "name", "start", "end", "parent", "job",
                              "count"], "spans": spans}, fh, default=list)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    _load_library()
    specs = _metric_specs()
    import tracer
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    tracer_obj = tracer.Tracer()
    try:
        if args.trace:
            result = measure_traced(workload, args.seed, args.seconds, workdir,
                                    tracer_obj)
        else:
            result = measure(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = specs["per_layer" if args.trace else "end_to_end"]
    missing = set(units) - set(result["metrics"])
    if missing:
        sys.exit(f"error: metrics not measured: {sorted(missing)}")
    machine = _machine(workload.threads)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "params": workload.params,
              "machine": machine, **result}
    with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        _write_spans(os.path.join(OUT, f"{tag}-spans.json.gz"), tracer_obj.spans)
    print(f"{workload.name}: {result['jobs']} jobs, {result['attempted']} attempted, "
          f"{result['failed']} failed (fail_rate "
          f"{result['failed'] / result['attempted']:.3g})")
    print(json.dumps({"machine": machine}))
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": float(result["metrics"][name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
