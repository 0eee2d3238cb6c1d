"""The benchmark's workloads: input generation, the timed job, its oracle and
its output check.

Each workload is a closed loop with one client: a job starts when the
previous one ends, all in one process. Inputs depend only on the seed and the
workload's parameters; the library sees only the generated inputs. Every call
into the library goes through a module attribute (``parfree.parfree_declutter``,
``synthgen.sample_shape``, ...) so that the traced run can wrap it.

Oracles run outside the timed region, once per process.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os

import numpy as np

from declutter import cli, decluttering, geometry, parfree, synthgen

# Seed reserved for hold-out checks of performance claims: never used while
# the benchmark or a change to the library is being developed.
HOLDOUT_SEED = 918273


class CheckFailed(Exception):
    """A job's output differs from its oracle or misses a workload invariant."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        if isinstance(part, bytes):
            h.update(part)
        elif isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


class Workload:
    """One workload. Subclasses set the class attributes and the methods."""

    name = ""
    threads = 1
    defaults: dict = {}

    def __init__(self, **overrides):
        unknown = set(overrides) - set(self.defaults)
        if unknown:
            raise ValueError(f"unknown parameters for {self.name}: {sorted(unknown)}")
        self.params = {**self.defaults, **overrides}

    def setup(self, seed: int, workdir: str):
        """Generate the inputs; returns an opaque state passed to the rest."""
        raise NotImplementedError

    def fingerprint_inputs(self, state) -> str:
        """Digest of the generated inputs (set-up must be deterministic)."""
        raise NotImplementedError

    def points(self, state) -> int:
        """Input points one job processes."""
        raise NotImplementedError

    def oracle(self, state):
        """Reference output, computed on another code path, untimed."""
        return None

    def job(self, state):
        raise NotImplementedError

    def check(self, state, output, expected) -> None:
        """Raise CheckFailed unless the output is correct."""
        raise NotImplementedError

    def fingerprint(self, output) -> str:
        """Digest of everything a job outputs."""
        raise NotImplementedError

    def bytes_written(self, state) -> int:
        """Bytes of files a job writes through the cli."""
        return 0


def _superellipse(vertex_count: int = 64) -> np.ndarray:
    """The fig2 curve: a rounded square given as a closed polyline."""
    t = np.linspace(0, 2 * math.pi, vertex_count, endpoint=False)
    x = np.sign(np.cos(t)) * np.abs(np.cos(t)) ** 0.5
    y = np.sign(np.sin(t)) * np.abs(np.sin(t)) ** 0.5
    return np.column_stack([x, y])


def _trace_summaries(trace) -> list:
    return [it.summary() for it in trace.iterations]


class Fig2Parfree(Workload):
    """Parameter-free loop with the theoretical constant on the fig2 recipe."""

    name = "fig2_parfree"
    threads = 1
    # half the fig2 recipe's 7000 + 2000 points: k still starts at 4096, and
    # a run (set-up, brute oracle, jobs) stays near half a minute
    defaults = {"n_curve": 3500, "ambient": 1000, "sigma": 0.01,
                "clearance": 5.0, "box_pad": 7.0}

    def setup(self, seed, workdir):
        p = self.params
        shape = synthgen.Polyline(_superellipse(), closed=True)
        kref, sample = synthgen.sample_shape(shape, p["n_curve"], seed=None)
        noisy = synthgen.perturb_gaussian(sample, p["sigma"], seed)
        lo, hi = noisy.min(axis=0), noisy.max(axis=0)
        pad = p["box_pad"]
        pts, tags = synthgen.add_ambient_noise(
            noisy, (lo - pad, hi + pad), p["ambient"], seed + 1,
            min_clearance=p["clearance"], clearance_points=kref.points)
        return {"cloud": geometry.PointCloud.from_coords(pts),
                "metric": geometry.Metric(geometry.EUCLIDEAN), "tags": tags}

    def fingerprint_inputs(self, state):
        return _digest(state["cloud"].coords, state["tags"])

    def points(self, state):
        return state["cloud"].n

    def _run(self, state, strategy):
        return parfree.parfree_declutter(state["cloud"], state["metric"],
                                         C=parfree.THEORETICAL_C,
                                         strategy=strategy, threads=self.threads)

    def oracle(self, state):
        ids, _ = self._run(state, "brute")
        return ids

    def job(self, state):
        return self._run(state, "kdtree")

    def check(self, state, output, expected):
        ids, _ = output
        _require(np.array_equal(ids, expected), "final ids differ from the brute run")
        survivors = int(state["tags"][ids].sum())
        _require(survivors == 0, f"{survivors} ambient points survived")

    def fingerprint(self, output):
        ids, trace = output
        return _digest(ids, trace.to_dict())


class Circle20kK16(Workload):
    """One declutter pass at k=16 on a large noisy circle, two threads."""

    name = "circle20k_k16"
    threads = 2
    defaults = {"n_curve": 20000, "ambient": 2000, "sigma": 0.02,
                "box_pad": 0.5, "k": 16}

    def setup(self, seed, workdir):
        p = self.params
        shape = synthgen.Circle((0.0, 0.0), 1.0)
        _, sample = synthgen.sample_shape(shape, p["n_curve"], seed=seed)
        noisy = synthgen.perturb_gaussian(sample, p["sigma"], seed + 1)
        lo, hi = noisy.min(axis=0), noisy.max(axis=0)
        pad = p["box_pad"]
        pts, _ = synthgen.add_ambient_noise(noisy, (lo - pad, hi + pad),
                                            p["ambient"], seed + 2)
        return {"cloud": geometry.PointCloud.from_coords(pts),
                "metric": geometry.Metric(geometry.EUCLIDEAN)}

    def fingerprint_inputs(self, state):
        return _digest(state["cloud"].coords)

    def points(self, state):
        return state["cloud"].n

    def _run(self, state, strategy):
        return decluttering.declutter(state["cloud"], state["metric"],
                                      self.params["k"], strategy=strategy,
                                      threads=self.threads)

    def oracle(self, state):
        result = self._run(state, "brute")
        return result.kept, result.rejected

    def job(self, state):
        return self._run(state, "kdtree")

    def check(self, state, output, expected):
        kept, rejected = expected
        _require(np.array_equal(output.kept, kept), "kept order differs from the brute run")
        _require(output.rejected == rejected,
                 "rejection witnesses differ from the brute run")

    def fingerprint(self, output):
        wit = np.array([[i, r.witness] for i, r in sorted(output.rejected.items())],
                       dtype=np.int64)
        dist = np.array([r.distance for _, r in sorted(output.rejected.items())])
        return _digest(output.kept, output.order, wit, dist, output.profile.values)


class Matrix3600Parfree(Workload):
    """Parameter-free loop (C=4) over a precomputed Manhattan matrix."""

    name = "matrix3600_parfree"
    threads = 1
    defaults = {"n_curve": 3000, "ambient": 600, "sigma": 0.02,
                "clearance": 0.2, "box_pad": 0.6}

    def setup(self, seed, workdir):
        p = self.params
        shape = synthgen.Circle((0.0, 0.0), 1.0)
        kref, sample = synthgen.sample_shape(shape, p["n_curve"], seed=None)
        noisy = synthgen.perturb_gaussian(sample, p["sigma"], seed)
        lo, hi = noisy.min(axis=0), noisy.max(axis=0)
        pad = p["box_pad"]
        pts, _ = synthgen.add_ambient_noise(
            noisy, (lo - pad, hi + pad), p["ambient"], seed + 1,
            min_clearance=p["clearance"], clearance_points=kref.points)
        manhattan = geometry.Metric(geometry.MANHATTAN)
        matrix = geometry.cross_distances(manhattan, pts, pts)
        return {"coords": pts,
                "cloud": geometry.PointCloud.matrix_backed(pts.shape[0]),
                "metric": geometry.Metric(geometry.PRECOMPUTED, matrix=matrix)}

    def fingerprint_inputs(self, state):
        return _digest(state["coords"], state["metric"].matrix)

    def points(self, state):
        return state["cloud"].n

    def oracle(self, state):
        ids, trace = parfree.parfree_declutter(
            geometry.PointCloud.from_coords(state["coords"]),
            geometry.Metric(geometry.MANHATTAN), C=parfree.PRACTICAL_C,
            strategy="kdtree", threads=self.threads)
        return ids, _trace_summaries(trace)

    def job(self, state):
        return parfree.parfree_declutter(state["cloud"], state["metric"],
                                         C=parfree.PRACTICAL_C,
                                         strategy="brute", threads=self.threads)

    def check(self, state, output, expected):
        ids, trace = output
        want_ids, want_summaries = expected
        _require(np.array_equal(ids, want_ids),
                 "final ids differ from the kd-tree Manhattan run")
        _require(_trace_summaries(trace) == want_summaries,
                 "iteration summaries differ from the kd-tree Manhattan run")

    def fingerprint(self, output):
        ids, trace = output
        return _digest(ids, trace.to_dict())


_CERTIFY_BOUNDS = ("thm3.3", "lem3.1", "lem3.2", "prop3.4")


def _run_cli(argv) -> tuple[int, str]:
    """``cli.main`` in-process; returns (exit code, standard output)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class CertifyCli(Workload):
    """The README certification flow run in-process through ``cli.main``."""

    name = "certify_cli"
    threads = 1
    defaults = {"n_curve": 4000, "ambient": 400, "sigma": 0.02, "k": 16,
                "certify_ks": "8,16,32"}

    def setup(self, seed, workdir):
        p = self.params
        gen_dir = os.path.join(workdir, "gen")
        code, _ = _run_cli(["gen", "--shape", "circle", "--n", str(p["n_curve"]),
                            "--sigma", str(p["sigma"]),
                            "--ambient", str(p["ambient"]),
                            "--seed", str(seed), "--out-dir", gen_dir])
        if code != 0:
            raise CheckFailed(f"gen exited with {code}")
        return {"gen": gen_dir, "run": os.path.join(workdir, "run"),
                "certs": os.path.join(workdir, "certs.json")}

    def fingerprint_inputs(self, state):
        parts = []
        for name in ("points.csv", "reference.csv"):
            with open(os.path.join(state["gen"], name), "rb") as fh:
                parts.append(fh.read())
        return _digest(*parts)

    def points(self, state):
        return self.params["n_curve"] + self.params["ambient"]

    def job(self, state):
        points = os.path.join(state["gen"], "points.csv")
        reference = os.path.join(state["gen"], "reference.csv")
        threads = ["--threads", str(self.threads)]
        steps = [
            ["declutter", "--points", points, "--k", str(self.params["k"]),
             "--out-dir", state["run"], *threads],
            ["certify", "--points", points, "--reference", reference,
             "--k", self.params["certify_ks"], "--out", state["certs"], *threads],
            ["eval", "--points", points, "--reference", reference,
             "--bounds", ",".join(_CERTIFY_BOUNDS),
             "--report", os.path.join(state["run"], "report.json"),
             "--certificates", state["certs"], "--strict", *threads],
        ]
        return [_run_cli(argv) for argv in steps]

    def check(self, state, output, expected):
        for step, (code, _) in zip(("declutter", "certify", "eval"), output):
            _require(code == 0, f"{step} exited with {code}")
        status = {}
        for line in output[2][1].splitlines():
            fields = line.split()
            if len(fields) >= 2:
                status[fields[0]] = fields[1]
        for bound in _CERTIFY_BOUNDS:
            _require(status.get(bound) == "pass",
                     f"{bound} printed {status.get(bound)!r}, not 'pass'")

    def fingerprint(self, output):
        return _digest([[code, text] for code, text in output])

    def bytes_written(self, state) -> int:
        """Bytes in the files the job's cli steps wrote."""
        total = os.path.getsize(state["certs"])
        for entry in os.scandir(state["run"]):
            total += entry.stat().st_size
        return total


WORKLOADS = {w.name: w for w in (Fig2Parfree, Circle20kK16, Matrix3600Parfree,
                                 CertifyCli)}
