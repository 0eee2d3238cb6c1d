"""Command-line front end: generation, denoising, certification, evaluation,
and end-to-end figure recipes.

Exit codes: 0 success, 1 usage or input-file error, 2 failed hard assertion
under ``eval --strict``.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .certify import SamplingCertificate, certify_scales
from .decluttering import (VICINITY_FACTOR, DeclutterResult, Rejection, _declutter_on,
                           declutter)
from .evaluation import BOUND_NAMES, BOUNDS, hausdorff, verify_bounds
from .figures import write_scatter_svg
from .geometry import (
    GeometryError,
    GroundTruthRef,
    Metric,
    PointCloud,
    _flag,
    _number,
    _positive_finite,
    _positive_int,
    _row_ids,
    load_ids,
    load_matrix,
    load_points,
    paired_distances,
    save_ids,
    save_points,
)
from .parfree import (
    PRACTICAL_C,
    THEORETICAL_C,
    ParfreeIteration,
    ParfreeTrace,
    _ball_radii,
    _resample,
    parfree_declutter,
)
from .neighbors import build_index
from .robust import RobustDistanceProfile, parse_kind
from .synthgen import (
    Circle,
    Polyline,
    TwoScaleLoops,
    add_ambient_noise,
    feature_from_anchor,
    perturb_gaussian,
    sample_shape,
    torus_grid,
)

SCHEMA_VERSION = 1


class CliError(Exception):
    """Usage or input error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise CliError(message)


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report(args, **extra) -> dict:
    """A JSON report: versions, the subcommand's arguments, and ``extra``."""
    config = {k: v for k, v in vars(args).items() if k != "func"}
    return {"schema_version": SCHEMA_VERSION, "library_version": __version__,
            "config": config, **extra}


def _load_cloud(args) -> tuple[PointCloud, Metric]:
    if args.matrix:
        if args.points:
            raise CliError("--points and --matrix are mutually exclusive")
        m = load_matrix(args.matrix)
        metric = Metric("precomputed", matrix=m)
        return PointCloud.matrix_backed(m.shape[0]), metric
    if not args.points:
        raise CliError("an input is required: --points or --matrix")
    pts = load_points(args.points)
    return PointCloud.from_coords(pts), Metric(args.metric)


def _load_reference(args) -> GroundTruthRef:
    pts = load_points(args.reference)
    fvals = None
    if args.features:
        fvals = load_points(args.features).ravel()
    return GroundTruthRef(PointCloud.from_coords(pts), fvals)


def _maybe_svg(args, path, layers) -> None:
    if args.emit_figures:
        try:
            write_scatter_svg(path, layers)
        except GeometryError:
            pass  # non-2D inputs fall back to CSV only


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def _build_shape(args):
    if args.shape == "circle":
        return Circle((0.0, 0.0), args.radius)
    if args.shape == "loops":
        return TwoScaleLoops(args.big_radius, args.loop_radius, args.loop_count)
    if args.shape == "polyline":
        if not args.vertices:
            raise CliError("polyline needs --vertices FILE")
        return Polyline(load_points(args.vertices), closed=args.closed)
    if args.shape == "torus":
        return torus_grid(args.big_radius, args.loop_radius)
    raise CliError(f"unknown shape {args.shape!r}")


def _cmd_gen(args) -> int:
    shape = _build_shape(args)
    feature_fn = None
    if args.mode == "adaptive":
        ref0 = shape.reference(256)
        anchor = ref0[0]
        feature_fn = feature_from_anchor(anchor, args.feature_floor)
    kref, sample = sample_shape(shape, args.n, mode=args.mode, seed=args.seed,
                                feature_fn=feature_fn)
    scales = None
    if args.mode == "adaptive" and args.sigma > 0:
        scales = feature_fn(sample)
    noisy = perturb_gaussian(sample, args.sigma, args.seed + 1, scales=scales)
    lo = noisy.min(axis=0)
    hi = noisy.max(axis=0)
    pad = 0.25 * float((hi - lo).max())
    # also at --ambient 0, so that a bad count or clearance is refused
    noisy, tags = add_ambient_noise(noisy, (lo - pad, hi + pad), args.ambient,
                                    args.seed + 2, min_clearance=args.clearance,
                                    clearance_points=kref.points)
    os.makedirs(args.out_dir, exist_ok=True)
    save_points(os.path.join(args.out_dir, "points.csv"), noisy)
    save_ids(os.path.join(args.out_dir, "tags.csv"), tags.astype(int))
    save_points(os.path.join(args.out_dir, "reference.csv"), kref.points)
    if kref.has_feature_sizes:
        save_points(os.path.join(args.out_dir, "feature_sizes.csv"),
                    kref.feature_sizes)
    _write_json(os.path.join(args.out_dir, "spec.json"),
                _report(args, n_points=int(noisy.shape[0]),
                        n_ambient=int(tags.sum()),
                        n_reference=int(kref.cloud.n)))
    _maybe_svg(args, os.path.join(args.out_dir, "input.svg"),
               [(noisy[~tags], "#1f77b4"), (noisy[tags], "#d62728")])
    print(f"wrote {noisy.shape[0]} points ({int(tags.sum())} ambient) to {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# declutter / parfree
# ---------------------------------------------------------------------------

def _cmd_declutter(args) -> int:
    cloud, metric = _load_cloud(args)
    kind = parse_kind(args.kind)
    os.makedirs(args.out_dir, exist_ok=True)
    index = build_index(cloud, metric, args.strategy)  # resampling reuses it
    result = _declutter_on(index, args.k, kind, args.threads)
    kept_sorted = result.kept_ids
    if cloud.is_coordinate:
        save_points(os.path.join(args.out_dir, "kept.csv"), cloud.coords[kept_sorted])
    save_ids(os.path.join(args.out_dir, "kept_ids.csv"), kept_sorted)
    _write_json(os.path.join(args.out_dir, "report.json"),
                _report(args, result=result.to_dict()))
    if args.resample_C is not None:
        _positive_finite(args.resample_C, "resampling constant")
        resampled = _resample(index, result.kept, _ball_radii(
            args.resample_C, result.profile.values[result.kept]))
        save_ids(os.path.join(args.out_dir, "resampled_ids.csv"), resampled)
        if cloud.is_coordinate:
            save_points(os.path.join(args.out_dir, "resampled.csv"),
                        cloud.coords[resampled])
    if cloud.is_coordinate:
        rejected = np.setdiff1d(cloud.ids(), kept_sorted)
        _maybe_svg(args, os.path.join(args.out_dir, "declutter.svg"),
                   [(cloud.coords[rejected], "#cccccc"),
                    (cloud.coords[kept_sorted], "#1f77b4")])
    print(f"kept {kept_sorted.size} of {cloud.n} points (k={args.k})")
    return 0


def _cmd_parfree(args) -> int:
    cloud, metric = _load_cloud(args)
    kind = parse_kind(args.kind)
    os.makedirs(args.out_dir, exist_ok=True)
    final_ids, trace = parfree_declutter(cloud, metric, kind=kind, C=args.C,
                                         strategy=args.strategy,
                                         threads=args.threads)
    if cloud.is_coordinate:
        save_points(os.path.join(args.out_dir, "p0.csv"), cloud.coords[final_ids])
    save_ids(os.path.join(args.out_dir, "p0_ids.csv"), final_ids)
    _write_json(os.path.join(args.out_dir, "trace.json"),
                _report(args, trace=trace.to_dict(),
                        n_final=int(final_ids.size)))
    if args.dump_iterations:
        it_dir = os.path.join(args.out_dir, "iterations")
        os.makedirs(it_dir, exist_ok=True)
        for it in trace.iterations:
            stem = os.path.join(it_dir, f"iter_{it.i:02d}")
            save_ids(stem + "_input_ids.csv", it.input_ids)
            save_ids(stem + "_kept_ids.csv", it.kept_ids)
            save_ids(stem + "_resampled_ids.csv", it.resampled_ids)
            save_points(stem + "_profile.csv", it.profile_values)
            if cloud.is_coordinate:
                save_points(stem + "_points.csv", cloud.coords[it.resampled_ids])
    if cloud.is_coordinate:
        removed = np.setdiff1d(cloud.ids(), final_ids)
        _maybe_svg(args, os.path.join(args.out_dir, "parfree.svg"),
                   [(cloud.coords[removed], "#cccccc"),
                    (cloud.coords[final_ids], "#1f77b4")])
    cards = " -> ".join(str(c) for c in [cloud.n] + trace.cardinalities())
    print(f"parameter-free declutter: {cards}")
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _cmd_certify(args) -> int:
    cloud, metric = _load_cloud(args)
    kref = _load_reference(args)
    kind = parse_kind(args.kind)
    try:
        ks = [int(tok) for tok in args.k.split(",") if tok]
    except ValueError as exc:
        raise CliError(f"bad --k list: {exc}") from exc
    if not ks:
        raise CliError("--k needs at least one value")
    by_k = certify_scales(cloud, metric, kref, ks, kind=kind, weak=args.weak,
                          adaptive=args.adaptive, threads=args.threads)
    certs = [by_k[k] for k in ks]
    header = f"{'k':>6}  {'epsilon_k':>14}  {'uniformity_c':>14}"
    print(header)
    for cert in certs:
        c_txt = "absent" if cert.uniformity_c is None else f"{cert.uniformity_c:.6g}"
        print(f"{cert.k:>6}  {cert.epsilon_k:>14.6g}  {c_txt:>14}")
    if args.out:
        _write_json(args.out, _report(args,
                                      certificates=[c.to_dict() for c in certs]))
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _read_json(path, what: str, read):
    """``read`` applied to the JSON document at path. Every error in opening,
    parsing or reading it (a missing or mistyped field, a value its check
    refuses) is CliError naming ``what`` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return read(json.load(fh))
    except (OSError, LookupError, TypeError, ValueError, AttributeError,
            OverflowError) as exc:
        raise CliError(f"cannot read {what} {path}: {exc!r}") from exc


def _json_list(value, name: str, n: int | None = None) -> np.ndarray:
    """value as ids in 0..n-1, or as floats when n is None; GeometryError
    naming ``name`` unless it is a flat JSON list of integers (of numbers
    when n is None). Item types decide exactly: a bool is never an id or a
    number, nor a numeric string a number."""
    types, word = ((int, float), "numbers") if n is None else ((int,), "integers")
    if not (isinstance(value, list) and all(type(v) in types for v in value)):
        raise GeometryError(f"{name} must be {word} in a flat list")
    if n is None:
        return np.array(value, dtype=np.float64)
    return _row_ids(np.array(value, dtype=np.intp), n, name)


# an id as a JSON object key: decimal digits without a sign, space,
# underscore or leading zero, at most 18 of them
_ID_KEY = re.compile(r"0|[1-9][0-9]{0,17}")


def _json_key_ids(keys: list[str], name: str, n: int) -> list[int]:
    """keys as ids in 0..n-1; GeometryError naming the first key that is
    not an id written as ``_ID_KEY`` takes it."""
    ids = list(map(int, keys)) if all(map(_ID_KEY.fullmatch, keys)) else None
    if ids is None or max(ids, default=0) >= n:
        bad = next(key for key in keys if not (_ID_KEY.fullmatch(key) and int(key) < n))
        raise GeometryError(f"{name} key {bad!r} is not an id in 0..{n - 1}")
    return ids


def _report_result(report, cloud: PointCloud,
                   metric: Metric) -> tuple[DeclutterResult, float | None]:
    """The declutter result a report holds, and the resampling constant its
    run recorded (None when it ran without --resample-C). GeometryError
    unless the result is a run on this cloud (:func:`_check_run_on`)."""
    data = report["result"]
    if data["vicinity_factor"] != VICINITY_FACTOR:
        raise GeometryError(f"the run records vicinity factor {data['vicinity_factor']!r}"
                            f"; declutter runs only at {VICINITY_FACTOR!r}")
    n = _positive_int(data["n"], "report n")
    if n != cloud.n:
        raise GeometryError(f"the report covers n={n} points, not the {cloud.n} "
                            "of the input")
    prof = RobustDistanceProfile(k=_positive_int(data["k"], "report k"),
                                 kind=parse_kind(data["kind"]),
                                 values=_json_list(data["profile_values"],
                                                   "profile_values"))
    if prof.n != n:
        raise GeometryError(f"profile_values holds {prof.n} values for n={n}")
    records = data["rejected"]
    ids = _json_key_ids(list(records), "rejected", prof.n)
    witnesses = _json_list([r["witness"] for r in records.values()],
                           "rejection witnesses", prof.n)
    rejected = {i: Rejection(witness=w,
                             distance=_number(r["distance"], "rejection distance"))
                for i, r, w in zip(ids, records.values(), witnesses.tolist())}
    result = DeclutterResult(
        kept=_json_list(data["kept_order"], "kept_order", prof.n), rejected=rejected,
        order=_json_list(data["processing_order"], "processing order", prof.n),
        profile=prof)
    _check_run_on(result, cloud, metric)
    recorded = report.get("config", {}).get("resample_C")
    return result, None if recorded is None else _number(recorded, "config resample_C")


def _check_run_on(result: DeclutterResult, cloud: PointCloud, metric: Metric) -> None:
    """GeometryError unless the result's kept and rejected ids partition the
    cloud's ids, every witness was kept, and every witness distance is, byte
    for byte, the canonical distance from its point to its witness."""
    rejected = np.fromiter(result.rejected, dtype=np.intp, count=len(result.rejected))
    counts = np.bincount(np.concatenate([result.kept, rejected]), minlength=cloud.n)
    bad = np.flatnonzero(counts != 1)
    if bad.size:
        raise GeometryError(f"id {bad[0]} is kept or rejected {counts[bad[0]]} times; "
                            f"kept_order and the rejected keys must partition "
                            f"0..{cloud.n - 1}")
    witnesses = np.array([r.witness for r in result.rejected.values()], dtype=np.intp)
    kept = np.zeros(cloud.n, dtype=bool)
    kept[result.kept] = True
    bad = np.flatnonzero(~kept[witnesses])
    if bad.size:
        raise GeometryError(f"the witness {witnesses[bad[0]]} of rejected point "
                            f"{rejected[bad[0]]} was never kept")
    a, b = cloud.points[rejected], cloud.points[witnesses]
    canonical = (paired_distances(metric, a, b) if cloud.is_coordinate
                 else metric.matrix[a, b])
    recorded = np.array([r.distance for r in result.rejected.values()])
    bad = np.flatnonzero(recorded.view(np.uint64) != canonical.view(np.uint64))
    if bad.size:
        i = bad[0]
        raise GeometryError(f"the witness distance {float(recorded[i])!r} of rejected "
                            f"point {rejected[i]} is not its distance "
                            f"{float(canonical[i])!r} to its witness {witnesses[i]}")


def _trace_from_dir(trace_dir) -> ParfreeTrace:
    """The parfree trace a ``parfree --dump-iterations`` directory holds:
    ``trace.json`` and each round's id and profile dumps. A round's i must be
    an integer from 0, its k and k_effective from 1, the resampling constant
    a JSON number and the degenerate flag a JSON boolean."""
    def read(doc):
        meta, rounds = doc["trace"], []
        for s in meta["iterations"]:
            i = s["i"]
            if type(i) is not int or i < 0:
                raise GeometryError(f"trace iteration i must be a non-negative "
                                    f"integer, got {i!r}")
            stem = os.path.join(trace_dir, "iterations", f"iter_{i:02d}")
            rounds.append(ParfreeIteration(
                i=i, k_target=_positive_int(s["k"], "trace k"),
                k_effective=_positive_int(s["k_effective"], "trace k_effective"),
                input_ids=load_ids(stem + "_input_ids.csv", "trace input id"),
                kept_ids=load_ids(stem + "_kept_ids.csv", "trace kept id"),
                resampled_ids=load_ids(stem + "_resampled_ids.csv", "trace resampled id"),
                profile_values=load_points(stem + "_profile.csv").ravel()))
        return ParfreeTrace(
            iterations=rounds, kind=parse_kind(meta["kind"]),
            resampling_constant=_number(meta["resampling_constant"],
                                        "trace resampling_constant"),
            degenerate=_flag(meta.get("degenerate", False), "trace degenerate"))
    return _read_json(os.path.join(trace_dir, "trace.json"), "trace", read)


# the eval flag that supplies each verify_bounds input named in BOUNDS
_EVAL_FLAGS = {"cloud": "--points", "kref": "--reference", "result": "--report",
               "certificate": "--certificates (holding the report's k)",
               "certificates": "--certificates",
               "trace": "--trace-dir", "resampled_ids": "--resampled-ids",
               "C": "--C", "k": "--k", "i0": "--i0"}


def _cmd_eval(args) -> int:
    cloud, metric = _load_cloud(args)
    kref = _load_reference(args) if args.reference else None
    names = [tok for tok in args.bounds.split(",") if tok]
    if not names or not set(names) <= set(BOUND_NAMES):
        raise CliError(f"--bounds takes names from {BOUND_NAMES}, got {args.bounds!r}")
    result, recorded = (_read_json(args.report, "declutter report",
                                   lambda doc: _report_result(doc, cloud, metric))
                        if args.report else (None, None))
    C = args.C
    # lem4.4, the one bound that reads C, checks the resampled ids at the
    # constant that produced them
    if "lem4.4" in names and recorded is not None:
        if C is not None and C != recorded:
            raise CliError(f"--C {C!r} differs from the resample_C {recorded!r} "
                           f"recorded in {args.report}")
        C = recorded
    certs = {}
    if args.certificates:
        certs = _read_json(args.certificates, "certificates", lambda doc: {
            c.k: c for c in map(SamplingCertificate.from_dict, doc["certificates"])})
    trace = _trace_from_dir(args.trace_dir) if args.trace_dir else None
    resampled = None
    if args.resampled_ids:
        resampled = load_ids(args.resampled_ids, "resampled id")

    supplied = dict(cloud=cloud, kref=kref, result=result,
                    certificate=(None if result is None
                                 else certs.get(result.profile.k)),
                    certificates=certs or None, trace=trace,
                    resampled_ids=resampled, C=C, k=args.k, i0=args.i0)
    for name in names:
        missing = [_EVAL_FLAGS[n] for n in BOUNDS[name].needs if supplied[n] is None]
        if missing:
            raise CliError(f"{name} needs {', '.join(missing)}")
    rows = verify_bounds(names, metric=metric, seed=args.seed, threads=args.threads,
                         **supplied)
    failed = sum(cert.applicable and not cert.passed for cert in rows)

    print(f"{'bound':<9} {'status':<16} {'lhs':>14} {'rhs':>14}")
    for cert in rows:
        if not cert.applicable:
            status = "not-applicable"
            print(f"{cert.bound_name:<9} {status:<16} {'-':>14} {'-':>14}"
                  f"  ({cert.inputs.get('reason', '')})")
        else:
            status = "pass" if cert.passed else "FAIL"
            print(f"{cert.bound_name:<9} {status:<16} {cert.lhs:>14.6g} {cert.rhs:>14.6g}")
    if args.out:
        _write_json(args.out, _report(args, bounds=[c.to_dict() for c in rows]))
    if args.strict and failed:
        print(f"{failed} hard assertion(s) failed", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# repro recipes
# ---------------------------------------------------------------------------

def _repro_fig1(args) -> int:
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    shape = TwoScaleLoops(2.0, 0.25, 8)
    n = 320 if args.n is None else args.n
    kref_small, sample = sample_shape(shape, n, seed=None)
    noisy = perturb_gaussian(sample, 0.01, args.seed)
    cloud = PointCloud.from_coords(noisy)
    metric = Metric()
    kref_big, _ = sample_shape(shape.big_circle(), n, seed=None)
    outputs = {}
    for k in (2, 10):
        result = declutter(cloud, metric, k, threads=args.threads)
        outputs[k] = cloud.coords[result.kept_ids]
        save_points(os.path.join(out, f"declutter_k{k}.csv"), outputs[k])
    final_ids, trace = parfree_declutter(cloud, metric, threads=args.threads)
    save_points(os.path.join(out, "parfree.csv"), cloud.coords[final_ids])
    save_points(os.path.join(out, "input.csv"), noisy)
    save_points(os.path.join(out, "reference_small_loops.csv"), kref_small.points)
    save_points(os.path.join(out, "reference_big_circle.csv"), kref_big.points)
    for stem, pts in (("input", noisy), ("declutter_k2", outputs[2]),
                      ("declutter_k10", outputs[10]),
                      ("parfree", cloud.coords[final_ids])):
        write_scatter_svg(os.path.join(out, stem + ".svg"), [(pts, "#1f77b4")])
    _write_json(os.path.join(out, "report.json"),
                _report(args, outputs={
                    "k2": int(outputs[2].shape[0]),
                    "k10": int(outputs[10].shape[0]),
                    "parfree": int(final_ids.size),
                    "trace": trace.to_dict()}))
    print(f"fig1 recipe: k=2 kept {outputs[2].shape[0]}, "
          f"k=10 kept {outputs[10].shape[0]}, parameter-free kept {final_ids.size}")
    return 0


def _rounded_square(scale: float = 1.0) -> Polyline:
    t = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    # superellipse: squarish closed curve without sharp corners
    x = np.sign(np.cos(t)) * np.abs(np.cos(t)) ** 0.5
    y = np.sign(np.sin(t)) * np.abs(np.sin(t)) ** 0.5
    return Polyline(scale * np.column_stack([x, y]), closed=True)


def _repro_pipeline(args, shape, n_curve, n_ambient, sigma, clearance,
                    box_pad=None, declutter_ks=(), tag_check=False) -> int:
    out = args.out_dir
    os.makedirs(out, exist_ok=True)
    kref, sample = sample_shape(shape, n_curve, seed=None)
    noisy = perturb_gaussian(sample, sigma, args.seed)
    lo = noisy.min(axis=0)
    hi = noisy.max(axis=0)
    pad = box_pad if box_pad is not None else 0.3 * float((hi - lo).max())
    noisy, tags = add_ambient_noise(noisy, (lo - pad, hi + pad), n_ambient,
                                    args.seed + 1, min_clearance=clearance,
                                    clearance_points=kref.points)
    cloud = PointCloud.from_coords(noisy)
    metric = Metric()
    save_points(os.path.join(out, "reference.csv"), kref.points)
    save_points(os.path.join(out, "input.csv"), noisy)
    save_ids(os.path.join(out, "tags.csv"), tags.astype(int))
    is2d = noisy.shape[1] == 2
    if is2d:
        write_scatter_svg(os.path.join(out, "ground_truth.svg"),
                          [(kref.points, "#2ca02c", 1.2)])
        write_scatter_svg(os.path.join(out, "input.svg"),
                          [(noisy[~tags], "#1f77b4"), (noisy[tags], "#d62728")])
    for k in declutter_ks:
        result = declutter(cloud, metric, k, threads=args.threads)
        pts = cloud.coords[result.kept_ids]
        save_points(os.path.join(out, f"declutter_k{k}.csv"), pts)
        if is2d:
            write_scatter_svg(os.path.join(out, f"declutter_k{k}.svg"),
                              [(pts, "#1f77b4")])
    final_ids, trace = parfree_declutter(cloud, metric, threads=args.threads)
    save_points(os.path.join(out, "parfree.csv"), cloud.coords[final_ids])
    mids = trace.iterations
    picks = [mids[len(mids) // 3], mids[2 * len(mids) // 3]] if len(mids) >= 3 else []
    for it in picks:
        pts = cloud.coords[it.resampled_ids]
        save_points(os.path.join(out, f"intermediate_k{it.k_effective}.csv"), pts)
        if is2d:
            write_scatter_svg(os.path.join(out, f"intermediate_k{it.k_effective}.svg"),
                              [(pts, "#1f77b4")])
    if is2d:
        write_scatter_svg(os.path.join(out, "parfree.svg"),
                          [(cloud.coords[final_ids], "#1f77b4")])
    surviving_ambient = int(tags[final_ids].sum())
    _write_json(os.path.join(out, "report.json"),
                _report(args, trace=trace.to_dict(),
                        n_final=int(final_ids.size),
                        surviving_ambient=surviving_ambient,
                        hausdorff_to_reference=hausdorff(
                            cloud.coords[final_ids], kref.points, metric,
                            threads=args.threads)))
    print(f"pipeline: {cloud.n} -> {final_ids.size} points, "
          f"{surviving_ambient} ambient survivors")
    if tag_check and surviving_ambient:
        print("warning: ambient points survived", file=sys.stderr)
    return 0


def _repro_fig2(args) -> int:
    n = 7000 if args.n is None else args.n
    m = args.ambient if args.ambient is not None else 2000
    # ambient lives far from the curve (clearance about twice the curve
    # diameter); the theoretical resampling constant then eliminates it fully
    return _repro_pipeline(args, _rounded_square(1.0), n, m, sigma=0.01,
                           clearance=5.0, box_pad=7.0, tag_check=True)


def _repro_fig4(args) -> int:
    n = 3000 if args.n is None else args.n
    m = args.ambient if args.ambient is not None else 600
    return _repro_pipeline(args, Circle((0.0, 0.0), 1.0), n, m, sigma=0.02,
                           clearance=0.2, declutter_ks=(9, 30))


def _repro_fig5(args) -> int:
    n = 2000 if args.n is None else args.n
    m = args.ambient if args.ambient is not None else 400
    shape = torus_grid(2.0, 0.6, nu=160, nv=60)
    return _repro_pipeline(args, shape, n, m, sigma=0.03, clearance=0.5)


_REPRO = {"fig1": _repro_fig1, "fig2": _repro_fig2, "fig4": _repro_fig4,
          "fig5": _repro_fig5}


def _cmd_repro(args) -> int:
    return _REPRO[args.figure](args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_from(low: int):
    """The argparse type of an integer flag of at least ``low`` (--threads
    from 1, --seed from 0): anything else is a usage error."""
    def parse(text: str) -> int:
        if not (text.isdecimal() and int(text) >= low):
            raise argparse.ArgumentTypeError(f"must be an integer of at least {low}, "
                                             f"got {text!r}")
        return int(text)
    return parse


def _add_cloud_inputs(p) -> None:
    """The input cloud's flags, and --threads for the work on it."""
    p.add_argument("--points", help="point CSV (one point per row)")
    p.add_argument("--matrix", help="precomputed distance matrix CSV")
    p.add_argument("--metric", choices=("euclidean", "manhattan"),
                   default="euclidean")
    p.add_argument("--threads", type=_int_from(1), default=1)


def build_parser() -> _Parser:
    parser = _Parser(prog="declutter",
                     description="Point-cloud decluttering toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic noisy sample")
    p.add_argument("--shape", choices=("circle", "loops", "polyline", "torus"),
                   default="circle")
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--big-radius", type=float, default=2.0)
    p.add_argument("--loop-radius", type=float, default=0.25)
    p.add_argument("--loop-count", type=int, default=8)
    p.add_argument("--vertices", help="vertex CSV for polyline shapes")
    p.add_argument("--closed", action="store_true")
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--mode", choices=("uniform", "adaptive"), default="uniform")
    p.add_argument("--feature-floor", type=float, default=0.2)
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--ambient", type=int, default=0)
    p.add_argument("--clearance", type=float, default=0.0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--emit-figures", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("declutter", help="single-parameter declutter pass")
    _add_cloud_inputs(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", default="rms-k")
    p.add_argument("--strategy", choices=("auto", "brute", "kdtree"),
                   default="auto")
    p.add_argument("--resample-C", type=float, default=None,
                   help="also emit one resampling step at this constant")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--emit-figures", action="store_true")
    p.set_defaults(func=_cmd_declutter)

    p = sub.add_parser("parfree", help="parameter-free declutter loop")
    _add_cloud_inputs(p)
    p.add_argument("--kind", default="rms-k")
    p.add_argument("--C", type=float, default=THEORETICAL_C,
                   help=f"resampling constant (default: the theoretical "
                        f"{THEORETICAL_C:.6g}; the practical one is {PRACTICAL_C:g})")
    p.add_argument("--strategy", choices=("auto", "brute", "kdtree"),
                   default="auto")
    p.add_argument("--dump-iterations", action="store_true")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--emit-figures", action="store_true")
    p.set_defaults(func=_cmd_parfree)

    p = sub.add_parser("certify", help="estimate sampling-condition parameters")
    _add_cloud_inputs(p)
    p.add_argument("--reference", required=True)
    p.add_argument("--features", help="feature sizes for the reference")
    p.add_argument("--k", required=True, help="comma-separated k list")
    p.add_argument("--kind", default="rms-k")
    p.add_argument("--weak", action="store_true")
    p.add_argument("--adaptive", action="store_true")
    p.add_argument("--out", help="write certificates JSON here")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("eval", help="check named guarantees on run artifacts")
    _add_cloud_inputs(p)
    p.add_argument("--reference")
    p.add_argument("--features")
    p.add_argument("--bounds", required=True,
                   help=f"comma-separated subset of {','.join(BOUND_NAMES)}")
    p.add_argument("--report", help="declutter report JSON")
    p.add_argument("--certificates", help="certificates JSON from certify --out")
    p.add_argument("--trace-dir", help="parfree output dir (with --dump-iterations)")
    p.add_argument("--resampled-ids", help="resampled id CSV for the one-step bound")
    p.add_argument("--C", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--i0", type=int, default=None)
    p.add_argument("--strict", action="store_true")
    p.add_argument("--out", help="write bound certificates JSON here")
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("repro", help="end-to-end figure recipes")
    p.add_argument("figure", choices=sorted(_REPRO))
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--ambient", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=_int_from(0), default=0)
    p.add_argument("--threads", type=_int_from(1), default=1)
    p.set_defaults(func=_cmd_repro)

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser :func:`main` reads, built once per process: parsing
    keeps no state in it, and building every subcommand's flags costs more
    than most parses."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (CliError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
