"""Command-line front end: generation, denoising, certification, evaluation,
and end-to-end figure recipes.

Exit codes: 0 success, 1 usage or input-file error, 2 failed hard assertion
under ``eval --strict``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .certify import SamplingCertificate, certify_scales
from .decluttering import DeclutterResult, Rejection, declutter
from .evaluation import BOUND_NAMES, BOUNDS, hausdorff, verify_bound
from .figures import write_scatter_svg
from .geometry import (
    EUCLIDEAN,
    GeometryError,
    GroundTruthRef,
    Metric,
    PointCloud,
    _positive_int,
    load_matrix,
    load_points,
    save_points,
)
from .parfree import (
    PRACTICAL_C,
    THEORETICAL_C,
    ParfreeIteration,
    ParfreeTrace,
    parfree_declutter,
    resample_step,
)
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
    if getattr(args, "matrix", None):
        if getattr(args, "points", None):
            raise CliError("--points and --matrix are mutually exclusive")
        m = load_matrix(args.matrix)
        metric = Metric("precomputed", matrix=m)
        return PointCloud.matrix_backed(m.shape[0]), metric
    if not getattr(args, "points", None):
        raise CliError("an input is required: --points or --matrix")
    pts = load_points(args.points)
    kind = getattr(args, "metric", EUCLIDEAN)
    return PointCloud.from_coords(pts), Metric(kind)


def _load_reference(args) -> GroundTruthRef:
    if not getattr(args, "reference", None):
        raise CliError("--reference is required for this operation")
    pts = load_points(args.reference)
    fvals = None
    if getattr(args, "features", None):
        fvals = load_points(args.features).ravel()
    return GroundTruthRef(PointCloud.from_coords(pts), fvals)


def _maybe_svg(args, path, layers) -> None:
    if getattr(args, "emit_figures", False):
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
    os.makedirs(args.out_dir, exist_ok=True)
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
    tags = np.zeros(noisy.shape[0], dtype=bool)
    if args.ambient > 0:
        lo = noisy.min(axis=0)
        hi = noisy.max(axis=0)
        pad = 0.25 * float((hi - lo).max())
        box = (lo - pad, hi + pad)
        noisy, tags = add_ambient_noise(noisy, box, args.ambient, args.seed + 2,
                                        min_clearance=args.clearance,
                                        clearance_points=kref.points)
    save_points(os.path.join(args.out_dir, "points.csv"), noisy)
    np.savetxt(os.path.join(args.out_dir, "tags.csv"), tags.astype(int), fmt="%d")
    save_points(os.path.join(args.out_dir, "reference.csv"), kref.points)
    if kref.has_feature_sizes:
        save_points(os.path.join(args.out_dir, "feature_sizes.csv"),
                    kref.feature_sizes.reshape(-1, 1))
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
    result = declutter(cloud, metric, args.k, kind=kind,
                       vicinity_factor=args.vicinity_factor,
                       strategy=args.strategy, threads=args.threads)
    kept_sorted = result.kept_ids
    if cloud.is_coordinate:
        save_points(os.path.join(args.out_dir, "kept.csv"), cloud.coords[kept_sorted])
    np.savetxt(os.path.join(args.out_dir, "kept_ids.csv"), kept_sorted, fmt="%d")
    _write_json(os.path.join(args.out_dir, "report.json"),
                _report(args, result=result.to_dict()))
    if args.resample_C is not None:
        resampled = resample_step(cloud, metric, result.kept, result.profile,
                                  args.resample_C, strategy=args.strategy)
        np.savetxt(os.path.join(args.out_dir, "resampled_ids.csv"), resampled,
                   fmt="%d")
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
    C = PRACTICAL_C if args.practical else args.C
    os.makedirs(args.out_dir, exist_ok=True)
    final_ids, trace = parfree_declutter(cloud, metric, kind=kind, C=C,
                                         strategy=args.strategy,
                                         threads=args.threads)
    if cloud.is_coordinate:
        save_points(os.path.join(args.out_dir, "p0.csv"), cloud.coords[final_ids])
    np.savetxt(os.path.join(args.out_dir, "p0_ids.csv"), final_ids, fmt="%d")
    _write_json(os.path.join(args.out_dir, "trace.json"),
                _report(args, trace=trace.to_dict(),
                        n_final=int(final_ids.size)))
    if args.dump_iterations:
        it_dir = os.path.join(args.out_dir, "iterations")
        os.makedirs(it_dir, exist_ok=True)
        for it in trace.iterations:
            stem = os.path.join(it_dir, f"iter_{it.i:02d}")
            np.savetxt(stem + "_input_ids.csv", it.input_ids, fmt="%d")
            np.savetxt(stem + "_kept_ids.csv", it.kept_ids, fmt="%d")
            np.savetxt(stem + "_resampled_ids.csv", it.resampled_ids, fmt="%d")
            save_points(stem + "_profile.csv", it.profile_values.reshape(-1, 1))
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

def _result_from_report(path) -> DeclutterResult:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)["result"]
        prof = RobustDistanceProfile(k=int(data["k"]), kind=parse_kind(data["kind"]),
                                     values=np.asarray(data["profile_values"]))
        rejected = {int(i): Rejection(witness=int(r["witness"]),
                                      distance=float(r["distance"]))
                    for i, r in data["rejected"].items()}
        # kept ids keep their JSON type: evaluation rejects any but integers
        return DeclutterResult(kept=np.asarray(data["kept_order"]),
                               rejected=rejected,
                               order=np.asarray(data["processing_order"], dtype=np.intp),
                               profile=prof,
                               vicinity_factor=float(data["vicinity_factor"]))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"cannot read declutter report {path}: {exc!r}") from exc


def _certs_from_file(path) -> dict[int, SamplingCertificate]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)["certificates"]
        certs = [SamplingCertificate.from_dict(d) for d in data]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"cannot read certificates {path}: {exc!r}") from exc
    return {c.k: c for c in certs}


def _trace_from_dir(args) -> ParfreeTrace:
    trace_path = os.path.join(args.trace_dir, "trace.json")
    try:
        with open(trace_path, "r", encoding="utf-8") as fh:
            meta = json.load(fh)["trace"]
        scales = [(int(s["i"]), int(s["k"]), int(s["k_effective"]))
                  for s in meta["iterations"]]
        constant = float(meta["resampling_constant"])
        kind = parse_kind(meta["kind"])
        degenerate = bool(meta.get("degenerate", False))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"cannot read trace {trace_path}: {exc!r}") from exc
    iterations = []
    it_dir = os.path.join(args.trace_dir, "iterations")
    for i, k_target, k_effective in scales:
        stem = os.path.join(it_dir, f"iter_{i:02d}")
        try:
            input_ids = np.loadtxt(stem + "_input_ids.csv", dtype=np.intp, ndmin=1)
            kept_ids = np.loadtxt(stem + "_kept_ids.csv", dtype=np.intp, ndmin=1)
            resampled = np.loadtxt(stem + "_resampled_ids.csv", dtype=np.intp, ndmin=1)
            values = load_points(stem + "_profile.csv").ravel()
        except (OSError, ValueError) as exc:
            raise CliError(f"cannot read trace dumps {stem}_*.csv "
                           f"(run parfree --dump-iterations): {exc!r}") from exc
        iterations.append(ParfreeIteration(
            i=i, k_target=k_target, k_effective=k_effective,
            input_ids=input_ids, kept_ids=kept_ids, resampled_ids=resampled,
            profile_values=values))
    return ParfreeTrace(iterations=iterations, resampling_constant=constant,
                        kind=kind, degenerate=degenerate)


# the eval flag that supplies each verify_bound input named in BOUNDS
_EVAL_FLAGS = {"cloud": "--points", "kref": "--reference", "result": "--report",
               "certificate": "--certificates (holding the report's k)",
               "certificates": "--certificates",
               "trace": "--trace-dir", "resampled_ids": "--resampled-ids",
               "C": "--C", "k": "--k", "i0": "--i0"}


def _cmd_eval(args) -> int:
    cloud, metric = _load_cloud(args)
    kref = _load_reference(args) if args.reference else None
    names = [tok for tok in args.bounds.split(",") if tok]
    unknown = [n for n in names if n not in BOUND_NAMES]
    if unknown:
        raise CliError(f"unknown bounds: {unknown}; choose from {BOUND_NAMES}")
    result = _result_from_report(args.report) if args.report else None
    certs = _certs_from_file(args.certificates) if args.certificates else {}
    trace = _trace_from_dir(args) if args.trace_dir else None
    resampled = None
    if args.resampled_ids:
        try:
            resampled = np.loadtxt(args.resampled_ids, dtype=np.intp, ndmin=1)
        except (OSError, ValueError) as exc:
            raise CliError(
                f"cannot read resampled ids {args.resampled_ids}: {exc!r}") from exc

    supplied = dict(cloud=cloud, kref=kref, result=result,
                    certificate=(None if result is None
                                 else certs.get(result.profile.k)),
                    certificates=certs or None, trace=trace,
                    resampled_ids=resampled, C=args.C, k=args.k, i0=args.i0)
    rows = []
    failed = 0
    for name in names:
        missing = [_EVAL_FLAGS[n] for n in BOUNDS[name].needs if supplied[n] is None]
        if missing:
            raise CliError(f"{name} needs {', '.join(missing)}")
        cert = verify_bound(name, metric=metric, threads=args.threads, **supplied)
        rows.append(cert)
        if cert.applicable and not cert.passed:
            failed += 1

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
    np.savetxt(os.path.join(out, "tags.csv"), tags.astype(int), fmt="%d")
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
    handler = _REPRO.get(args.figure)
    if handler is None:
        raise CliError(f"unknown figure id {args.figure!r}; "
                       f"choose from {sorted(_REPRO)}")
    return handler(args)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--emit-figures", action="store_true")


def _add_cloud_inputs(p) -> None:
    p.add_argument("--points", help="point CSV (one point per row)")
    p.add_argument("--matrix", help="precomputed distance matrix CSV")
    p.add_argument("--metric", choices=("euclidean", "manhattan"),
                   default="euclidean")


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
    _add_common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("declutter", help="single-parameter declutter pass")
    _add_cloud_inputs(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", default="rms-k")
    p.add_argument("--vicinity-factor", type=float, default=2.0)
    p.add_argument("--strategy", choices=("auto", "brute", "kdtree"),
                   default="auto")
    p.add_argument("--resample-C", type=float, default=None,
                   help="also emit one resampling step at this constant")
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_declutter)

    p = sub.add_parser("parfree", help="parameter-free declutter loop")
    _add_cloud_inputs(p)
    p.add_argument("--kind", default="rms-k")
    p.add_argument("--C", type=float, default=THEORETICAL_C)
    p.add_argument("--practical", action="store_true",
                   help="use the practical resampling constant 4")
    p.add_argument("--strategy", choices=("auto", "brute", "kdtree"),
                   default="auto")
    p.add_argument("--dump-iterations", action="store_true")
    p.add_argument("--out-dir", required=True)
    _add_common(p)
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
    _add_common(p)
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
    _add_common(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("repro", help="end-to-end figure recipes")
    p.add_argument("figure", help="fig1 | fig2 | fig4 | fig5")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--ambient", type=int, default=None)
    p.add_argument("--out-dir", required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_repro)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _positive_int(args.threads, "threads")  # every subcommand takes --threads
        return args.func(args)
    except (CliError, GeometryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
