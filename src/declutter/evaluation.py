"""Hausdorff metrics, named guarantee checks, and the relaxed-bound calculator.

Each named bound compares a measured quantity against the value the theory
promises for certified inputs. Checks whose hypotheses are not met come back
marked not-applicable instead of pass/fail, so uncertified data never
manufactures false failures. Every certificate a bound reads (thm4.1: one
per scale from i0 up) passes one gate, :func:`_certificate_gate`. The stored
lhs/rhs always satisfy: pass iff lhs <= rhs + 1e-9.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from .certify import SamplingCertificate
from .decluttering import DeclutterResult
from .geometry import (
    GeometryError,
    GroundTruthRef,
    Metric,
    PointCloud,
    _member_ids,
    _positive_finite,
    _positive_int,
)
from .neighbors import NeighborIndex, _target_index, build_index, nearest_cross
from .parfree import THEORETICAL_C, ParfreeTrace
from .robust import DistanceKind, RMS_K, _prefix_values

BOUND_TOLERANCE = 1e-9

# conservation factor of the iterative loop: any intermediate survivor stays
# within this multiple of its own robust distance from the final output
KAPPA_CONSERVE = (18.0 + 17.0 * math.sqrt(2.0)) / 4.0

# end-to-end factor of the parameter-free guarantee
PARFREE_FACTOR = 87.0 + 16.0 * math.sqrt(2.0)


@dataclass
class BoundCertificate:
    bound_name: str
    lhs: float
    rhs: float
    passed: bool | None        # None iff not applicable
    applicable: bool
    inputs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "bound_name": self.bound_name,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "passed": self.passed,
            "applicable": self.applicable,
            "inputs": self.inputs,
        }


# ---------------------------------------------------------------------------
# Hausdorff distances
# ---------------------------------------------------------------------------

def _metric(metric) -> Metric:
    """metric, or the Euclidean Metric for None; GeometryError unless it is
    a Metric."""
    if metric is None:
        return Metric()
    if not isinstance(metric, Metric):
        raise GeometryError(f"metric must be a Metric, got {metric!r}")
    return metric


def directed_hausdorff(a, b, metric: Metric | None = None,
                       threads: int = 1) -> float:
    """max over a of the distance to the nearest point of b (coordinate
    rows, or matrix row ids under a precomputed metric). b may also be a
    NeighborIndex over them, whose metric is then the one measured (metric
    must be None or the same)."""
    if isinstance(b, NeighborIndex):
        if metric is not None and _metric(metric) is not b.metric:
            raise GeometryError("metric differs from the index's metric")
        return b._nearest_max(a, threads)
    return _target_index(_metric(metric), b)._nearest_max(a, threads)


def hausdorff(a, b, metric: Metric | None = None, threads: int = 1) -> float:
    """Symmetric Hausdorff distance between two finite point sets."""
    return max(directed_hausdorff(a, b, metric, threads),
               directed_hausdorff(b, a, metric, threads))


def adaptive_hausdorff(points, kref: GroundTruthRef,
                       metric: Metric | None = None, threads: int = 1) -> float:
    """Hausdorff distance with both directions rescaled by the feature size
    (at the nearest reference point for the output direction)."""
    metric = _metric(metric)
    return _adaptive_hausdorff(points, kref, _target_index(metric, kref.points),
                               lambda: _target_index(metric, points),
                               _positive_int(threads, "threads"))


def _adaptive_hausdorff(points, kref: GroundTruthRef, ref_index: NeighborIndex,
                        points_index, threads: int) -> float:
    """:func:`adaptive_hausdorff` over an index of the reference, and a
    zero-argument callable that returns an index of the points (called once
    the points are known to be non-empty)."""
    if not kref.has_feature_sizes:
        raise GeometryError("adaptive Hausdorff needs feature sizes")
    f = kref.feature_sizes
    d_to_ref, nearest = ref_index._nearest_rows(points, 1, threads)
    if d_to_ref.size == 0:
        raise GeometryError("adaptive Hausdorff needs a non-empty set")
    term1 = float((d_to_ref[:, 0] / f[nearest[:, 0]]).max())
    d_from_ref = points_index()._nearest_rows(kref.points, 1, threads)[0]
    term2 = float((d_from_ref[:, 0] / f).max())
    return max(term1, term2)


# ---------------------------------------------------------------------------
# relaxed-metric bound calculator
# ---------------------------------------------------------------------------

def relaxed_bound(c_x: float, c_lip: float) -> float:
    """Output-quality factor m for a metric with triangle relaxation c_x and
    a robust distance with Lipschitz relaxation c_lip; at (1, 1) this
    degenerates to the exact-metric factor 7."""
    if not (c_x >= 1 and c_lip >= 1):
        raise GeometryError("relaxation constants must be >= 1")
    if c_x >= 2:
        raise GeometryError("bound undefined for triangle relaxation >= 2")
    first = c_lip + c_x * c_lip + 4 * c_x * c_lip ** 2 + 1
    second = (2 + c_x ** 2 + 4 * c_x ** 2 * c_lip) / (2 - c_x)
    return float(max(first, second))


# ---------------------------------------------------------------------------
# named guarantee checks
# ---------------------------------------------------------------------------

class _NotApplicable(Exception):
    """A hypothesis of the bound does not hold; the message names it."""


@dataclass
class _Run:
    """One evaluation: the :func:`verify_bound` inputs, and the
    nearest-point quantities that several bounds read, each computed on
    first use and at most once. They are the kept points, an index over the
    reference and one over the kept points, and the directed Hausdorff
    distances between the two sets: thm3.3 and thmD.2 read both, lem3.1 and
    lem3.2 one each, prop3.4 the kept index, and thm3.7, lem4.4 and thm4.1
    the reference index."""

    cloud: PointCloud | None = None
    metric: Metric | None = None
    kref: GroundTruthRef | None = None
    certificate: SamplingCertificate | None = None
    result: DeclutterResult | None = None
    resampled_ids: object = None
    trace: ParfreeTrace | None = None
    certificates: dict[int, SamplingCertificate] | None = None
    i0: int | None = None
    C: float | None = None
    k: int | None = None
    sample_limit: int = 512
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        self.metric = _metric(self.metric)
        if self.cloud is not None:
            self.cloud.check_metric(self.metric)
        self.threads = _positive_int(self.threads, "threads")
        self.sample_limit = _positive_int(self.sample_limit, "sample_limit")

    @cached_property
    def kept(self) -> np.ndarray:
        return _members(self.cloud, self.result.kept_ids)

    @cached_property
    def ref_index(self) -> NeighborIndex:
        return _target_index(self.metric, self.kref.points)

    @cached_property
    def kept_index(self) -> NeighborIndex:
        return _target_index(self.metric, self.kept)

    # the directed passes go through the module's directed_hausdorff, looked
    # up at call time, so a replaced module attribute (e.g. a profiling
    # wrapper) is what runs
    @cached_property
    def kept_to_ref(self) -> float:
        return directed_hausdorff(self.kept, self.ref_index, threads=self.threads)

    @cached_property
    def ref_to_kept(self) -> float:
        return directed_hausdorff(self.kref.points, self.kept_index,
                                  threads=self.threads)

    @property
    def hausdorff(self) -> float:
        return max(self.kept_to_ref, self.ref_to_kept)

    @cached_property
    def adaptive_hausdorff(self) -> float:
        """:func:`adaptive_hausdorff` of the kept points."""
        return _adaptive_hausdorff(self.kept, self.kref, self.ref_index,
                                   lambda: self.kept_index, self.threads)

    def hausdorff_to_ref(self, points: np.ndarray) -> float:
        """The Hausdorff distance between points and the reference."""
        return max(directed_hausdorff(points, self.ref_index, threads=self.threads),
                   directed_hausdorff(self.kref.points, points, self.metric,
                                      self.threads))


class _Bound(NamedTuple):
    """One named guarantee: the verify_bound inputs it cannot run without,
    and its check. ``check(run, inputs)`` records what it used in
    ``inputs``, raises _NotApplicable on a failed hypothesis, and otherwise
    returns (lhs, rhs)."""

    needs: tuple[str, ...]
    check: Callable[[_Run, dict], tuple[float, float]]


def _certificate_gate(cert: SamplingCertificate | None, kind: DistanceKind,
                      k: int, full: bool = True, adaptive: bool = False,
                      max_c: float | None = None) -> None:
    """The certificate hypotheses of every bound that reads one: present,
    issued for the run's robust-distance kind and k, full unless ``full`` is
    False (a full certificate also meets the weak conditions), adaptive
    exactly when ``adaptive``, and, when ``max_c`` is given, with a uniformity
    constant of at most ``max_c`` (``math.inf``: present at all)."""
    if cert is None:
        raise _NotApplicable("missing certificate")
    if cert.kind.name != kind.name or cert.k != k:
        raise _NotApplicable("certificate does not match the run")
    if full and cert.weak_uniform:
        raise _NotApplicable("needs the full noisy-sample conditions")
    if adaptive != cert.adaptive:
        raise _NotApplicable(
            f"needs {'an adaptive' if adaptive else 'a non-adaptive'} certificate")
    if max_c is not None:
        if cert.uniformity_c is None:
            raise _NotApplicable("uniformity constant absent")
        if cert.uniformity_c > max_c + BOUND_TOLERANCE:
            raise _NotApplicable(f"needs uniformity constant <= {max_c:g}")


def _exact_gate(metric: Metric) -> None:
    """The metric hypothesis of the single-pass bounds (not thmD.2) and the
    parameter-free ones: a coordinate metric whose triangle inequality holds
    exactly."""
    if metric.relaxation != 1.0 or not metric.is_exact:
        raise _NotApplicable("requires an exact metric")


def _declutter_gate(a, adaptive: bool = False, max_c: float | None = None,
                    exact: bool = True) -> None:
    """Shared hypotheses of the single-pass bounds: the run's own (an exact
    metric unless ``exact`` is False) and its certificate's. The vicinity
    factor needs no check: every run uses the paper's 2."""
    if exact:
        _exact_gate(a.metric)
    _certificate_gate(a.certificate, a.result.profile.kind, a.result.profile.k,
                      adaptive=adaptive, max_c=max_c)


def _parfree_gate(a) -> None:
    """Shared hypotheses of the parameter-free bounds: an exact metric and a
    non-degenerate, unclamped run at the theoretical resampling constant."""
    _exact_gate(a.metric)
    trace = a.trace
    if trace.degenerate or not trace.iterations:
        raise _NotApplicable("degenerate run")
    if not abs(trace.resampling_constant - THEORETICAL_C) <= 1e-12:  # NaN too
        raise _NotApplicable("asserted only at the theoretical resampling constant")
    if trace.clamped:
        raise _NotApplicable("k was clamped during the run")


def _single_pass_inputs(a, inputs: dict) -> None:
    inputs.update({"k": a.certificate.k, "kind": a.certificate.kind.name,
                   "epsilon_k": a.certificate.epsilon_k, "n": a.cloud.n,
                   "n_kept": int(a.result.kept.size)})


_SINGLE_PASS = ("cloud", "kref", "result", "certificate")


def _members(cloud: PointCloud, ids) -> np.ndarray:
    """The cloud's points at the given ids, checked by _member_ids."""
    return cloud.points[_member_ids(ids, cloud.n)]


def _hausdorff_bound(lhs: str, factor: float, adaptive: bool = False) -> _Bound:
    """A single-pass bound: the run's quantity named ``lhs`` (one of the
    kept set's Hausdorff distances) <= factor * epsilon_k."""
    def check(a, inputs):
        _single_pass_inputs(a, inputs)
        _declutter_gate(a, adaptive=adaptive)
        return getattr(a, lhs), factor * a.certificate.epsilon_k
    return _Bound(_SINGLE_PASS, check)


def _check_prop34(a, inputs):
    # a lower bound: lhs is the required separation and rhs the measured
    # minimum pairwise distance of the kept set
    _single_pass_inputs(a, inputs)
    _declutter_gate(a, max_c=math.inf)
    c = a.certificate.uniformity_c
    inputs["uniformity_c"] = c
    if a.result.kept.size < 2:
        raise _NotApplicable("fewer than two kept points")
    # a kept point's k = 2 row is itself at 0, then its nearest other point
    rows = a.kept_index.knn_distance_rows(a.kept, 2, a.threads)
    rhs = float(rows[:, 1].min())
    inputs["min_pairwise_kept"] = rhs
    return 2.0 * a.certificate.epsilon_k / c, rhs


def _check_lem42(a, inputs):
    cloud = a.cloud
    k = _positive_int(a.k, "k", cloud.n)
    inputs.update({"k": k, "n": cloud.n, "sample_limit": a.sample_limit})
    index = build_index(cloud, a.metric)
    rng = np.random.default_rng(a.seed)
    m = min(cloud.n, a.sample_limit)
    pick = rng.choice(cloud.n, size=m, replace=False)
    rows = index.knn_distance_rows(cloud.points[pick], k, a.threads)
    kk = float(k)
    factors = np.sqrt(kk / (kk - np.arange(1, k + 1) + 1.0))
    rms = _prefix_values(rows, [k], RMS_K)[k]
    return float((rows - factors[None, :] * rms[:, None]).max()), 0.0


def _check_lem44(a, inputs):
    _positive_finite(a.C, "C")
    eps = a.certificate.epsilon_k
    inputs.update({"k": a.certificate.k, "epsilon_k": eps, "C": float(a.C),
                   "n": a.cloud.n,
                   "n_resampled": int(np.asarray(a.resampled_ids).size)})
    _declutter_gate(a, max_c=2.0)
    lhs = a.hausdorff_to_ref(_members(a.cloud, a.resampled_ids))
    return lhs, (8.0 * a.C + 7.0) * eps


def _check_thm41(a, inputs):
    trace, i0, certificates = a.trace, a.i0, a.certificates
    inputs.update({"i0": int(i0), "C": trace.resampling_constant})
    _parfree_gate(a)
    i_star = trace.iterations[0].i
    if not (1 <= i0 <= i_star):
        raise _NotApplicable("i0 outside the executed scales")
    # full and c <= 2 at i0, at least weak with c <= 2 at every scale above
    for i in range(i0, i_star + 1):
        try:
            _certificate_gate(certificates.get(2 ** i), trace.kind, 2 ** i,
                              full=i == i0, max_c=2.0)
        except _NotApplicable as exc:
            raise _NotApplicable(f"{exc} at scale {i}") from None
    final_ids = trace.iterations[-1].resampled_ids
    eps0 = certificates[2 ** i0].epsilon_k
    inputs.update({"epsilon_i0": eps0, "n_final": int(final_ids.size)})
    return a.hausdorff_to_ref(_members(a.cloud, final_ids)), PARFREE_FACTOR * eps0


def _check_lem45(a, inputs):
    trace = a.trace
    inputs.update({"C": trace.resampling_constant, "kappa": KAPPA_CONSERVE})
    _parfree_gate(a)
    final_pts = _members(a.cloud, trace.iterations[-1].resampled_ids)
    rng = np.random.default_rng(a.seed)
    lhs = -math.inf
    for it in trace.iterations:
        ids = _member_ids(it.input_ids, a.cloud.n)
        vals = it.profile_values
        if len(vals) != ids.size:
            raise GeometryError(f"iteration {it.i} has {len(vals)} profile values "
                                f"for {ids.size} input ids")
        if ids.size > a.sample_limit:
            pick = rng.choice(ids.size, size=a.sample_limit, replace=False)
        else:
            pick = np.arange(ids.size)
        pts = a.cloud.points[ids[pick]]
        d = nearest_cross(a.metric, pts, final_pts, threads=a.threads)[0]
        lhs = max(lhs, float((d - KAPPA_CONSERVE * vals[pick]).max()))
    return lhs, 0.0


def _check_thmD2(a, inputs):
    # relaxed-metric variant of the single-pass guarantee; every robust
    # distance kind is 1-Lipschitz, so only the metric is relaxed
    cx = a.metric.relaxation
    eps = a.certificate.epsilon_k
    inputs.update({"c_x": cx, "c_lip": 1.0, "epsilon_k": eps, "k": a.certificate.k})
    if not a.cloud.is_coordinate:  # the one bound that skips _exact_gate
        raise _NotApplicable("the reference is compared by coordinates; the cloud has none")
    _declutter_gate(a, exact=False)
    if cx >= 2:
        raise _NotApplicable("bound undefined for triangle relaxation >= 2")
    m = relaxed_bound(cx, 1.0)
    inputs["m"] = m
    return a.hausdorff, m * eps


BOUNDS: dict[str, _Bound] = {
    "thm3.3": _hausdorff_bound("hausdorff", 7.0),
    "lem3.1": _hausdorff_bound("ref_to_kept", 5.0),
    "lem3.2": _hausdorff_bound("kept_to_ref", 7.0),
    "prop3.4": _Bound(_SINGLE_PASS, _check_prop34),
    "thm3.7": _hausdorff_bound("adaptive_hausdorff", 7.0, adaptive=True),
    "lem4.2": _Bound(("cloud", "k"), _check_lem42),
    "lem4.4": _Bound(_SINGLE_PASS + ("resampled_ids", "C"), _check_lem44),
    "thm4.1": _Bound(("cloud", "kref", "trace", "certificates", "i0"), _check_thm41),
    "lem4.5": _Bound(("cloud", "trace"), _check_lem45),
    "thmD.2": _Bound(_SINGLE_PASS, _check_thmD2),
}

BOUND_NAMES = tuple(BOUNDS)


def verify_bound(bound_name: str, *, cloud: PointCloud | None = None,
                 metric: Metric | None = None,
                 kref: GroundTruthRef | None = None,
                 certificate: SamplingCertificate | None = None,
                 result: DeclutterResult | None = None,
                 resampled_ids=None,
                 trace: ParfreeTrace | None = None,
                 certificates: dict[int, SamplingCertificate] | None = None,
                 i0: int | None = None,
                 C: float | None = None,
                 k: int | None = None,
                 sample_limit: int = 512,
                 seed: int = 0,
                 threads: int = 1,
                 _run: _Run | None = None) -> BoundCertificate:
    """Evaluate one named guarantee; see BOUND_NAMES for the vocabulary and
    BOUNDS for the inputs each one needs.

    A certificate that does not fit the run (kind, k, full/weak, adaptive,
    uniformity) makes the result not-applicable, the failed hypothesis in
    ``inputs["reason"]``. thmD.2 reads its triangle relaxation from
    ``metric.relaxation``.

    ``_run`` is the evaluation :func:`verify_bounds` shares between its
    bounds; the other inputs are then read from it."""
    bound = _bound(bound_name)
    run = _run if _run is not None else _Run(
        cloud=cloud, metric=metric, kref=kref, certificate=certificate,
        result=result, resampled_ids=resampled_ids, trace=trace,
        certificates=certificates, i0=i0, C=C, k=k, sample_limit=sample_limit,
        seed=seed, threads=threads)
    _check_needs(bound_name, bound, run)
    inputs: dict = {}
    try:
        lhs, rhs = bound.check(run, inputs)
    except _NotApplicable as exc:
        inputs["reason"] = str(exc)
        return BoundCertificate(bound_name=bound_name, lhs=float("nan"),
                                rhs=float("nan"), passed=None, applicable=False,
                                inputs=inputs)
    return BoundCertificate(bound_name=bound_name, lhs=float(lhs), rhs=float(rhs),
                            passed=bool(lhs <= rhs + BOUND_TOLERANCE),
                            applicable=True, inputs=inputs)


def verify_bounds(bound_names, **inputs) -> list[BoundCertificate]:
    """Evaluate named guarantees over one set of :func:`verify_bound`
    inputs, in order: each certificate is the one :func:`verify_bound`
    returns, and the quantities the bounds share are computed once. Every
    name and the inputs it needs are checked before any bound runs."""
    bounds = [_bound(name) for name in bound_names]
    run = _Run(**inputs)
    for name, bound in zip(bound_names, bounds):
        _check_needs(name, bound, run)
    # verify_bound is looked up at call time, as directed_hausdorff is
    return [verify_bound(name, _run=run) for name in bound_names]


def _bound(bound_name: str) -> _Bound:
    if bound_name not in BOUNDS:
        raise GeometryError(f"unknown bound name: {bound_name!r}")
    return BOUNDS[bound_name]


def _check_needs(bound_name: str, bound: _Bound, run: _Run) -> None:
    missing = [need for need in bound.needs if getattr(run, need) is None]
    if missing:
        raise GeometryError(f"{bound_name} needs {', '.join(missing)}")
