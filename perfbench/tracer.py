"""Spans at the library's module boundaries, recorded from outside ``src/``.

:meth:`Tracer.instrument` replaces every public function of the package's
modules with a timing wrapper, in every module namespace where callers look
it up (``parfree.profile``, ``decluttering.profile``, ``robust.profile``, ...),
plus the query methods of ``neighbors.NeighborIndex``. Leaving the context
restores the originals, so untraced jobs run the unmodified code.

A span records its function, layer (the module that defines the function),
start, end, parent span, job id and an optional count. Spans opened on a
worker thread take as parent the span open on the thread that started the
tracer, which is the caller waiting for the pool.

Self time generalises "duration minus the part covered by child spans" to
concurrent children: each instant of a job is split equally among the spans
that are open at that instant and have no open child. The self times of a
job's spans therefore add up to the job's wall time exactly.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

PACKAGE = "declutter"
LAYERS = ("geometry", "neighbors", "robust", "decluttering", "parfree",
          "certify", "evaluation", "synthgen", "cli")
BENCH_LAYER = "bench"
INDEX_METHODS = ("k_nearest", "knn_distance_rows", "ball_ids", "ball_ids_many")


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    """Collects spans in memory while its instrumentation is active."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, name, start, end, parent, job, count]
        self.job = -1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._subsets: dict[int, tuple] = {}  # id(sub-cloud) -> (cloud, key)
        self._counters = {
            ("geometry", "cross_distances"): lambda a, k, r: r.size,
            ("geometry", "subset_cloud"): self._note_subset,
            ("neighbors", "build_index"): lambda a, k, r: 1,
            ("neighbors", "knn_distance_rows"): lambda a, k, r: r.shape[0],
            ("neighbors", "k_nearest"): lambda a, k, r: 1,
            ("neighbors", "ball_ids"): lambda a, k, r: 1,
            ("neighbors", "ball_ids_many"): lambda a, k, r: len(r),
            ("robust", "profile"): self._profile_key,
            ("decluttering", "declutter"): lambda a, k, r: (
                _arg(a, k, 0, "cloud").n, int(r.kept.size)),
            ("parfree", "parfree_declutter"): lambda a, k, r: (
                len(r[1].iterations),
                sum(it.resampled_ids.size != it.input_ids.size
                    for it in r[1].iterations)),
            ("certify", "certify"): lambda a, k, r: _arg(a, k, 2, "kref").cloud.n,
            ("certify", "certify_scales"): lambda a, k, r: _arg(a, k, 2, "kref").cloud.n,
            ("evaluation", "verify_bound"): lambda a, k, r: 1,
        }

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._owner:
            return self._owner_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([layer, name, time.perf_counter(), None, parent,
                               self.job, None])
        stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, layer: str, name: str, job: int):
        """A root span for one job (or set-up) of the benchmark itself."""
        self.job = job
        idx = self.open(layer, name)
        try:
            yield idx
        finally:
            self.close(idx)
            self._subsets.clear()

    def _wrap(self, layer: str, fn):
        name = fn.__name__
        counter = self._counters.get((layer, name))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(layer, name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.spans[idx][6] = counter(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def instrument(self):
        """Wrap the package's public functions for the duration of the block."""
        modules = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrapped: dict[int, object] = {}
        patched: list[tuple[object, str, object]] = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or inspect.isgeneratorfunction(value)):
                    continue
                home = value.__module__.split(".")
                if home[0] != PACKAGE or home[-1] not in LAYERS:
                    continue
                if id(value) not in wrapped:
                    wrapped[id(value)] = self._wrap(home[-1], value)
                patched.append((module, attr, value))
                setattr(module, attr, wrapped[id(value)])
        index_cls = importlib.import_module(f"{PACKAGE}.neighbors").NeighborIndex
        for attr in INDEX_METHODS:
            original = vars(index_cls)[attr]
            patched.append((index_cls, attr, original))
            setattr(index_cls, attr, self._wrap("neighbors", original))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    # -- cloud identity for the table-reuse ratio -----------------------------

    def _note_subset(self, args, kwargs, result) -> None:
        """Name a sub-cloud by the ids it was cut from (no count)."""
        ids = np.asarray(_arg(args, kwargs, 2, "ids"), dtype=np.intp)
        key = ("ids", hashlib.blake2b(ids.tobytes(), digest_size=16).hexdigest())
        sub_cloud = result[0]
        self._subsets[id(sub_cloud)] = (sub_cloud, key)  # keeps the id alive

    def _profile_key(self, args, kwargs, result):
        cloud = _arg(args, kwargs, 0, "cloud")
        if id(cloud) in self._subsets:
            return self._subsets[id(cloud)][1]
        if cloud.is_coordinate:
            data = cloud.coords
        else:
            data = _arg(args, kwargs, 1, "index").metric.matrix
        return ("data", hashlib.blake2b(np.ascontiguousarray(data).tobytes(),
                                        digest_size=16).hexdigest())


class JobProfile:
    """Self and inclusive times and counts of one job's spans.

    The inclusive time of a group of functions is the self time of every span
    inside a call to one of them, counted once even when the calls nest.
    """

    def __init__(self, spans: list[list], job: int):
        ids = [i for i, s in enumerate(spans) if s[5] == job]
        roots = [i for i in ids if spans[i][4] == -1]
        if len(roots) != 1:
            raise ValueError(f"job {job} has {len(roots)} root spans")
        root = spans[roots[0]]
        self.wall = root[3] - root[2]
        self.self_by_name: dict[tuple, float] = defaultdict(float)
        self.self_by_layer: dict[str, float] = defaultdict(float)
        self.counts: dict[tuple, list] = defaultdict(list)
        self._by_chain: dict[frozenset, float] = defaultdict(float)
        chains: dict[int, frozenset] = {}
        interned: dict[tuple, frozenset] = {}
        shares = _self_shares(spans, ids)
        for i in ids:  # a parent's index is below its children's
            layer, name, parent = spans[i][0], spans[i][1], spans[i][4]
            base = chains.get(parent, frozenset())
            chain = interned.get((base, layer, name))
            if chain is None:
                chain = interned[base, layer, name] = base | {(layer, name)}
            chains[i] = chain
            self._by_chain[chain] += shares[i]
            self.self_by_name[layer, name] += shares[i]
            self.self_by_layer[layer] += shares[i]
            if spans[i][6] is not None:
                self.counts[layer, name].append(spans[i][6])

    def incl(self, layer: str, *names: str) -> float:
        """Inclusive time of the named functions of a layer (all if none)."""
        return sum(t for chain, t in self._by_chain.items()
                   if any(key[0] == layer and (not names or key[1] in names)
                          for key in chain))

    def total(self, layer: str, name: str, field: int | None = None):
        """Sum of the counts recorded by a function's spans."""
        return sum(v if field is None else v[field]
                   for v in self.counts[layer, name])


def layer_metrics(p: JobProfile) -> dict[str, float]:
    """The per-layer metrics of one traced job, by name."""
    profiles = p.counts["robust", "profile"]
    return {
        "geometry.cross_distances_s": p.incl("geometry", "cross_distances"),
        "geometry.distance_cells": p.total("geometry", "cross_distances"),
        "geometry.subset_cloud_s": p.incl("geometry", "subset_cloud"),
        "geometry.load_s": p.incl("geometry", "load_points", "load_matrix"),
        "neighbors.build_index_s": p.incl("neighbors", "build_index"),
        "neighbors.build_index_calls": p.total("neighbors", "build_index"),
        "neighbors.knn_rows_s": p.incl("neighbors", "knn_distance_rows", "k_nearest"),
        "neighbors.knn_rows": (p.total("neighbors", "knn_distance_rows")
                               + p.total("neighbors", "k_nearest")),
        "neighbors.ball_s": p.incl("neighbors", "ball_ids", "ball_ids_many"),
        "neighbors.ball_queries": (p.total("neighbors", "ball_ids")
                                   + p.total("neighbors", "ball_ids_many")),
        "robust.profile_s": p.incl("robust", "profile"),
        "robust.profile_calls": len(profiles),
        "robust.aggregate_self_s": p.self_by_layer["robust"],
        "robust.table_reuse_ratio": (len(set(profiles)) / len(profiles)
                                     if profiles else 0.0),
        "decluttering.greedy_self_s": p.self_by_layer["decluttering"],
        "decluttering.points_in": p.total("decluttering", "declutter", 0),
        "decluttering.kept": p.total("decluttering", "declutter", 1),
        "parfree.loop_self_s": p.self_by_name["parfree", "parfree_declutter"],
        "parfree.resample_s": p.incl("parfree", "resample_step"),
        "parfree.iterations": p.total("parfree", "parfree_declutter", 0),
        "parfree.set_changes": p.total("parfree", "parfree_declutter", 1),
        "certify.certify_s": p.incl("certify"),
        "certify.ref_rows": (p.total("certify", "certify")
                             + p.total("certify", "certify_scales")),
        "evaluation.verify_bound_s": p.incl("evaluation", "verify_bound"),
        "evaluation.hausdorff_s": p.incl("evaluation", "hausdorff",
                                         "directed_hausdorff", "adaptive_hausdorff"),
        "evaluation.bounds_checked": p.total("evaluation", "verify_bound"),
        "cli.self_s": p.self_by_layer["cli"],
    }


def _self_shares(spans: list[list], ids: list[int]) -> dict[int, float]:
    """Self time per span: each instant is split equally among the open spans
    that have no open child."""
    events = []
    for i in ids:
        events.append((spans[i][2], 1, i))   # opens: parents before children
        events.append((spans[i][3], 0, -i))  # closes first, children first
    events.sort()
    members = set(ids)
    open_children: dict[int, int] = {}
    leaves: set[int] = set()
    shares = dict.fromkeys(ids, 0.0)
    last = None
    for t, is_open, signed in events:
        if leaves:
            portion = (t - last) / len(leaves)
            for leaf in leaves:
                shares[leaf] += portion
        last = t
        i = signed if is_open else -signed
        parent = spans[i][4]
        tracked = parent in members
        if is_open:
            open_children[i] = 0
            leaves.add(i)
            if tracked:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            leaves.discard(i)
            del open_children[i]
            if tracked:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return shares
