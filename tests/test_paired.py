"""The decision rules of ``scripts/paired.py`` on made-up runs, and its
promise to import only the standard library (so that the runs it starts
cannot inherit a grown peak RSS)."""
from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "paired.py"
spec = importlib.util.spec_from_file_location("paired", SCRIPT)
paired = importlib.util.module_from_spec(spec)
spec.loader.exec_module(paired)


def _runs(values, metric="job_s"):
    return [{"correct": True, "failed": 0, "attempted": 3,
             "metrics": {metric: {"value": v}}} for v in values]


def test_the_script_imports_only_the_standard_library():
    roots = set()
    for node in ast.parse(SCRIPT.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            roots.add(node.module.split(".")[0])
    assert roots and roots <= set(sys.stdlib_module_names) | {"__future__"}


def test_a_claim_needs_nine_of_ten_pairs_and_a_gap_wider_than_the_spread():
    parent = [1.00, 1.01, 1.02, 0.99, 1.00, 1.03, 0.98, 1.01, 1.00, 1.02]
    faster = [0.80] * 9
    # the tenth pair ties, which counts for neither side
    got = paired.claim({"parent": _runs(parent), "change": _runs(faster + parent[9:])},
                       "job_s", "lower")
    assert got["pairs_won"] == "9/10" and got["met"]
    got = paired.claim({"parent": _runs(parent), "change": _runs(faster[:8] + parent[8:])},
                       "job_s", "lower")
    assert got["pairs_won"] == "8/10" and not got["met"]
    # every pair won, but by less than the parent's interquartile range
    got = paired.claim({"parent": _runs(parent), "change": _runs([v - 0.005 for v in parent])},
                       "job_s", "lower")
    assert got["pairs_won"] == "10/10" and not got["met"]
    # a higher-is-better metric wins the other way round
    got = paired.claim({"parent": _runs(faster * 2, "rate")[:10],
                        "change": _runs(parent, "rate")}, "rate", "higher")
    assert got["pairs_won"] == "10/10" and got["met"]


def test_regressed_lists_each_metric_worse_beyond_its_bound():
    metrics = {"job_s": {"better": "lower", "bound": 0.25},
               "points_per_s": {"better": "higher", "bound": 0.25}}

    def side(job, rate):
        return {"metrics": {"job_s": {"median": job}, "points_per_s": {"median": rate}}}

    table = {"a": {"parent": side(1.0, 100.0), "change": side(1.2, 80.0)},
             "b": {"parent": side(1.0, 100.0), "change": side(1.3, 70.0)}}
    got = paired.regressed(table, metrics)
    assert [(r["workload"], r["metric"]) for r in got] == [("b", "job_s"),
                                                           ("b", "points_per_s")]
