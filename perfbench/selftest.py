"""Tests of the benchmark harness itself, on small versions of the workloads.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the repository's default test collection:
they exercise the harness, not the library.
"""
from __future__ import annotations

import os
import shutil
import sys

from pathlib import Path

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "fig2_parfree": {"n_curve": 400, "ambient": 100},
    "circle20k_k16": {"n_curve": 3000, "ambient": 300},
    "matrix3600_parfree": {"n_curve": 400, "ambient": 80},
    "certify_cli": {"n_curve": 500, "ambient": 50},
}
COUNTS = ("geometry.distance_cells", "neighbors.build_index_calls",
          "neighbors.knn_rows", "neighbors.ball_queries", "robust.profile_calls",
          "robust.table_reuse_ratio", "decluttering.points_in", "decluttering.kept",
          "parfree.iterations", "parfree.set_changes", "certify.ref_rows",
          "evaluation.bounds_checked", "cli.bytes_written")


@pytest.fixture(scope="session")
def scratch_root():
    """Scratch space inside the checkout's ignored output directory."""
    path = Path(run.OUT) / f"selftest-{os.getpid()}"
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


@pytest.fixture
def tmp_path(scratch_root, request):
    path = scratch_root / request.node.name
    path.mkdir()
    return path


def _small(name):
    return workloads.WORKLOADS[name](**SMALL[name])


def _traced(name, tmp_path, seed=3):
    workdir = tmp_path / f"{name}-{seed}"
    workdir.mkdir(parents=True)
    return run.measure_traced(_small(name), seed, 0.0, str(workdir), tracer.Tracer())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat(name, tmp_path):
    first = _traced(name, tmp_path / "a")
    second = _traced(name, tmp_path / "b")
    for result in (first, second):
        # the traced job was checked against the oracle and against the
        # untraced job's output
        assert result["correct"] and result["attempted"] == 2
    for count in COUNTS:
        assert first["metrics"][count] == second["metrics"][count], count


@pytest.mark.parametrize("name", sorted(SMALL))
def test_layer_self_times_add_up_to_job_wall(name, tmp_path):
    result = _traced(name, tmp_path)
    overhead = max(result["metrics"]["trace.overhead_s"], 0.0)
    for job in result["per_job"]:
        gap = job["traced_wall_s"] - job["layer_self_sum_s"]
        assert -1e-6 <= gap <= overhead + 1e-3


def test_threaded_spans_are_not_double_counted(tmp_path):
    result = _traced("circle20k_k16", tmp_path)
    job = result["per_job"][0]
    assert job["geometry.cross_distances_s"] <= job["traced_wall_s"]
    assert job["robust.profile_s"] <= job["traced_wall_s"]


def test_known_counts(tmp_path):
    fig2 = _traced("fig2_parfree", tmp_path)["metrics"]
    n = sum(SMALL["fig2_parfree"].values())
    assert fig2["parfree.iterations"] == int(np.log2(n))
    assert fig2["robust.profile_calls"] == fig2["parfree.iterations"]
    cli = _traced("certify_cli", tmp_path)["metrics"]
    assert cli["evaluation.bounds_checked"] == 4
    assert cli["certify.ref_rows"] == 10 * SMALL["certify_cli"]["n_curve"]


def test_instrumentation_is_removed_after_use():
    from declutter import neighbors, parfree, robust
    before = (parfree.profile, robust.profile, neighbors.NeighborIndex.knn_distance_rows)
    with tracer.Tracer().instrument():
        assert parfree.profile is not before[0]
    after = (parfree.profile, robust.profile, neighbors.NeighborIndex.knn_distance_rows)
    assert after == before


@pytest.mark.parametrize("name", sorted(SMALL))
def test_check_rejects_a_wrong_output(name, tmp_path):
    workload = _small(name)
    state = workload.setup(5, str(tmp_path))
    expected = workload.oracle(state)
    output = workload.job(state)
    workload.check(state, output, expected)
    if name == "certify_cli":
        wrong = [*output[:2], (2, output[2][1])]
    elif name == "circle20k_k16":
        output.kept = output.kept[:-1]
        wrong = output
    else:
        wrong = (output[0][:-1], output[1])
    with pytest.raises(workloads.CheckFailed):
        workload.check(state, wrong, expected)


def test_setup_is_deterministic(tmp_path):
    workload = _small("matrix3600_parfree")
    _, _, deterministic = run._setup(workload, 9, str(tmp_path), 2)
    assert deterministic
