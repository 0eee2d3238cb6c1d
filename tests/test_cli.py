import argparse
import collections
import json
import math
import re
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import declutter as dc
from declutter import cli
from declutter.cli import main


def _write_line_points(path):
    path.write_text("0\n1\n2\n100\n")


def test_declutter_line_example(tmp_path, capsys):
    pts = tmp_path / "points.csv"
    _write_line_points(pts)
    out = tmp_path / "run"
    rc = main(["declutter", "--points", str(pts), "--k", "2",
               "--out-dir", str(out)])
    assert rc == 0
    kept = dc.load_points(out / "kept.csv")
    assert kept.ravel().tolist() == [0.0, 2.0]
    report = json.loads((out / "report.json").read_text())
    assert report["result"]["kept_order"] == [0, 2]
    assert report["schema_version"] == 1
    assert report["library_version"] == dc.__version__


def test_gen_roundtrip_and_determinism(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["gen", "--shape", "circle", "--n", "64", "--sigma", "0.02",
            "--ambient", "10", "--seed", "5"]
    assert main(args + ["--out-dir", str(out_a)]) == 0
    assert main(args + ["--out-dir", str(out_b)]) == 0
    pa = dc.load_points(out_a / "points.csv")
    pb = dc.load_points(out_b / "points.csv")
    assert np.array_equal(pa, pb)  # identical config -> identical outputs
    dc.save_points(out_a / "again.csv", pa)
    assert np.array_equal(dc.load_points(out_a / "again.csv"), pa)
    tags = np.loadtxt(out_a / "tags.csv")
    assert tags.sum() == 10


def test_parfree_monotone_trace(tmp_path):
    gen_dir = tmp_path / "gen"
    assert main(["gen", "--shape", "circle", "--n", "128", "--sigma", "0.02",
                 "--ambient", "16", "--seed", "2", "--out-dir", str(gen_dir)]) == 0
    run_dir = tmp_path / "run"
    rc = main(["parfree", "--points", str(gen_dir / "points.csv"),
               "--out-dir", str(run_dir), "--dump-iterations"])
    assert rc == 0
    trace = json.loads((run_dir / "trace.json").read_text())["trace"]
    cards = [it["n_resampled"] for it in trace["iterations"]]
    assert all(a >= b for a, b in zip(cards, cards[1:]))
    assert (run_dir / "iterations").is_dir()


def test_certify_eval_strict_pipeline(tmp_path):
    # near-regular sample: bounds should certify and pass end to end
    shape = dc.Circle((0.0, 0.0), 1.0)
    kref, sample = dc.sample_shape(shape, 128, seed=None)
    noisy = dc.perturb_gaussian(sample, 0.0005, 3)
    pts = tmp_path / "points.csv"
    ref = tmp_path / "reference.csv"
    dc.save_points(pts, noisy)
    dc.save_points(ref, kref.points)

    certs = tmp_path / "certs.json"
    assert main(["certify", "--points", str(pts), "--reference", str(ref),
                 "--k", "4", "--out", str(certs)]) == 0
    run = tmp_path / "run"
    assert main(["declutter", "--points", str(pts), "--k", "4",
                 "--resample-C", str(dc.THEORETICAL_C),
                 "--out-dir", str(run)]) == 0
    rc = main(["eval", "--points", str(pts), "--reference", str(ref),
               "--bounds", "thm3.3,lem3.1,lem3.2,prop3.4",
               "--report", str(run / "report.json"),
               "--certificates", str(certs), "--strict"])
    assert rc == 0
    rc = main(["eval", "--points", str(pts), "--reference", str(ref),
               "--bounds", "lem4.4",
               "--report", str(run / "report.json"),
               "--certificates", str(certs),
               "--resampled-ids", str(run / "resampled_ids.csv"),
               "--C", str(dc.THEORETICAL_C), "--strict"])
    assert rc == 0


def test_eval_lem44_reads_the_reports_resampling_constant(tmp_path, capsys):
    # lem4.4 checks the resampled ids at the constant that produced them: a
    # larger --C would make the bound vacuous, so one that differs exits 1
    shape = dc.Circle((0.0, 0.0), 1.0)
    kref, sample = dc.sample_shape(shape, 128, seed=None)
    pts = tmp_path / "points.csv"
    ref = tmp_path / "reference.csv"
    dc.save_points(pts, dc.perturb_gaussian(sample, 0.0005, 3))
    dc.save_points(ref, kref.points)
    certs = tmp_path / "certs.json"
    assert main(["certify", "--points", str(pts), "--reference", str(ref),
                 "--k", "4", "--out", str(certs)]) == 0
    run = tmp_path / "run"
    plain = tmp_path / "plain"
    assert main(["declutter", "--points", str(pts), "--k", "4",
                 "--resample-C", "2", "--out-dir", str(run)]) == 0
    assert main(["declutter", "--points", str(pts), "--k", "4",
                 "--out-dir", str(plain)]) == 0
    checked = tmp_path / "checked.json"
    base = ["eval", "--points", str(pts), "--reference", str(ref),
            "--certificates", str(certs), "--bounds", "lem4.4",
            "--resampled-ids", str(run / "resampled_ids.csv"), "--strict",
            "--out", str(checked)]

    def checked_C(argv):
        assert main(argv) == 0
        (row,) = json.loads(checked.read_text())["bounds"]
        assert row["applicable"] and row["passed"]
        return row["inputs"]["C"]

    recorded = base + ["--report", str(run / "report.json")]
    assert checked_C(recorded) == 2.0
    assert checked_C(recorded + ["--C", "2"]) == 2.0
    capsys.readouterr()
    assert main(recorded + ["--C", "1000"]) == 1
    err = capsys.readouterr().err
    assert "1000.0" in err and "2.0" in err and "resample_C" in err

    # a bound that never reads C leaves an unused --C alone
    other = [a if a != "lem4.4" else "thm3.3" for a in recorded]
    assert main(other + ["--C", "1000"]) == 0
    (row,) = json.loads(checked.read_text())["bounds"]
    assert row["bound_name"] == "thm3.3" and row["passed"] and "C" not in row["inputs"]

    # a report without resample_C leaves --C required
    absent = base + ["--report", str(plain / "report.json")]
    assert main(absent) == 1
    assert capsys.readouterr().err.startswith("error: lem4.4 needs --C")
    assert checked_C(absent + ["--C", "2"]) == 2.0


@pytest.mark.parametrize("recorded", ["4", True])
def test_eval_reads_the_recorded_resampling_constant_as_a_number(tmp_path, capsys,
                                                                 recorded):
    # a numeric string or a boolean is no recorded constant: read as a float,
    # true would check lem4.4 at C = 1 on ids resampled at C = 4
    kref, sample = dc.sample_shape(dc.Circle((0.0, 0.0), 1.0), 128, seed=None)
    pts, ref = tmp_path / "points.csv", tmp_path / "reference.csv"
    dc.save_points(pts, dc.perturb_gaussian(sample, 0.0005, 3))
    dc.save_points(ref, kref.points)
    certs, run = tmp_path / "certs.json", tmp_path / "run"
    assert main(["certify", "--points", str(pts), "--reference", str(ref),
                 "--k", "4", "--out", str(certs)]) == 0
    assert main(["declutter", "--points", str(pts), "--k", "4",
                 "--resample-C", "4", "--out-dir", str(run)]) == 0
    report = run / "report.json"
    data = json.loads(report.read_text())
    data["config"]["resample_C"] = recorded
    report.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["eval", "--points", str(pts), "--reference", str(ref),
                 "--certificates", str(certs), "--bounds", "lem4.4",
                 "--resampled-ids", str(run / "resampled_ids.csv"),
                 "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert str(report) in err and "config resample_C must be a number" in err


def test_eval_parfree_bounds(tmp_path):
    shape = dc.Circle((0.0, 0.0), 1.0)
    kref, sample = dc.sample_shape(shape, 128, seed=None)
    noisy = dc.perturb_gaussian(sample, 0.0005, 4)
    pts = tmp_path / "points.csv"
    ref = tmp_path / "reference.csv"
    dc.save_points(pts, noisy)
    dc.save_points(ref, kref.points)
    run = tmp_path / "run"
    assert main(["parfree", "--points", str(pts), "--out-dir", str(run),
                 "--dump-iterations"]) == 0
    certs = tmp_path / "certs.json"
    assert main(["certify", "--points", str(pts), "--reference", str(ref),
                 "--k", "2,4,8,16,32,64,128", "--out", str(certs)]) == 0
    out = tmp_path / "bounds.json"
    rc = main(["eval", "--points", str(pts), "--reference", str(ref),
               "--bounds", "lem4.5,thm4.1,lem4.2", "--k", "8",
               "--trace-dir", str(run), "--certificates", str(certs),
               "--i0", "1", "--strict", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())["bounds"]
    assert all(b["passed"] for b in data if b["applicable"])
    assert any(b["bound_name"] == "thm4.1" and b["applicable"] for b in data)


def test_usage_errors_exit_1(tmp_path, capsys):
    assert main(["declutter", "--k", "2", "--out-dir", str(tmp_path)]) == 1
    missing = tmp_path / "nope.csv"
    assert main(["declutter", "--points", str(missing), "--k", "2",
                 "--out-dir", str(tmp_path)]) == 1
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    assert main(["declutter", "--points", str(bad), "--k", "2",
                 "--out-dir", str(tmp_path)]) == 1
    both = tmp_path / "p.csv"
    _write_line_points(both)
    assert main(["declutter", "--points", str(both), "--matrix", str(both),
                 "--k", "2", "--out-dir", str(tmp_path)]) == 1
    assert main(["repro", "nofig", "--out-dir", str(tmp_path)]) == 1
    assert main(["eval", "--points", str(both), "--bounds", "bogus"]) == 1


@pytest.mark.parametrize("bounds", ["", ",", ",,"])
def test_eval_with_no_bounds_exits_1(tmp_path, capsys, bounds):
    # an empty list would check nothing, and --strict would pass it
    pts = tmp_path / "points.csv"
    _write_line_points(pts)
    assert main(["eval", "--points", str(pts), "--bounds", bounds, "--strict"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--bounds" in err


@pytest.mark.parametrize("step", ["gen", "declutter", "parfree", "certify",
                                  "eval", "repro"])
def test_unwritable_output_exits_1(tmp_path, capsys, step):
    gen = tmp_path / "gen"
    assert main(["gen", "--shape", "circle", "--n", "40", "--ambient", "4",
                 "--out-dir", str(gen)]) == 0
    pts, ref = str(gen / "points.csv"), str(gen / "reference.csv")
    taken = tmp_path / "taken"
    taken.write_text("")
    missing = str(tmp_path / "missing" / "out.json")
    argv = {
        "gen": ["gen", "--shape", "circle", "--n", "40", "--out-dir", str(taken)],
        "declutter": ["declutter", "--points", pts, "--k", "4",
                      "--out-dir", str(taken / "sub")],
        "parfree": ["parfree", "--points", pts, "--out-dir", str(taken)],
        "certify": ["certify", "--points", pts, "--reference", ref, "--k", "4",
                    "--out", missing],
        "eval": ["eval", "--points", pts, "--bounds", "lem4.2", "--k", "4",
                 "--out", missing],
        "repro": ["repro", "fig1", "--out-dir", str(taken)],
    }[step]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_overflowing_input_exits_1(tmp_path, capsys):
    pts = np.random.default_rng(8).normal(size=(300, 2))
    path = tmp_path / "huge.csv"
    dc.save_points(path, pts / np.abs(pts).max() * 2.5e159)
    assert main(["declutter", "--points", str(path), "--k", "8",
                 "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "overflow float64" in err and "rescale" in err


def test_eval_strict_failure_exits_2(tmp_path):
    # forge a certificate with epsilon too small: thm3.3 must fail hard
    pts = tmp_path / "points.csv"
    _write_line_points(pts)
    ref = tmp_path / "ref.csv"
    ref.write_text("0\n1\n2\n")
    run = tmp_path / "run"
    assert main(["declutter", "--points", str(pts), "--k", "2",
                 "--out-dir", str(run)]) == 0
    certs = {"schema_version": 1, "certificates": [
        {"k": 2, "kind": "rms-k", "epsilon_k": 1e-6, "uniformity_c": 1.5,
         "weak_uniform": False, "adaptive": False, "conditions": {}}]}
    cert_path = tmp_path / "certs.json"
    cert_path.write_text(json.dumps(certs))
    rc = main(["eval", "--points", str(pts), "--reference", str(ref),
               "--bounds", "thm3.3", "--report", str(run / "report.json"),
               "--certificates", str(cert_path), "--strict"])
    assert rc == 2


def test_eval_seed_reaches_the_bounds(tmp_path, monkeypatch):
    # lem4.2 and lem4.5 sample with verify_bound's seed
    pts = tmp_path / "points.csv"
    _write_line_points(pts)
    seeds = []
    real = cli.verify_bound

    def recorded(name, **kwargs):
        seeds.append(kwargs.get("seed"))
        return real(name, **kwargs)

    monkeypatch.setattr(cli, "verify_bound", recorded)
    for seed in ("0", "5"):
        assert main(["eval", "--points", str(pts), "--bounds", "lem4.2",
                     "--k", "2", "--seed", seed]) == 0
    assert seeds == [0, 5]


def test_matrix_input_pipeline(tmp_path):
    m = dc.cross_distances(dc.Metric(), np.arange(6, dtype=float).reshape(-1, 1),
                           np.arange(6, dtype=float).reshape(-1, 1))
    mat = tmp_path / "matrix.csv"
    np.savetxt(mat, m, fmt="%.17g", delimiter=",")
    out = tmp_path / "run"
    rc = main(["declutter", "--matrix", str(mat), "--k", "2",
               "--out-dir", str(out)])
    assert rc == 0
    kept = np.loadtxt(out / "kept_ids.csv", dtype=int)
    assert kept.size >= 1


def test_repro_fig1_outputs(tmp_path):
    out = tmp_path / "fig1"
    rc = main(["repro", "fig1", "--n", "160", "--out-dir", str(out)])
    assert rc == 0
    for stem in ("declutter_k2", "declutter_k10", "parfree"):
        assert (out / f"{stem}.csv").exists()
        assert (out / f"{stem}.svg").exists()
    report = json.loads((out / "report.json").read_text())
    assert report["outputs"]["k10"] < report["outputs"]["k2"]


def test_repro_fig2_small_scale(tmp_path):
    out = tmp_path / "fig2"
    rc = main(["repro", "fig2", "--n", "700", "--ambient", "120",
               "--out-dir", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["surviving_ambient"] == 0
    assert (out / "parfree.svg").exists()


def test_repro_fig4_and_fig5_smoke(tmp_path):
    out4 = tmp_path / "fig4"
    assert main(["repro", "fig4", "--n", "400", "--ambient", "60",
                 "--out-dir", str(out4)]) == 0
    assert (out4 / "declutter_k9.csv").exists()
    assert (out4 / "declutter_k30.csv").exists()
    out5 = tmp_path / "fig5"
    assert main(["repro", "fig5", "--n", "300", "--ambient", "40",
                 "--out-dir", str(out5)]) == 0
    pts = dc.load_points(out5 / "parfree.csv")
    assert pts.shape[1] == 3  # 3-D recipe emits CSV, no SVG
    assert not (out5 / "parfree.svg").exists()


def test_threads_flag_equals_single_thread(tmp_path):
    gen_dir = tmp_path / "gen"
    assert main(["gen", "--shape", "circle", "--n", "150", "--sigma", "0.03",
                 "--ambient", "20", "--seed", "3", "--out-dir", str(gen_dir)]) == 0
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out, threads in ((a, "1"), (b, "4")):
        assert main(["declutter", "--points", str(gen_dir / "points.csv"),
                     "--k", "6", "--threads", threads,
                     "--out-dir", str(out)]) == 0
    ra = json.loads((a / "report.json").read_text())["result"]
    rb = json.loads((b / "report.json").read_text())["result"]
    assert ra["kept_order"] == rb["kept_order"]
    assert ra["profile_values"] == rb["profile_values"]



@pytest.mark.parametrize("threads", ["0", "-1", "True", "1.5"])
def test_bad_threads_flag_exits_1(tmp_path, capsys, threads):
    # a kd-tree query used to die in scipy on 0 and run serially on dense
    # blocks; every subcommand that takes --threads refuses it when parsing
    gen_dir = tmp_path / "gen"
    assert main(["gen", "--shape", "circle", "--n", "150", "--sigma", "0.03",
                 "--ambient", "20", "--seed", "3", "--out-dir", str(gen_dir)]) == 0
    points = str(gen_dir / "points.csv")
    reference = str(gen_dir / "reference.csv")
    runs = [["declutter", "--points", points, "--k", "6", "--strategy", "kdtree",
             "--out-dir", str(tmp_path / "run")],
            ["parfree", "--points", points, "--out-dir", str(tmp_path / "pf")],
            ["certify", "--points", points, "--reference", reference, "--k", "8"],
            ["eval", "--points", points, "--bounds", "lem4.2", "--k", "8"],
            ["repro", "fig1", "--n", "60", "--out-dir", str(tmp_path / "fig1")]]
    for argv in runs:
        capsys.readouterr()
        assert main([*argv, "--threads", threads]) == 1, argv[0]
        assert "threads" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["gen"]  # nothing written


@pytest.mark.parametrize("flags", [
    ["declutter", "--k", "4", "--resample-C", "nan"],
    ["declutter", "--k", "4", "--resample-C", "inf"],
    ["parfree", "--C", "inf"],
    ["parfree", "--C", "nan"],
])
def test_infinite_constants_exit_1(tmp_path, capsys, flags):
    # a Gaussian cloud with five coincident points, whose robust value is 0
    pts = np.random.default_rng(0).normal(size=(300, 2))
    pts[:5] = pts[0]
    points = tmp_path / "points.csv"
    dc.save_points(points, pts)
    argv = [flags[0], "--points", str(points), *flags[1:],
            "--out-dir", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite and positive" in err


@pytest.mark.parametrize("strategy", ["auto", "kdtree", "brute"])
def test_declutter_resamples_on_its_own_index(tmp_path, monkeypatch, strategy):
    # --resample-C reuses the index the declutter pass built over the cloud,
    # and writes what declutter followed by resample_step gives
    pts = np.random.default_rng(21).normal(size=(600, 2))
    pts[:40] *= 6.0
    points = tmp_path / "points.csv"
    dc.save_points(points, pts)
    loaded, builds = [], []
    load = cli._load_cloud
    init = dc.NeighborIndex.__init__

    def loading(args):
        loaded.append(load(args))
        return loaded[-1]

    def building(self, cloud, *args, **kwargs):
        builds.append(cloud)
        init(self, cloud, *args, **kwargs)

    monkeypatch.setattr(cli, "_load_cloud", loading)
    monkeypatch.setattr(dc.NeighborIndex, "__init__", building)
    run = tmp_path / "run"
    assert main(["declutter", "--points", str(points), "--k", "8", "--resample-C", "4",
                 "--strategy", strategy, "--out-dir", str(run)]) == 0
    cloud, metric = loaded[0]
    assert sum(c is cloud for c in builds) == 1
    monkeypatch.undo()
    result = dc.declutter(cloud, metric, 8, strategy=strategy)
    resampled = dc.resample_step(cloud, metric, result.kept, result.profile, 4.0,
                                 strategy=strategy)
    assert 0 < result.kept.size < resampled.size < cloud.n
    want = tmp_path / "want"
    want.mkdir()
    dc.save_ids(want / "kept_ids.csv", result.kept_ids)
    dc.save_points(want / "kept.csv", pts[result.kept_ids])
    dc.save_ids(want / "resampled_ids.csv", resampled)
    dc.save_points(want / "resampled.csv", pts[resampled])
    report = json.loads((run / "report.json").read_text())
    assert report["result"] == result.to_dict()
    for path in want.iterdir():
        assert (run / path.name).read_bytes() == path.read_bytes(), path.name


@pytest.mark.parametrize("flags", [
    ["--clearance", "nan"],
    ["--clearance", "-1", "--ambient", "5"],
    ["--ambient", "-5"],
])
def test_gen_refuses_a_bad_clearance_or_ambient_count(tmp_path, capsys, flags):
    # each used to exit 0: the clearance was read only when ambient points
    # were asked for, and then a NaN or negative one was ignored
    out = tmp_path / "gen"
    assert main(["gen", "--shape", "circle", "--n", "50", *flags,
                 "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("figure", ["fig1", "fig2", "fig4", "fig5"])
def test_repro_n_0_exits_1(tmp_path, capsys, figure):
    # --n 0 used to run the recipe at its default size
    assert main(["repro", figure, "--n", "0", "--out-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(tmp_path.iterdir())


def test_emit_figures_flag(tmp_path):
    out = tmp_path / "gen"
    assert main(["gen", "--shape", "circle", "--n", "50", "--ambient", "5",
                 "--emit-figures", "--out-dir", str(out)]) == 0
    assert (out / "input.svg").exists()
    run = tmp_path / "run"
    assert main(["declutter", "--points", str(out / "points.csv"), "--k", "3",
                 "--emit-figures", "--out-dir", str(run)]) == 0
    assert (run / "declutter.svg").exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_eval_refuses_empty_id_files(tmp_path, capsys):
    # an empty --resampled-ids file or trace id dump exits 1 naming the file,
    # with no numpy warning; lem4.4 alone would be not-applicable here (the
    # certificate's uniformity constant is above 2), so no bound hides it
    gen = tmp_path / "gen"
    assert main(["gen", "--shape", "circle", "--n", "128", "--sigma", "0.02",
                 "--ambient", "16", "--seed", "2", "--out-dir", str(gen)]) == 0
    pts, ref = str(gen / "points.csv"), str(gen / "reference.csv")
    certs, run, pf = tmp_path / "certs.json", tmp_path / "run", tmp_path / "pf"
    assert main(["certify", "--points", pts, "--reference", ref, "--k", "4",
                 "--out", str(certs)]) == 0
    assert main(["declutter", "--points", pts, "--k", "4", "--resample-C", "4",
                 "--out-dir", str(run)]) == 0
    assert main(["parfree", "--points", pts, "--out-dir", str(pf),
                 "--dump-iterations"]) == 0
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    dump = sorted((pf / "iterations").glob("*_kept_ids.csv"))[0]
    dump.write_text("")
    capsys.readouterr()
    cases = [
        (["--reference", ref, "--bounds", "lem4.4", "--report", str(run / "report.json"),
          "--certificates", str(certs), "--resampled-ids", str(empty)], empty),
        (["--bounds", "lem4.5", "--trace-dir", str(pf)], dump),
    ]
    for extra, culprit in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--points", pts] + extra) == 1
        err = capsys.readouterr().err
        assert str(culprit) in err and "has no data rows" in err


# flags each bound needs besides the input cloud (README, "eval flags")
EVAL_FLAGS_NEEDED = {
    "thm3.3": {"--reference", "--report", "--certificates"},
    "lem3.1": {"--reference", "--report", "--certificates"},
    "lem3.2": {"--reference", "--report", "--certificates"},
    "prop3.4": {"--reference", "--report", "--certificates"},
    "thm3.7": {"--reference", "--report", "--certificates"},
    "lem4.2": {"--k"},
    "lem4.4": {"--reference", "--report", "--certificates", "--resampled-ids",
               "--C"},
    "thm4.1": {"--reference", "--trace-dir", "--certificates", "--i0"},
    "lem4.5": {"--trace-dir"},
    "thmD.2": {"--reference", "--report", "--certificates"},
}


@pytest.mark.parametrize("name", dc.BOUND_NAMES)
def test_eval_names_missing_flags(tmp_path, capsys, name):
    pts = tmp_path / "points.csv"
    _write_line_points(pts)
    assert main(["eval", "--points", str(pts), "--bounds", name]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {name} needs ")
    assert set(re.findall(r"--[A-Za-z0-9-]+", err)) == EVAL_FLAGS_NEEDED[name]


def test_eval_malformed_artifacts_exit_1(tmp_path, capsys):
    pts = tmp_path / "points.csv"
    _write_line_points(pts)
    ref = tmp_path / "ref.csv"
    ref.write_text("0\n1\n2\n")
    run = tmp_path / "run"
    assert main(["declutter", "--points", str(pts), "--k", "2",
                 "--out-dir", str(run)]) == 0
    good_report = str(run / "report.json")
    bad_certs = tmp_path / "certs.json"
    bad_certs.write_text(json.dumps({"certificates": [{"k": 2}]}))
    bad_report = tmp_path / "report.json"
    bad_report.write_text(json.dumps({"result": {"k": 2}}))
    bad_trace = tmp_path / "pf"
    bad_trace.mkdir()
    (bad_trace / "trace.json").write_text(json.dumps({"trace": {"iterations": [{}]}}))
    bad_dumps = tmp_path / "pf-dumps"
    (bad_dumps / "iterations").mkdir(parents=True)
    (bad_dumps / "trace.json").write_text(json.dumps({"trace": {
        "iterations": [{"i": 1, "k": 2, "k_effective": 2}],
        "resampling_constant": dc.THEORETICAL_C, "kind": "rms-k"}}))
    for part in ("input_ids", "kept_ids", "resampled_ids", "profile"):
        (bad_dumps / "iterations" / f"iter_01_{part}.csv").write_text("x\n")
    bad_ids = tmp_path / "ids.csv"
    bad_ids.write_text("x\n")
    base = ["eval", "--points", str(pts), "--reference", str(ref)]
    cases = [
        (["--bounds", "thm3.3", "--report", good_report,
          "--certificates", str(bad_certs)], bad_certs),
        (["--bounds", "thm3.3", "--report", str(bad_report),
          "--certificates", str(bad_certs)], bad_report),
        (["--bounds", "lem4.5", "--trace-dir", str(bad_trace)], bad_trace),
        (["--bounds", "lem4.5", "--trace-dir", str(bad_dumps)], bad_dumps),
        (["--bounds", "lem4.2", "--k", "2", "--resampled-ids", str(bad_ids)],
         bad_ids),
    ]
    for extra, culprit in cases:
        assert main(base + extra) == 1
        assert str(culprit) in capsys.readouterr().err


def test_eval_rejects_ids_that_are_not_members(tmp_path, capsys):
    # out-of-range or float ids in a report, a resampled-id file or a trace
    # dump, and a trace profile shorter than its input ids, each exit 1
    # cleanly
    shape = dc.Circle((0.0, 0.0), 1.0)
    kref, sample = dc.sample_shape(shape, 128, seed=None)
    pts = tmp_path / "points.csv"
    ref = tmp_path / "reference.csv"
    dc.save_points(pts, dc.perturb_gaussian(sample, 0.0005, 3))
    dc.save_points(ref, kref.points)
    certs = tmp_path / "certs.json"
    assert main(["certify", "--points", str(pts), "--reference", str(ref),
                 "--k", "2,4,8,16,32,64,128", "--out", str(certs)]) == 0
    run = tmp_path / "run"
    assert main(["declutter", "--points", str(pts), "--k", "4",
                 "--resample-C", str(dc.THEORETICAL_C),
                 "--out-dir", str(run)]) == 0
    pf = tmp_path / "pf"
    assert main(["parfree", "--points", str(pts), "--out-dir", str(pf),
                 "--dump-iterations"]) == 0
    base = ["eval", "--points", str(pts), "--reference", str(ref),
            "--certificates", str(certs)]
    single = base + ["--report", str(run / "report.json"),
                     "--resampled-ids", str(run / "resampled_ids.csv"),
                     "--C", str(dc.THEORETICAL_C)]
    loop = base + ["--trace-dir", str(pf), "--i0", "1"]
    checked = tmp_path / "checked.json"
    for argv, bounds in ((single, "thm3.3,thmD.2,lem4.4"), (loop, "thm4.1,lem4.5")):
        assert main(argv + ["--bounds", bounds, "--out", str(checked)]) == 0
        rows = json.loads(checked.read_text())["bounds"]
        assert all(b["applicable"] for b in rows)  # the probes reach the ids
    capsys.readouterr()

    def edited_report(edit):
        data = json.loads((run / "report.json").read_text())
        data["result"]["kept_order"] = edit(data["result"]["kept_order"])
        path = Path(tempfile.mkdtemp(dir=tmp_path)) / "report.json"
        path.write_text(json.dumps(data))
        return ["--report", str(path)]

    def edited_ids(extra_id):
        path = Path(tempfile.mkdtemp(dir=tmp_path)) / "resampled_ids.csv"
        path.write_text((run / "resampled_ids.csv").read_text() + f"{extra_id}\n")
        return ["--resampled-ids", str(path)]

    def edited_trace(name, edit):
        out = Path(tempfile.mkdtemp(dir=tmp_path))
        shutil.copytree(pf, out, dirs_exist_ok=True)
        path = out / "iterations" / name
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        return ["--trace-dir", str(out)]

    first = json.loads((pf / "trace.json").read_text())["trace"]["iterations"][0]["i"]
    cases = [
        (single + ["--bounds", "thm3.3"] + edited_report(lambda l: l + [128]),
         "out of range"),
        (single + ["--bounds", "thmD.2"] + edited_report(lambda l: l + [-1]),
         "out of range"),
        (single + ["--bounds", "lem3.1"]
         + edited_report(lambda l: [i + 0.2 for i in l]), "integers"),
        (single + ["--bounds", "lem4.4"] + edited_ids(128), "out of range"),
        (single + ["--bounds", "lem4.4"] + edited_ids(-1), "out of range"),
        (loop + ["--bounds", "thm4.1"]
         + edited_trace("iter_01_resampled_ids.csv", lambda l: l + ["128"]),
         "out of range"),
        (loop + ["--bounds", "lem4.5"]
         + edited_trace("iter_01_resampled_ids.csv", lambda l: l + ["-1"]),
         "out of range"),
        (loop + ["--bounds", "lem4.5"]
         + edited_trace(f"iter_{first:02d}_input_ids.csv",
                        lambda l: l[:-1] + ["128"]), "out of range"),
        (loop + ["--bounds", "lem4.5"]
         + edited_trace(f"iter_{first:02d}_profile.csv", lambda l: l[:-1]),
         "profile values"),
    ]
    for argv, message in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, argv
        assert "Traceback" not in err


def _certified_artifacts(tmp_path, k):
    """Points and reference of a near-regular circle sample, its certificate
    at k and a declutter report at k, as paths."""
    shape = dc.Circle((0.0, 0.0), 1.0)
    kref, sample = dc.sample_shape(shape, 128, seed=None)
    pts, ref = tmp_path / "points.csv", tmp_path / "reference.csv"
    dc.save_points(pts, dc.perturb_gaussian(sample, 0.0005, 3))
    dc.save_points(ref, kref.points)
    certs = tmp_path / "certs.json"
    assert main(["certify", "--points", str(pts), "--reference", str(ref),
                 "--k", str(k), "--out", str(certs)]) == 0
    run = tmp_path / "run"
    assert main(["declutter", "--points", str(pts), "--k", str(k),
                 "--out-dir", str(run)]) == 0
    return pts, ref, certs, run / "report.json"


@pytest.mark.parametrize("field, value, message", [
    # a run at another factor (an older --vicinity-factor 3) is not a run
    # of this declutter, and used to be checked as not-applicable
    ("vicinity_factor", 3.0, "vicinity factor 3.0"),
    # ids and k used to be truncated: [1.5, True] read as [1, 1]
    ("processing_order", [1.5, True], "processing order must be integers"),
    ("rejected", {"3": {"witness": True, "distance": 0.0}},
     "rejection witnesses must be integers"),
    ("k", 4.5, "report k must be an integer"),
    ("k", True, "report k must be an integer"),
])
def test_eval_reads_a_report_exactly_or_exits_1(tmp_path, capsys, field, value,
                                                message):
    pts, ref, certs, report = _certified_artifacts(tmp_path, 4)
    argv = ["eval", "--points", str(pts), "--reference", str(ref),
            "--bounds", "thm3.3", "--certificates", str(certs), "--strict",
            "--report", str(report)]
    assert main(argv) == 0
    data = json.loads(report.read_text())
    data["result"][field] = value
    report.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(report) in err and message in err


@pytest.mark.parametrize("value", [
    # each used to end in a traceback from numpy inside evaluation
    3, "0,1", None, {"0": 1}, [None], [{}], [[0, 1]],
    [True],  # used to be read as id 1, and eval exited 0
])
def test_eval_reads_kept_ids_as_a_flat_list_of_integers(tmp_path, capsys, value):
    pts, ref, certs, report = _certified_artifacts(tmp_path, 4)
    data = json.loads(report.read_text())
    data["result"]["kept_order"] = value
    report.write_text(json.dumps(data))
    assert main(["eval", "--points", str(pts), "--reference", str(ref),
                 "--bounds", "thm3.3,prop3.4,thmD.2", "--certificates", str(certs),
                 "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(report) in err and "kept_order must be integers in a flat list" in err


def _as_strings(values):
    return [repr(v) for v in values]


def _one_true(values):
    return [True] + values[1:]


@pytest.mark.parametrize("edit, message", [
    # each used to pass eval with exit 0: numbers were read with
    # np.asarray and float(), so numeric strings and bools were numbers
    pytest.param(lambda r: r.update(profile_values=_as_strings(r["profile_values"])),
                 "profile_values must be numbers in a flat list", id="string-profile-values"),
    pytest.param(lambda r: r.update(profile_values=_one_true(r["profile_values"])),
                 "profile_values must be numbers in a flat list", id="bool-profile-value"),
    pytest.param(lambda r: next(iter(r["rejected"].values())).update(distance=True),
                 "rejection distance must be a number", id="bool-distance"),
    pytest.param(lambda r: next(iter(r["rejected"].values())).update(distance="0.5"),
                 "rejection distance must be a number", id="string-distance"),
    # and these ended in a traceback or a numpy error message
    pytest.param(lambda r: r.update(profile_values=[r["profile_values"]]),
                 "profile_values must be numbers in a flat list", id="nested-profile-values"),
    pytest.param(lambda r: r.update(profile_values=None),
                 "profile_values must be numbers in a flat list", id="null-profile-values"),
    pytest.param(lambda r: next(iter(r["rejected"].values())).update(distance=None),
                 "rejection distance must be a number", id="null-distance"),
])
def test_eval_reads_report_numbers_as_json_numbers(tmp_path, capsys, edit, message):
    pts, ref, certs, report = _certified_artifacts(tmp_path, 4)
    argv = ["eval", "--points", str(pts), "--reference", str(ref),
            "--bounds", "thm3.3", "--certificates", str(certs), "--strict",
            "--report", str(report)]
    assert main(argv) == 0
    data = json.loads(report.read_text())
    assert data["result"]["rejected"]  # a distance to edit
    edit(data["result"])
    report.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert str(report) in err and message in err


@pytest.mark.parametrize("value", [
    # each used to raise AttributeError (``data.get``) through main
    "certificates", {"k": 8}, [5], ["k"], [None], [[{"k": 8}]],
])
def test_eval_reads_certificates_as_a_list_of_objects(tmp_path, capsys, value):
    pts, ref, certs, report = _certified_artifacts(tmp_path, 4)
    data = json.loads(certs.read_text())
    data["certificates"] = value
    certs.write_text(json.dumps(data))
    assert main(["eval", "--points", str(pts), "--reference", str(ref),
                 "--bounds", "thm3.3,prop3.4,thmD.2", "--certificates", str(certs),
                 "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"cannot read certificates {certs}" in err


def test_eval_reads_a_report_without_rejections(tmp_path):
    # at k = 1 every robust distance is 0, so every point is kept
    pts, ref, certs, report = _certified_artifacts(tmp_path, 1)
    assert json.loads(report.read_text())["result"]["rejected"] == {}
    assert main(["eval", "--points", str(pts), "--reference", str(ref),
                 "--bounds", "thm3.3", "--certificates", str(certs),
                 "--report", str(report), "--strict"]) == 0


@pytest.mark.parametrize("field, value", [
    ("epsilon_k", math.inf),    # thm3.3 used to pass with rhs inf
    ("uniformity_c", -1.0),     # prop3.4 used to pass with a negative lhs
    ("k", 8.9),                 # used to be read as 8
    # flags used to be read with bool(), so "false" was True, and numbers
    # with float(), so a numeric string passed
    ("weak_uniform", "false"),
    ("adaptive", "false"),
    ("adaptive", 0),
    ("epsilon_k", "0.01"),
    ("uniformity_c", "2.0"),
])
def test_eval_forged_certificate_exits_1(tmp_path, capsys, field, value):
    pts, ref, certs, report = _certified_artifacts(tmp_path, 8)
    argv = ["eval", "--points", str(pts), "--reference", str(ref),
            "--bounds", "thm3.3,prop3.4", "--certificates", str(certs),
            "--report", str(report), "--strict"]
    assert main(argv) == 0
    data = json.loads(certs.read_text())
    data["certificates"][0][field] = value
    certs.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(certs) in err and field in err


@pytest.mark.parametrize("where, field, value, message", [
    # each used to be read with int(), bool() or float(): 256.7 as 256,
    # "false" as True, "4.5" as 4.5
    ("iteration", "k", 256.7, "trace k must be an integer"),
    ("iteration", "k", 0, "trace k=0 must be at least 1"),
    ("iteration", "k_effective", "8", "trace k_effective must be an integer"),
    ("iteration", "i", -1, "trace iteration i must be a non-negative integer"),
    ("iteration", "i", 1.5, "trace iteration i must be a non-negative integer"),
    ("iteration", "i", True, "trace iteration i must be a non-negative integer"),
    ("trace", "degenerate", "false", "trace degenerate must be true or false"),
    ("trace", "degenerate", 0, "trace degenerate must be true or false"),
    ("trace", "resampling_constant", "4.5",
     "trace resampling_constant must be a number"),
])
def test_eval_reads_a_trace_exactly_or_exits_1(tmp_path, capsys, where, field,
                                               value, message):
    pts = tmp_path / "points.csv"
    dc.save_points(pts, dc.sample_shape(dc.Circle((0.0, 0.0), 1.0), 64,
                                        seed=None)[1])
    pf = tmp_path / "pf"
    assert main(["parfree", "--points", str(pts), "--out-dir", str(pf),
                 "--dump-iterations"]) == 0
    argv = ["eval", "--points", str(pts), "--bounds", "lem4.5",
            "--trace-dir", str(pf), "--strict"]
    assert main(argv) == 0
    path = pf / "trace.json"
    data = json.loads(path.read_text())
    target = data["trace"]
    if where == "iteration":
        target = target["iterations"][0]
    target[field] = value
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read trace ") and message in err


@pytest.mark.parametrize("flag", [
    ["declutter", "--vicinity-factor", "2"],
    ["declutter", "--seed", "1"],
    ["parfree", "--practical"],
    ["certify", "--emit-figures"],
    ["repro", "--emit-figures"],
    ["gen", "--threads", "1"],
], ids=lambda flag: flag[0] + flag[1])
def test_flags_that_set_nothing_exit_1(tmp_path, capsys, flag):
    pts = tmp_path / "points.csv"
    _write_line_points(pts)
    out = str(tmp_path / "out")
    base = {
        "declutter": ["declutter", "--points", str(pts), "--k", "2", "--out-dir", out],
        "parfree": ["parfree", "--points", str(pts), "--out-dir", out],
        "certify": ["certify", "--points", str(pts), "--reference", str(pts),
                    "--k", "2"],
        "repro": ["repro", "fig1", "--n", "60", "--out-dir", out],
        "gen": ["gen", "--n", "50", "--out-dir", out],
    }[flag[0]]
    cli.build_parser().parse_args(base)  # the rest of the command is valid
    assert main(base + flag[1:]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unrecognized arguments") and flag[1] in err
    assert not (tmp_path / "out").exists()


def test_every_declared_flag_is_read(tmp_path, capsys):
    """Runs covering every branch of each subcommand (shapes, adaptive
    mode, --resample-C, the eval inputs, fig1 and fig4) read each flag its
    subcommand declares. Reads while parsing do not count, nor does the
    copy of every argument that a report's config holds."""
    gen = tmp_path / "gen"
    ada = tmp_path / "adaptive"
    vertices = tmp_path / "vertices.csv"
    vertices.write_text("0,0\n1,0\n1,1\n")
    pts, ref = str(gen / "points.csv"), str(gen / "reference.csv")
    run, pf, certs = tmp_path / "run", tmp_path / "pf", tmp_path / "certs.json"
    runs = [
        ["gen", "--shape", "circle", "--radius", "1.5", "--n", "60",
         "--sigma", "0.01", "--ambient", "6", "--clearance", "0.1", "--seed", "2",
         "--emit-figures", "--out-dir", str(gen)],
        ["gen", "--shape", "loops", "--big-radius", "2", "--loop-radius", "0.3",
         "--loop-count", "4", "--mode", "adaptive", "--feature-floor", "0.3",
         "--sigma", "0.01", "--n", "60", "--out-dir", str(ada)],
        ["gen", "--shape", "polyline", "--vertices", str(vertices), "--closed",
         "--n", "30", "--out-dir", str(tmp_path / "polyline")],
        ["gen", "--shape", "torus", "--n", "30", "--out-dir", str(tmp_path / "torus")],
        ["declutter", "--points", pts, "--k", "4", "--kind", "avg-k",
         "--strategy", "brute", "--metric", "manhattan", "--resample-C", "4",
         "--threads", "2", "--emit-figures", "--out-dir", str(run)],
        ["parfree", "--points", pts, "--C", "4", "--kind", "rms-k",
         "--strategy", "kdtree", "--dump-iterations", "--emit-figures",
         "--out-dir", str(pf)],
        ["certify", "--points", pts, "--reference", ref, "--k", "2,4,8,16,32",
         "--out", str(certs)],
        ["certify", "--points", str(ada / "points.csv"),
         "--reference", str(ada / "reference.csv"),
         "--features", str(ada / "feature_sizes.csv"), "--k", "4", "--weak",
         "--adaptive"],
        ["eval", "--points", pts, "--reference", ref, "--bounds",
         "thm3.3,lem4.4,lem4.2,lem4.5,thm4.1", "--report", str(run / "report.json"),
         "--certificates", str(certs), "--trace-dir", str(pf),
         "--resampled-ids", str(run / "resampled_ids.csv"), "--k", "4",
         "--i0", "1", "--seed", "3", "--out", str(tmp_path / "bounds.json")],
        ["repro", "fig1", "--n", "60", "--seed", "1", "--out-dir", str(tmp_path / "fig1")],
        ["repro", "fig4", "--n", "200", "--ambient", "20",
         "--out-dir", str(tmp_path / "fig4")],
    ]
    seen = set()

    class Recorder(argparse.Namespace):
        def __getattribute__(self, name):
            seen.add(name)
            return super().__getattribute__(name)

    parser = cli.build_parser()
    read = collections.defaultdict(set)
    for argv in runs:
        args = parser.parse_args(argv, namespace=Recorder())
        handler = args.func
        seen.clear()
        assert handler(args) == 0, argv
        read[argv[0]] |= seen
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    unread = [f"{name} {action.option_strings[0] if action.option_strings else action.dest}"
              for name, p in sub.choices.items() for action in p._actions
              if action.dest != "help" and action.dest not in read[name]]
    assert not unread, f"declared flags that no run reads: {unread}"


def test_declutter_resample_C_whose_radii_overflow(tmp_path, capsys):
    # C times a robust distance overflows to an infinite ball, which holds
    # every point: no warning, and every id is resampled
    pts = tmp_path / "points.csv"
    dc.save_points(pts, np.random.default_rng(68).normal(size=(300, 2)) * 1e150)
    run = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["declutter", "--points", str(pts), "--k", "8",
                     "--resample-C", "1e160", "--out-dir", str(run)]) == 0
    assert "Warning" not in capsys.readouterr().err
    assert dc.load_ids(run / "resampled_ids.csv", "id").tolist() == list(range(300))


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    # one parser serves every call in the process, a failed parse included
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: (built.append(1), real())[1])
    cli._parser.cache_clear()
    try:
        assert main(["certify", "--k"]) == 1
        assert capsys.readouterr().err.startswith("error: argument --k: expected one argument")
        pts = tmp_path / "points.csv"
        _write_line_points(pts)
        out = tmp_path / "run"
        assert main(["declutter", "--points", str(pts), "--k", "2",
                     "--out-dir", str(out)]) == 0
        assert dc.load_points(out / "kept.csv").ravel().tolist() == [0.0, 2.0]
        assert json.loads((out / "report.json").read_text())["config"]["k"] == 2
        assert built == [1]
    finally:
        cli._parser.cache_clear()
