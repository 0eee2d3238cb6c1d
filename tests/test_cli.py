import json
import re
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

import declutter as dc
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
    # blocks; every subcommand refuses it, also those that never read it
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
            ["gen", "--n", "50", "--out-dir", str(tmp_path / "gen2")],
            ["repro", "fig1", "--n", "60", "--out-dir", str(tmp_path / "fig1")]]
    for argv in runs:
        capsys.readouterr()
        assert main([*argv, "--threads", threads]) == 1, argv[0]
        assert "threads" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["declutter", "--k", "4", "--vicinity-factor", "inf"],
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
