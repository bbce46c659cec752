import argparse
import contextlib
import importlib
import importlib.util
import io
import json
import re
import shlex
import tempfile
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mvtc
from mvtc import pipeline
from mvtc.cli import _build_parser, main
from mvtc.data import generate_synthetic, load_dataset, save_dataset
from mvtc.errors import SingularSystem, ValidationError
from mvtc.pipeline import PRESETS, PipelineConfig, RunReport, run_pipeline
from mvtc.solver import SolverConfig

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_on_synthetic_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        capsys,
        "run",
        "--synthetic", "n=120,c=3,v=2,dims=6:8,noise=0.05,seed=4",
        "--anchors", "40",
        "--clusters", "3",
        "--seed", "1",
        "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert json.loads(stdout) == report
    assert report["dataset"]["n_samples"] == 120
    assert report["config"]["n_anchors"] == 40
    assert report["config"]["embed_dim"] == 3  # defaults to the cluster count
    assert len(report["labels_pred"]) == 120
    assert report["iterations"] == 7
    assert len(report["objective_trace"]) == 7
    assert set(report["timings"]) == {"graph_build_s", "solve_s", "kmeans_s", "total_s"}
    assert all(v >= 0 for v in report["timings"].values())
    for key in ("acc", "nmi", "purity", "fscore", "precision", "recall", "ari"):
        assert key in report["metrics"]


def test_run_prints_the_bytes_it_writes(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, _ = run_cli(
        capsys, "run", "--synthetic", "n=90,c=3,v=2,dims=5:7,noise=0.1,seed=2",
        "--anchors", "30", "--out", str(out),
    )
    assert code == 0
    assert out.read_bytes() == stdout.encode("utf-8")
    # both are RunReport.to_json's text, the layout run_pipeline writes
    assert RunReport(**json.loads(stdout)).to_json() == stdout


def test_run_on_manifest_matches_synthetic(tmp_path, capsys):
    ds = generate_synthetic(80, 3, 2, [5, 6], noise=0.05, seed=9, name="disk")
    manifest = save_dataset(ds, tmp_path / "ds", fmt="bin")
    code, stdout, _ = run_cli(
        capsys, "run", "--manifest", str(manifest), "--anchors", "30",
        "--embed-dim", "4", "--seed", "2",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["dataset"]["name"] == "disk"
    assert report["dataset"]["n_clusters"] == 3  # picked up from the manifest
    assert report["metrics"]["acc"] >= 0.9


def test_report_without_labels_omits_metrics(tmp_path, capsys):
    ds = generate_synthetic(50, 2, 1, [4], noise=0.1, seed=0)
    stripped = type(ds)(views=ds.views, labels=None, n_clusters=2, name="nolabels")
    manifest = save_dataset(stripped, tmp_path / "ds")
    code, stdout, _ = run_cli(
        capsys, "run", "--manifest", str(manifest), "--anchors", "20", "--seed", "0"
    )
    assert code == 0
    report = json.loads(stdout)
    assert "metrics" not in report
    assert len(report["labels_pred"]) == 50


def test_run_determinism_excluding_timings(tmp_path, capsys):
    args = (
        "run",
        "--synthetic", "n=90,c=3,v=2,dims=5:6,noise=0.1,seed=3",
        "--anchors", "30",
        "--seed", "5",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("timings"), r2.pop("timings")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_ablation_flags_run(tmp_path, capsys):
    base = (
        "run",
        "--synthetic", "n=100,c=3,v=2,dims=6:7,noise=0.1,seed=2",
        "--anchors", "30",
        "--seed", "0",
    )
    code, stdout, _ = run_cli(capsys, *base, "--no-isc")
    assert code == 0
    assert json.loads(stdout)["config"]["beta"] == 0.0
    code, stdout, _ = run_cli(capsys, *base, "--no-igs")
    assert code == 0
    assert json.loads(stdout)["config"]["no_igs"] is True


def test_default_anchor_count_clamps_to_samples(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "run",
        "--synthetic", "n=50,c=2,v=1,dims=5,noise=0.05,seed=1",
        "--embed-dim", "3",
        "--lowfreq", "8",
        "--seed", "0",
    )
    assert code == 0
    assert json.loads(stdout)["config"]["n_anchors"] == 50  # min(1000, N)


def test_preset_applied_and_overridable(capsys):
    code, stdout, _ = run_cli(
        capsys,
        "run",
        "--synthetic", "n=60,c=2,v=1,dims=5,noise=0.05,seed=1",
        "--anchors", "20",
        "--preset", "ccv",
        "--lowfreq", "4",
        "--seed", "0",
    )
    assert code == 0
    config = json.loads(stdout)["config"]
    assert config["beta"] == PRESETS["ccv"]["beta"]
    assert config["lam"] == PRESETS["ccv"]["lam"]
    assert config["low_freq"] == 4  # explicit flag wins over the preset


def test_presets_match_published_values():
    assert PRESETS["ccv"] == {"beta": 0.1, "lam": 1e-5, "low_freq": 18, "n_anchors": 1000}
    assert PRESETS["caltech102"] == {"beta": 1.0, "lam": 10.0, "low_freq": 16, "n_anchors": 1000}
    assert PRESETS["nuswideobj"] == {"beta": 1.0, "lam": 1e-3, "low_freq": 16, "n_anchors": 1000}
    assert PRESETS["awa"] == {"beta": 0.1, "lam": 0.03, "low_freq": 9, "n_anchors": 1000}
    assert PRESETS["cifar10"] == {"beta": 1e-4, "lam": 1e-4, "low_freq": 16, "n_anchors": 1000}
    assert PRESETS["youtubeface"] == {"beta": 0.1, "lam": 0.005, "low_freq": 19, "n_anchors": 1000}


SMALL_RUN = ["run", "--synthetic", "n=300,c=3,v=2,dims=4:5", "--anchors", "30"]


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--synthetic", "n=20", "--seed", "0"],  # spec missing c
        ["run", "--synthetic", "n=20,c=two", "--seed", "0"],
        ["run", "--synthetic", "n=20,c=2,v=1,dims=4", "--kernel-width", "abc"],
        ["gen-synthetic", "--synthetic", "n=10,c=2,dims=x", "--out", "/tmp/x"],
        SMALL_RUN + ["--kernel-width=inf"],
        SMALL_RUN + ["--kernel-width=nan"],
        SMALL_RUN + ["--beta", "-2"],
        SMALL_RUN + ["--beta", "nan"],
        SMALL_RUN + ["--lambda", "-1"],
        SMALL_RUN + ["--iters", "-1"],
        SMALL_RUN + ["--early-stop-tol", "nan"],
        SMALL_RUN + ["--clusters", "0"],
        SMALL_RUN + ["--embed-dim", "0"],
        SMALL_RUN + ["--seed", "-1"],  # the spec's seed defaults to it
        ["run", "--synthetic", "n=300,c=3,v=2,dims=4:5,seed=1", "--anchors", "30", "--seed", "-1"],
        ["run", "--synthetic", "n=300,c=3,v=2,dims=4:5,seed=-1", "--anchors", "30"],
        ["gen-synthetic", "--synthetic", "n=10,c=2,seed=-1", "--out", "/tmp/x"],
        SMALL_RUN + ["--no-isc", "--beta", "nan"],
        ["run", "--synthetic", "n=100,c=2,v=2,dims=-3:5"],
        ["run", "--synthetic", "n=100,c=2,v=2,dims=0:5"],
        ["run", "--synthetic", "n=100,c=2,v=2,dims=4:5,noise=-1"],
        ["run", "--synthetic", "n=100,c=2,v=2,dims=4:5,noise=nan"],
        ["run", "--synthetic", "n=100,c=2,v=2,dims=4:5,noise=inf"],
        ["run", "--synthetic", "n=100,c=2,v=2,dims=4:5,foo=3"],  # unknown key
        ["run", "--synthetic", "n=100,c=2,v=2,dims=4:5,nosie=0.5"],  # misspelt key
        ["run", "--synthetic", "n=300,c=3,v=2,dims=4:5,n=200", "--anchors", "30"],  # repeated key
        ["gen-synthetic", "--synthetic", "n=10,c=2,v=2,dims=-2:3", "--out", "/tmp/x"],
        ["gen-synthetic", "--synthetic", "n=10,c=2,dims=0:4:4", "--out", "/tmp/x"],
        ["gen-synthetic", "--synthetic", "n=10,c=2,noise=nan", "--out", "/tmp/x"],
        ["run", "--synthetic", "n=60,c=3,v2"],  # a token without '='
        SMALL_RUN + ["--kernel-width", ","],
        SMALL_RUN + ["--threads", str(10**30)],  # beyond a C int, refused before any BLAS call
        # too many samples for numpy to index, refused before any allocation
        ["run", "--synthetic", "n=4611686018427387904,c=2"],
        ["gen-synthetic", "--synthetic", "n=4611686018427387904,c=2", "--out", "/tmp/x"],
        ["gen-synthetic", "--synthetic", f"n={2**31},c={2**31}", "--out", "/tmp/x"],
        # dims are written with ':'; a ',' ends the token
        ["gen-synthetic", "--synthetic", "n=20,c=2,v=2,dims=4,5", "--out", "/tmp/x"],
    ],
)
def test_malformed_flag_values_exit_cleanly(argv, capsys):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1, err
    record = json.loads(lines[0])
    assert record["error"] and record["message"]


def test_no_isc_is_beta_zero(capsys):
    reports = []
    for extra in (["--no-isc"], ["--beta", "0"], ["--beta", "0.5", "--no-isc"]):
        code, stdout, _ = run_cli(capsys, *SMALL_RUN, "--seed", "2", *extra)
        assert code == 0
        report = json.loads(stdout)
        del report["timings"]
        reports.append(json.dumps(report, indent=2, sort_keys=True))
    assert reports[0] == reports[1] == reports[2]
    assert json.loads(reports[0])["config"]["beta"] == 0.0


def test_run_flags_name_each_config_field_once():
    parser = _build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    dests = [a.dest for a in commands.choices["run"]._actions if a.dest != "help"]
    names = sorted(f.name for f in fields(PipelineConfig))
    assert sorted(d for d in dests if d in names) == names  # each field is one flag's dest
    assert sorted(set(dests) - set(names)) == ["manifest", "no_isc", "out", "preset", "synthetic"]


@pytest.mark.parametrize("argv", [
    SMALL_RUN + ["--beta", "abc"],
    ["run", "--synthetic", "n=50,c=2", "--anchors", "1.5"],
    SMALL_RUN + ["--no-such-flag"],
    ["run"],  # neither --manifest nor --synthetic
    ["run", "--manifest", "m.json", "--synthetic", "n=50,c=2"],
    SMALL_RUN + ["--preset", "nope"],
    ["nope"],  # no such subcommand
    [],  # no subcommand
    ["gen-synthetic", "--out", "x"],  # no --synthetic
    ["gen-synthetic", "--synthetic", "n=10,c=2"],  # no --out
    SMALL_RUN + ["--kernel-width", "x"],
    ["gen-synthetic", "--synthetic", "n=10,c=2,dims=a:b", "--out", "x"],
])
def test_usage_errors_exit_2_with_one_json_line(argv, capsys):
    code, stdout, err = run_cli(capsys, *argv)
    assert code == 2
    assert stdout == ""
    (line,) = err.splitlines()
    record = json.loads(line)
    assert record["error"] == "ValidationError" and record["message"]


def test_data_dependent_settings_are_checked_before_the_graph_build(monkeypatch):
    def build(*args, **kwargs):
        raise AssertionError("graphs built before the settings were checked")

    monkeypatch.setattr(pipeline, "build_all_graphs", build)
    dataset = generate_synthetic(40, 2, 2, [4, 5], noise=0.1, seed=0)
    for config, message in (
        (PipelineConfig(n_clusters=41), "n_clusters must be an integer of at least 1 and at most 40"),
        (PipelineConfig(n_anchors=10, embed_dim=11), "embed_dim must be an integer of at most 10, got 11"),
        (PipelineConfig(low_freq=22), "low_freq must be an integer of at least 1 and at most 21, got 22"),
    ):
        with pytest.raises(ValidationError, match=re.escape(message)):
            run_pipeline(dataset, config)
    with pytest.raises(AssertionError, match="graphs built"):  # no smoothing, no band to check
        run_pipeline(dataset, PipelineConfig(low_freq=22, no_igs=True))


@pytest.mark.parametrize(
    "field, value",
    [
        ("max_iters", True),  # a bool is no iteration count
        ("seed", False),
        ("n_clusters", 3.0),
        ("embed_dim", 3.5),
        ("n_anchors", 2.5),
        ("n_anchors", True),
        ("restarts", 2.5),
        ("restarts", 0),
        ("threads", 1.5),
        ("threads", 0),
        ("low_freq", 3.0),
        ("low_freq", True),
        ("lam", "0.1"),
        ("beta", "0.1"),
        ("early_stop_tol", "0"),
        ("kernel_width", "x"),
        ("kernel_width", ["a", "b"]),
        ("kernel_width", 0.0),
        ("n_clusters", 0),
        ("no_igs", 1),  # a switch is a bool, not a truthy value
        ("threads", 2**31),  # OpenBLAS takes a C int
        ("threads", 2**32 + 1),
        ("threads", 10**30),
    ],
)
def test_bad_config_values_raise_validation_error(field, value):
    dataset = generate_synthetic(40, 2, 2, [4, 5], noise=0.1, seed=0)
    with pytest.raises(ValidationError, match=field):
        run_pipeline(dataset, PipelineConfig(**{field: value}))


@pytest.mark.parametrize(
    "field, value, error",
    [
        ("lam", "0.1", ValidationError),
        ("beta", float("nan"), ValidationError),
        ("early_stop_tol", -1.0, ValidationError),
        ("low_freq", 0, ValidationError),
        ("max_iters", -1, ValidationError),
        ("seed", -1, ValidationError),
    ],
)
def test_pipeline_config_checks_solver_settings_when_built(field, value, error):
    with pytest.raises(error, match=field):
        PipelineConfig(**{field: value})


@pytest.mark.parametrize("config", [SolverConfig, PipelineConfig])
def test_configs_take_keyword_arguments_only(config):
    with pytest.raises(TypeError):
        config(3)


@pytest.mark.parametrize("source, reader", [
    (["--manifest", "manifest.json"], "load_dataset"),
    (["--synthetic", "n=40,c=2"], "_synthetic_from_spec"),
])
def test_run_checks_settings_before_reading_data(capsys, monkeypatch, source, reader):
    def read(*args, **kwargs):
        raise AssertionError("data read before the settings were checked")

    monkeypatch.setattr(f"mvtc.cli.{reader}", read)
    # none of these settings needs the data to be refused
    for setting, name in ((["--lambda", "-1"], "lam"), (["--anchors", "0"], "n_anchors"),
                          (["--clusters", "0"], "n_clusters"), (["--embed-dim", "1"], "embed_dim"),
                          (["--kernel-width=-1"], "kernel_width")):
        code, _, err = run_cli(capsys, "run", *source, *setting)
        assert code == 2, setting
        (line,) = err.strip().splitlines()
        assert json.loads(line)["message"].startswith(name), setting


def test_request_too_large_to_allocate_exits_2_with_one_json_line(capsys, monkeypatch):
    def run(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.11 PiB")

    monkeypatch.setattr("mvtc.cli.run_pipeline", run)
    code, _, err = run_cli(capsys, *SMALL_RUN)
    assert code == 2
    (line,) = err.strip().splitlines()
    assert json.loads(line) == {"error": "MemoryError", "message": "Unable to allocate 7.11 PiB"}


SWEEP_VALUES = [None, True, 0, -1, 2, 2.5, "2", float("nan"), float("inf")]
_COUNT = {(type(None), None), (int, 2)}
_WEIGHT = {(int, 0), (int, 2), (float, 2.5)}
# (type, value) pairs of SWEEP_VALUES that each field accepts on the 40-sample,
# 2-cluster, 2-view set of the sweep
SWEEP_ACCEPTED = {
    "n_clusters": _COUNT, "embed_dim": _COUNT, "n_anchors": _COUNT, "threads": _COUNT,
    "lam": _WEIGHT, "beta": _WEIGHT, "early_stop_tol": _WEIGHT,
    "low_freq": {(int, 2)}, "restarts": {(int, 2)},
    "max_iters": {(int, 0), (int, 2)}, "seed": {(int, 0), (int, 2)},
    "kernel_width": {(type(None), None), (int, 2), (float, 2.5)},
    "no_igs": {(bool, True)},
}


@settings(max_examples=200, deadline=None, derandomize=True)  # the same examples every run
@given(values=st.dictionaries(
    st.sampled_from([f.name for f in fields(PipelineConfig)]),
    st.sampled_from(SWEEP_VALUES),
    max_size=4,
))
def test_config_sweep_rejects_bad_values_and_runs_good_ones(values):
    dataset = generate_synthetic(40, 2, 2, [4, 5], noise=0.1, seed=0)
    if not all(k not in SWEEP_ACCEPTED or (type(v), v) in SWEEP_ACCEPTED[k]
               for k, v in values.items()):
        with pytest.raises(ValidationError):
            run_pipeline(dataset, PipelineConfig(**values))
        return
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        try:
            report = run_pipeline(dataset, PipelineConfig(**values), out_path=out)
        except SingularSystem:
            assert values.get("lam") == 0  # no ridge weight on 40 anchors of 40 samples
            return
        assert out.read_text(encoding="utf-8") == report.to_json()
    assert np.isfinite(report.objective_trace).all()
    assert len(report.labels_pred) == dataset.n_samples
    assert set(report.labels_pred) == set(range(report.config["n_clusters"]))


def test_numpy_float_settings_reach_the_written_report(tmp_path):
    dataset = generate_synthetic(40, 2, 2, [4, 5], noise=0.1, seed=0)
    config = PipelineConfig(lam=np.float32(0.1), beta=np.float32(0.1),
                            early_stop_tol=np.float32(0))
    out = tmp_path / "report.json"
    report = run_pipeline(dataset, config, out_path=out)
    assert out.read_text(encoding="utf-8") == report.to_json()


def test_graphs_are_released_before_kmeans(monkeypatch):
    refs, alive = [], []
    build, fit = pipeline.build_all_graphs, pipeline.kmeans_fit

    def build_tracked(*args, **kwargs):
        graphs = build(*args, **kwargs)
        refs.extend(weakref.ref(g) for g in graphs)
        return graphs

    def fit_counting(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        return fit(*args, **kwargs)

    monkeypatch.setattr(pipeline, "build_all_graphs", build_tracked)
    monkeypatch.setattr(pipeline, "kmeans_fit", fit_counting)
    dataset = generate_synthetic(60, 3, 3, [4, 5, 6], noise=0.1, seed=0)
    run_pipeline(dataset, PipelineConfig(restarts=2))
    assert len(refs) == 3
    assert alive == [0, 0]


# The names perfbench hooks in mvtc.pipeline, as the run looks them up.
PIPELINE_HOOKS = ("sample_norm_order", "select_anchors", "build_all_graphs", "solver_run",
                  "kmeans_fit", "clustering_scores")


@pytest.mark.parametrize("labelled", [True, False], ids=["labels", "no-labels"])
def test_run_calls_each_hooked_name_as_often_as_perfbench_expects(
    tmp_path, monkeypatch, labelled
):
    calls = dict.fromkeys(PIPELINE_HOOKS + ("RunReport.to_json",), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in PIPELINE_HOOKS:
        monkeypatch.setattr(pipeline, name, counting(name, getattr(pipeline, name)))
    monkeypatch.setattr(RunReport, "to_json", counting("RunReport.to_json", RunReport.to_json))
    dataset = generate_synthetic(60, 3, 3, [4, 5, 6], noise=0.1, seed=0)
    if not labelled:
        dataset = type(dataset)(views=dataset.views, labels=None, n_clusters=3)
    run_pipeline(dataset, PipelineConfig(restarts=3), out_path=tmp_path / "report.json")
    assert calls == {
        "sample_norm_order": 1, "select_anchors": 1, "build_all_graphs": 1, "solver_run": 1,
        "kmeans_fit": 3, "clustering_scores": int(labelled), "RunReport.to_json": 1,
    }


def test_validation_error_exit_code_and_record(capsys):
    code, _, stderr = run_cli(
        capsys,
        "run",
        "--synthetic", "n=20,c=2,v=1,dims=4,noise=0.1,seed=0",
        "--anchors", "50",  # more anchors than samples
        "--seed", "0",
    )
    assert code == 2
    record = json.loads(stderr.strip().splitlines()[-1])
    assert record["error"] == "ValidationError"
    assert record["message"].startswith("n_anchors ")


def test_numerical_error_exit_code(tmp_path, capsys):
    # all-identical samples make the kernel width collapse to zero
    view = np.zeros((3, 10))
    path = tmp_path / "flat.csv"
    np.savetxt(path, view.T, fmt="%.17g", delimiter=",")
    manifest = {"n_clusters": 2, "views": [{"path": "flat.csv"}]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code, _, stderr = run_cli(
        capsys, "run", "--manifest", str(tmp_path / "manifest.json"), "--anchors", "3",
        "--lowfreq", "3",  # default band does not fit 10 samples
    )
    assert code == 3
    record = json.loads(stderr.strip().splitlines()[-1])
    assert record["error"] == "DegenerateView"


@pytest.mark.parametrize("token", ["nan", "inf"])
def test_non_finite_view_value_exits_2_with_one_json_line(tmp_path, capsys, token):
    ds = generate_synthetic(60, 2, 2, [4, 5], noise=0.1, seed=0)
    manifest = save_dataset(ds, tmp_path / "ds")
    view_path = tmp_path / "ds" / "view_1.csv"  # features x samples
    rows = [line.split(",") for line in view_path.read_text().splitlines()]
    rows[2][37] = token
    view_path.write_text("\n".join(",".join(row) for row in rows) + "\n")
    code, _, stderr = run_cli(capsys, "run", "--manifest", str(manifest), "--anchors", "20")
    assert code == 2
    lines = stderr.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["error"] == "ValidationError"
    assert "view 1" in record["message"] and "sample 37" in record["message"]


SWEEP_N = 40  # samples of the sweep's synthetic dataset, run with 10 anchors


@pytest.mark.parametrize("flag, value, name", [
    ("--anchors", 0, "n_anchors"),
    ("--anchors", SWEEP_N + 1, "n_anchors"),
    ("--clusters", 0, "n_clusters"),
    ("--clusters", SWEEP_N + 1, "n_clusters"),
    ("--embed-dim", 1, "embed_dim"),
    ("--embed-dim", 11, "embed_dim"),
    ("--lowfreq", 0, "low_freq"),
    ("--lowfreq", SWEEP_N // 2 + 2, "low_freq"),
    ("--restarts", 0, "restarts"),
])
def test_out_of_range_setting_exits_2_as_a_validation_error(capsys, flag, value, name):
    anchors = [] if flag == "--anchors" else ["--anchors", "10"]
    code, stdout, stderr = run_cli(
        capsys, "run", "--synthetic", f"n={SWEEP_N},c=2,v=1,dims=4", *anchors, flag, str(value)
    )
    assert code == 2 and stdout == ""
    (line,) = stderr.splitlines()
    record = json.loads(line)
    assert record["error"] == "ValidationError"
    assert record["message"].startswith(f"{name} must be an integer")


@pytest.mark.parametrize("target", ["manifest", "view", "labels"])
@pytest.mark.parametrize("kind, error", [("missing", "FileNotFoundError"),
                                         ("directory", "IsADirectoryError")])
def test_unopenable_input_file_exits_2_naming_the_path(tmp_path, capsys, target, kind, error):
    manifest = save_dataset(generate_synthetic(40, 2, 1, [4], noise=0.1, seed=0), tmp_path / "ds")
    bad = tmp_path / "ds" / "bad"
    if kind == "directory":
        bad.mkdir()
    if target == "manifest":
        manifest = bad
    else:
        entries = json.loads(manifest.read_text())
        if target == "view":
            entries["views"][0]["path"] = "bad"
        else:
            entries["labels_path"] = "bad"
        manifest.write_text(json.dumps(entries))
    code, _, stderr = run_cli(capsys, "run", "--manifest", str(manifest), "--anchors", "10")
    assert code == 2
    (line,) = stderr.splitlines()
    record = json.loads(line)
    assert record["error"] == error  # an OSError subclass, not a ValidationError
    assert str(bad) in record["message"]


def test_report_dataset_block_gives_the_datasets_own_cluster_count():
    dataset = generate_synthetic(60, 3, 2, [4, 5], noise=0.1, seed=0)
    report = run_pipeline(dataset, PipelineConfig(n_clusters=4, n_anchors=20))
    assert report.dataset["n_clusters"] == 3 and report.config["n_clusters"] == 4
    unknown = type(dataset)(views=dataset.views, labels=dataset.labels)
    report = run_pipeline(unknown, PipelineConfig(n_clusters=4, n_anchors=20))
    assert report.dataset["n_clusters"] is None
    assert json.loads(report.to_json())["dataset"]["n_clusters"] is None


@pytest.mark.parametrize("dtype, big", [(np.int32, 50_000), (np.int64, 4_000_000_000)])
def test_integer_view_norm_order_matches_float(dtype, big):
    view = np.array([[big, 1, big * 4 // 5]])  # squares overflow in the integer dtype
    order = pipeline.sample_norm_order([view.astype(dtype)])
    np.testing.assert_array_equal(order, [1, 2, 0])
    np.testing.assert_array_equal(order, pipeline.sample_norm_order([view.astype(float)]))


def unwritable_out_argv(tmp_path, sub):
    """Arguments for ``mvtc sub`` whose ``--out`` cannot be written."""
    missing = str(tmp_path / "missing" / "out.json")
    if sub == "run":
        return ["run", "--synthetic", "n=40,c=2,v=1,dims=4,noise=0.1,seed=0",
                "--anchors", "10", "--out", missing]
    if sub == "metrics":
        (tmp_path / "labels.txt").write_text("0\n1\n1\n")
        labels = str(tmp_path / "labels.txt")
        return ["metrics", "--pred", labels, "--truth", labels, "--out", missing]
    (tmp_path / "taken").write_text("")  # a file where the output directory should go
    return ["gen-synthetic", "--synthetic", "n=20,c=2", "--out", str(tmp_path / "taken")]


@pytest.mark.parametrize("sub", ["run", "metrics", "gen-synthetic"])
def test_unwritable_out_exits_2_with_one_json_line(tmp_path, capsys, sub):
    code, _, stderr = run_cli(capsys, *unwritable_out_argv(tmp_path, sub))
    assert code == 2
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1, stderr
    record = json.loads(lines[0])
    assert record["error"] in {"FileNotFoundError", "FileExistsError", "NotADirectoryError"}
    assert record["message"]


@pytest.mark.parametrize(
    "largest, width_args, error",
    [
        (None, [], "DegenerateView"),
        (None, ["--kernel-width", "1"], "SingularSystem"),
        # near the largest float, where doubling an anchor overflows too
        (9.5e307, [], "DegenerateView"),
        (9.5e307, ["--kernel-width", "1"], "SingularSystem"),
        (1.7e308, [], "DegenerateView"),
        (1.7e308, ["--kernel-width", "1"], "SingularSystem"),
    ],
    ids=["estimated-width", "given-width", "estimated-width-max-9.5e307",
         "given-width-max-9.5e307", "estimated-width-max-1.7e308", "given-width-max-1.7e308"],
)
def test_huge_finite_view_values_exit_3_with_one_json_line(
    tmp_path, capsys, recwarn, largest, width_args, error
):
    # finite values whose squared distances overflow to inf and then NaN;
    # None scales the view by 1e200, a number scales its largest magnitude to it
    ds = generate_synthetic(60, 2, 2, [4, 5], noise=0.1, seed=0)
    ds.views[1] *= 1e200 if largest is None else largest / np.abs(ds.views[1]).max()
    manifest = save_dataset(ds, tmp_path / "ds")
    code, _, stderr = run_cli(
        capsys, "run", "--manifest", str(manifest), "--anchors", "20", *width_args
    )
    assert code == 3
    lines = stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error
    # pytest captures warnings, so stderr alone would not show numpy's lines
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_huge_finite_beta_exits_3_with_one_json_line(capsys, recwarn):
    code, _, stderr = run_cli(
        capsys, "run", "--synthetic", "n=600,c=10,v=2,dims=4:5", "--anchors", "60",
        "--beta", "1e308",
    )
    assert code == 3
    lines = stderr.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "SingularSystem"
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# One CSV view, one bin view and a labels file, as the property test below
# lays them out; the manifest is fixed text so examples can point into it.
CONTRACT_MANIFEST = json.dumps({
    "n_clusters": 3,
    "labels_path": "labels.csv",
    "views": [
        {"path": "view_0.csv", "format": "csv", "orientation": "features"},
        {"path": "view_1.bin", "format": "bin", "orientation": "features"},
    ],
})
CORRUPTIONS = st.one_of(
    st.tuples(st.just("truncate"), st.integers(min_value=0), st.just(b"")),
    st.tuples(st.just("overwrite"), st.integers(min_value=0), st.binary(min_size=1, max_size=8)),
    st.tuples(
        st.just("insert"),
        st.integers(min_value=0),
        st.sampled_from([b"nan", b"1e400", b"1e20", b"1.7", b"x", b"-", b",", b"#", b"\n"]),
    ),
)


@settings(max_examples=50, deadline=None, derandomize=True)  # the same examples every run
@given(
    name=st.sampled_from(["manifest.json", "view_0.csv", "view_1.bin", "labels.csv"]),
    corruption=CORRUPTIONS,
)
@example(name="labels.csv", corruption=("insert", 0, b"1e20"))
@example(name="manifest.json", corruption=("insert", CONTRACT_MANIFEST.index('"path"') + 2, b"x"))
@example(name="view_1.bin", corruption=("overwrite", 31, b"\x7e"))  # first value ~1e303
def test_corrupted_input_exits_0_2_or_3_with_one_json_line(name, corruption):
    kind, position, payload = corruption
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        ds = generate_synthetic(30, 3, 2, [3, 4], noise=0.1, seed=0)
        save_dataset(ds, root, fmt="csv")
        save_dataset(ds, root, fmt="bin")
        (root / "manifest.json").write_text(CONTRACT_MANIFEST)
        (root / "truth.csv").write_bytes((root / "labels.csv").read_bytes())
        target = root / name
        raw = target.read_bytes()
        at = position % (len(raw) + 1)
        if kind == "truncate":
            raw = raw[:at]
        elif kind == "overwrite":
            raw = raw[:at] + payload + raw[at + len(payload):]
        else:
            raw = raw[:at] + payload + raw[at:]
        target.write_bytes(raw)
        commands = [["run", "--manifest", str(root / "manifest.json")]]
        if name == "labels.csv":
            commands.append(["metrics", "--pred", str(target), "--truth", str(root / "truth.csv")])
        for argv in commands:
            stderr = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert code in (0, 2, 3)
            if code:
                lines = stderr.getvalue().splitlines()
                assert len(lines) == 1
                record = json.loads(lines[0])
                assert record["error"] and record["message"]


# Each numeric run flag's draws from {0, -1, 1, huge, tiny, nan, inf} that
# argparse admits.  --iters and --restarts are work counts: a huge one is a
# valid run that does not end, so they draw no huge value.  --threads draws
# no valid count above 1, so that no run asks for more threads.
# Hypothesis leans to the first entry of each list, so a valid value leads.
_INTS = ["1", "0", "-1", str(10**30)]
_WORK = ["1", "0", "-1"]
_REALS = ["1", "0", "1e-300", "1e300", "-1", "nan", "inf"]
RUN_FLAG_DRAWS = {
    "--anchors": _INTS, "--clusters": _INTS, "--embed-dim": _INTS, "--lowfreq": _INTS,
    "--seed": _INTS, "--iters": _WORK, "--restarts": _WORK,
    "--lambda": _REALS, "--beta": _REALS, "--early-stop-tol": _REALS, "--kernel-width": _REALS,
    "--threads": ["1", "0", "-1", str(2**31), str(10**30)],
}
# --synthetic specs of at most 60 samples; an empty token is one the parser skips
SPECS = st.tuples(
    st.sampled_from(["n=60", "n=30", "n=7", "n=1"]),
    st.sampled_from(["c=3", "c=2", "c=1"]),
    st.sampled_from(["", "v=2,dims=3:4", "v=1,dims=3", "v=3", "dims=4:5"]),
    st.sampled_from([""] + [f"noise={value}" for value in _REALS]),
    st.sampled_from([""] + [f"seed={value}" for value in _INTS]),
).map(",".join)


@settings(max_examples=200, deadline=None, derandomize=True)  # the same examples every run
@given(
    spec=SPECS,
    flags=st.lists(st.sampled_from(sorted(RUN_FLAG_DRAWS)), max_size=3, unique=True).flatmap(
        lambda names: st.fixed_dictionaries(
            {name: st.sampled_from(RUN_FLAG_DRAWS[name]) for name in names})
    ),
    switches=st.sets(st.sampled_from(["--no-isc", "--no-igs"])),
)
@example(spec="n=60,c=3", flags={}, switches=set())
@example(spec="n=30,c=2,v=2,dims=3:4", flags={"--lowfreq": "1", "--restarts": "1"},
         switches={"--no-igs"})
@example(spec="n=3,c=3", flags={"--lowfreq": "1"}, switches=set())  # K*N below 128
def test_run_flags_exit_0_2_or_3_with_one_json_line(spec, flags, switches):
    argv = ["run", "--synthetic", spec]
    argv += [f"{flag}={value}" for flag, value in flags.items()] + sorted(switches)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv + ["--out", str(out)])
        assert code in (0, 2, 3), argv
        if code:
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1, argv
            record = json.loads(lines[0])
            assert record["error"] and record["message"]
            return
        written = out.read_text(encoding="utf-8")
    assert written == stdout.getvalue()
    report = json.loads(written)
    assert np.isfinite(report["objective_trace"]).all()
    labels = report["labels_pred"]
    assert len(labels) == report["dataset"]["n_samples"]
    assert sorted(set(labels)) == list(range(report["config"]["n_clusters"]))


def test_kernel_width_override_rescues_degenerate_view(tmp_path, capsys):
    view = np.zeros((3, 10))
    path = tmp_path / "flat.csv"
    np.savetxt(path, view.T, fmt="%.17g", delimiter=",")
    manifest = {"n_clusters": 2, "views": [{"path": "flat.csv"}]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    code, stdout, _ = run_cli(
        capsys,
        "run",
        "--manifest", str(tmp_path / "manifest.json"),
        "--anchors", "3",
        "--lowfreq", "3",  # default band does not fit 10 samples
        "--kernel-width", "1.0",
    )
    assert code == 0
    assert json.loads(stdout)["config"]["kernel_width_per_view"] == [1.0]


def test_metrics_subcommand(tmp_path, capsys):
    (tmp_path / "pred.txt").write_text("0\n0\n1\n1\n")
    (tmp_path / "truth.txt").write_text("1\n1\n0\n0\n")
    code, stdout, _ = run_cli(
        capsys, "metrics", "--pred", str(tmp_path / "pred.txt"),
        "--truth", str(tmp_path / "truth.txt"),
    )
    assert code == 0
    scores = json.loads(stdout)
    assert scores["acc"] == 1.0
    assert scores["ari"] == 1.0


def test_gen_synthetic_then_run(tmp_path, capsys):
    code, stdout, _ = run_cli(
        capsys,
        "gen-synthetic",
        "--synthetic", "n=60,c=3,v=2,dims=4:5,noise=0.05,seed=8",
        "--out", str(tmp_path / "gen"),
    )
    assert code == 0
    manifest = stdout.strip()
    code, stdout, _ = run_cli(
        capsys, "run", "--manifest", manifest, "--anchors", "20", "--seed", "0"
    )
    assert code == 0
    assert json.loads(stdout)["dataset"]["n_samples"] == 60


def test_synthetic_defaults_come_from_generate_synthetic(tmp_path, capsys):
    expected = generate_synthetic(60, 3, 3, [16, 16, 16], noise=0.1, seed=0)
    code, stdout, _ = run_cli(
        capsys, "gen-synthetic", "--synthetic", "n=60,c=3", "--out", str(tmp_path)
    )
    assert code == 0
    written = load_dataset(stdout.strip())
    for got, want in zip(written.views, expected.views, strict=True):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(written.labels, expected.labels)
    # the spec's unset keys take the same defaults, its seed the run's --seed;
    # a blank token is skipped
    direct = json.loads(run_pipeline(expected, PipelineConfig(n_anchors=20)).to_json())
    direct.pop("timings")
    for spec in ("n=60,c=3", "n=60,,c=3, "):
        code, stdout, _ = run_cli(capsys, "run", "--synthetic", spec, "--anchors", "20")
        assert code == 0
        from_spec = json.loads(stdout)
        from_spec.pop("timings")
        assert from_spec == direct


@pytest.mark.parametrize("source", ["manifest", "synthetic"])
def test_run_without_seed_matches_seed_zero(tmp_path, capsys, source):
    if source == "manifest":
        manifest = save_dataset(generate_synthetic(60, 3, 2, [4, 5], seed=5), tmp_path)
        args = ["run", "--manifest", str(manifest), "--anchors", "20"]
    else:
        args = ["run", "--synthetic", "n=60,c=3,v=2,dims=4:5", "--anchors", "20"]
    reports = []
    for extra in ([], ["--seed", "0"]):
        code, stdout, _ = run_cli(capsys, *args, *extra)
        assert code == 0
        report = json.loads(stdout)
        report.pop("timings")
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("spec, kwargs, fmt", [
    ("n=60,c=3,v=2,dims=4:5,noise=0.05,seed=8",
     dict(n_samples=60, n_clusters=3, n_views=2, dims=[4, 5], noise=0.05, seed=8), "csv"),
    ("n=40,c=2", dict(n_samples=40, n_clusters=2), "csv"),
    ("n=30,c=3,v=1,dims=6,seed=4", dict(n_samples=30, n_clusters=3, n_views=1, dims=[6], seed=4), "bin"),
], ids=["all-keys", "defaults", "bin"])
def test_gen_synthetic_writes_what_save_dataset_writes(tmp_path, capsys, spec, kwargs, fmt):
    code, stdout, _ = run_cli(
        capsys, "gen-synthetic", "--synthetic", spec, "--format", fmt, "--out", str(tmp_path / "cli")
    )
    assert code == 0
    assert stdout.strip() == str(tmp_path / "cli" / "manifest.json")
    save_dataset(generate_synthetic(**kwargs), tmp_path / "direct", fmt=fmt)
    written = sorted(p.name for p in (tmp_path / "cli").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "direct").iterdir())
    for name in written:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "direct" / name).read_bytes(), name


def test_readme_run_defaults_match_solver_config():
    text = README.read_text(encoding="utf-8")
    fields = {
        "--lambda": (SolverConfig, "lam"),
        "--beta": (SolverConfig, "beta"),
        "--lowfreq": (SolverConfig, "low_freq"),
        "--iters": (SolverConfig, "max_iters"),
        "--early-stop-tol": (SolverConfig, "early_stop_tol"),
        "--restarts": (PipelineConfig, "restarts"),
        "--seed": (PipelineConfig, "seed"),
    }
    for flag, (owner, field) in fields.items():
        described = re.search(rf"`{flag}` \(([^)]*)\)", text)
        assert described, f"README does not describe {flag}"
        stated = re.search(r"default\s+([\d.]+)", described.group(1))
        assert stated, f"README states no default for {flag}"
        assert float(stated.group(1)) == getattr(owner, field), flag


def test_threads_flag_leaves_the_report_unchanged(capsys):
    args = (
        "run",
        "--synthetic", "n=40,c=2,v=1,dims=4,noise=0.1,seed=0",
        "--anchors", "10",
        "--seed", "0",
    )
    code, baseline, _ = run_cli(capsys, *args)
    assert code == 0
    code, with_flag, _ = run_cli(capsys, *args, "--threads", "1")
    assert code == 0
    reports = [json.loads(s) for s in (baseline, with_flag)]
    for r in reports:
        r.pop("timings")
    assert reports[0] == reports[1]  # results independent of the cap


@pytest.fixture
def pools():
    """numpy's and scipy's bundled OpenBLAS ``(get, set)`` pairs; their counts are restored after the test."""
    found = pipeline._openblas_pools()
    if None in found:
        pytest.skip("no bundled OpenBLAS copy found beside numpy or scipy")
    before = openblas_threads()
    yield found
    for (_, put), count in zip(found, before):
        put(count)


def openblas_threads():
    """Thread count of numpy's and of scipy's bundled OpenBLAS copy."""
    return [get() for get, _ in pipeline._openblas_pools()]


def threads_seen_by_the_solve(monkeypatch) -> list:
    """Make each solve append ``openblas_threads()`` to the returned list."""
    seen = []
    solve = pipeline.solver_run

    def spy(graphs, cfg):
        seen.append(openblas_threads())
        return solve(graphs, cfg)

    monkeypatch.setattr(pipeline, "solver_run", spy)
    return seen


def test_threads_flag_sets_bundled_openblas_for_the_run(capsys, monkeypatch, pools):
    seen = threads_seen_by_the_solve(monkeypatch)
    before = openblas_threads()
    code, _, _ = run_cli(
        capsys, "run", "--synthetic", "n=40,c=2,v=1,dims=4,noise=0.1,seed=0",
        "--anchors", "10", "--threads", "2",
    )
    assert code == 0
    assert seen == [[2, 1]]  # numpy's pool takes --threads, scipy's runs on one
    assert openblas_threads() == before  # restored after the run


def test_default_run_keeps_numpy_pool_and_runs_scipy_pool_on_one_thread(capsys, monkeypatch, pools):
    seen = threads_seen_by_the_solve(monkeypatch)
    _, (_, set_scipy) = pools
    set_scipy(2)  # so the test holds where the environment pins one thread
    before = openblas_threads()
    code, _, _ = run_cli(
        capsys, "run", "--synthetic", "n=40,c=2,v=1,dims=4,noise=0.1,seed=0", "--anchors", "10",
    )
    assert code == 0
    assert seen == [[before[0], 1]]
    assert openblas_threads() == [before[0], 2]


def test_run_that_raises_restores_both_pools(monkeypatch, pools):
    def fail(graphs, cfg):
        assert openblas_threads() == [2, 1]
        raise SingularSystem("raised inside the thread cap")

    monkeypatch.setattr(pipeline, "solver_run", fail)
    (_, set_numpy), (_, set_scipy) = pools
    set_numpy(1)
    set_scipy(2)
    dataset = generate_synthetic(40, 2, n_views=1, dims=[4], noise=0.1, seed=0)
    with pytest.raises(SingularSystem, match="inside the thread cap"):
        run_pipeline(dataset, PipelineConfig(n_anchors=10, threads=2))
    assert openblas_threads() == [1, 2]


@pytest.mark.parametrize("count", [np.int64(1), np.int32(1)], ids=["int64", "int32"])
def test_numpy_integer_threads_runs_and_restores_both_pools(monkeypatch, pools, count):
    seen = threads_seen_by_the_solve(monkeypatch)
    (_, set_numpy), (_, set_scipy) = pools
    set_numpy(2)
    set_scipy(2)
    dataset = generate_synthetic(40, 2, n_views=1, dims=[4], noise=0.1, seed=0)
    run_pipeline(dataset, PipelineConfig(n_anchors=10, threads=count))
    assert seen == [[1, 1]]
    assert openblas_threads() == [2, 2]


def test_readme_commands_and_paths_exist(capsys):
    blocks = "\n".join(re.findall(r"```bash\n(.*?)```", README.read_text(encoding="utf-8"), re.S))
    blocks = blocks.replace("\\\n", " ")  # join continued lines
    commands = [shlex.split(line, comments=True) for line in re.findall(r"(?<![\w/.-])mvtc[ \t]+(.*)", blocks)]
    paths = set(re.findall(r"(?<![\w/.-])(?:scripts|perfbench|tests)/[\w./-]*\w", blocks))
    assert commands and paths
    for argv in commands:  # each parses as README writes it; a usage error raises
        _build_parser().parse_args(argv)
    for sub in sorted({argv[0] for argv in commands}):  # README: --help prints usage, exits 0
        with pytest.raises(SystemExit) as stop:
            main([sub, "--help"])
        assert stop.value.code == 0, f"'mvtc {sub} --help' exited {stop.value.code}"
    capsys.readouterr()
    assert not [p for p in sorted(paths) if not (README.parent / p).exists()]


def test_readme_module_references_exist():
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    modules = {
        name: importlib.import_module(f"mvtc.{name}")
        for name in ("anchors", "solver", "tensor_ops", "clustering", "pipeline", "data", "metrics", "cli")
    }
    # `anchors.GRAPH_TILE`, `solver.run(...)`: an attribute of that module
    attributes = [re.match(r"(\w+)\.(\w+)", span) for span in spans]
    attributes = [ref for ref in attributes if ref and ref[1] in modules]
    # `mvtc.solver`, `mvtc.run_pipeline(...)`: a module or an attribute of the package
    packages = [ref[1] for ref in (re.match(r"mvtc\.(\w+)", span) for span in spans) if ref]
    assert attributes and packages
    assert not [ref[0] for ref in attributes if not hasattr(modules[ref[1]], ref[2])]
    assert not [
        name for name in packages
        if not hasattr(mvtc, name) and importlib.util.find_spec(f"mvtc.{name}") is None
    ]
