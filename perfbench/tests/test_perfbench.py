"""Tests of the benchmark's own code: tiny workloads, the checker, the tracer.

Run from the root of the repository: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_prints_every_metric_with_its_unit(name, trace):
    done = run_bench("--workload", name, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    section = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in section}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    if trace:
        assert "hooks absent: none" in done.stdout


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__", "tests"))
    done = run_bench("--workload", "long-thin", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _report(labels, trace, acc=1.0):
    from mvtc.pipeline import RunReport

    return RunReport(
        dataset={}, config={}, metrics={"acc": acc, "nmi": 1.0}, labels_pred=list(labels),
        objective_trace=list(trace), iterations=len(trace), timings={}, seed=0, versions={},
    )


def _problems(report, reference=None, written=None, floor=0.5):
    written = report.to_json() if written is None else written
    return checks.check_report(report, written, 6, 3, floor, reference)


GOOD_LABELS = [0, 1, 2, 0, 1, 2]


def test_checker_passes_a_good_report():
    assert _problems(_report(GOOD_LABELS, [3.0, 2.0, 2.0])) == []


@pytest.mark.parametrize("trace", [[3.0, 2.0, 2.5], [3.0, float("nan")], []])
def test_checker_flags_a_bad_trace(trace):
    assert any("objective trace" in p for p in _problems(_report(GOOD_LABELS, trace)))


def test_checker_flags_a_missing_cluster():
    problems = _problems(_report([0, 1, 0, 1, 0, 1], [2.0, 1.0]))
    assert any("not a partition" in p for p in problems)


def test_checker_flags_a_digest_mismatch():
    other = checks.label_digest([1, 0, 2, 1, 0, 2])
    assert any("digest" in p for p in _problems(_report(GOOD_LABELS, [2.0, 1.0]), other))
    same = checks.label_digest(GOOD_LABELS)
    assert _problems(_report(GOOD_LABELS, [2.0, 1.0]), same) == []


def test_checker_flags_low_acc_and_a_stale_written_report():
    assert any("floor" in p for p in _problems(_report(GOOD_LABELS, [1.0], acc=0.4)))
    stale = _report([2, 1, 0, 2, 1, 0], [1.0]).to_json()
    assert any("written" in p for p in _problems(_report(GOOD_LABELS, [1.0]), written=stale))


def test_absent_hook_is_recorded_and_spans_add_up():
    import mvtc.pipeline
    from mvtc.data import generate_synthetic

    original = mvtc.pipeline.select_anchors
    tracer = spans.Tracer()
    tracer.install(spans.HOOKS + (("mvtc.pipeline", "no_such_function", "gone"),))
    try:
        assert [h["installed"] for h in tracer.hooks] == [True] * len(spans.HOOKS) + [False]
        workload = WORKLOADS["anchor-dense"].tiny()
        dataset = generate_synthetic(300, 3, 3, [5, 6, 7], 0.3, seed=1)
        with tracer.span(spans.OP):
            mvtc.pipeline.run_pipeline(dataset, workload.config(1))
    finally:
        tracer.uninstall()
    assert mvtc.pipeline.select_anchors is original
    assert spans.nesting_errors(tracer.spans) == 0
    own = spans.self_times(tracer.spans)
    op = tracer.spans[0]
    assert sum(own) == pytest.approx(op.end - op.start, rel=1e-9)
    sizes = {"n": 300, "m": 100, "v": 3, "dsum": 18, "input_mb": 0.0}
    profile = spans.operation_profile(tracer, 0, sizes)
    assert profile["solver.iterations"] == 7
    assert profile["solver.cholesky_calls"] == 21
    assert profile["tensor_ops.lowfreq_calls"] == 7
    assert profile["clustering.lloyd_iters"] >= 1
