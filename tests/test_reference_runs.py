"""Pinned end-to-end runs: the trace tolerance of the determinism contract.

``reference_runs.json`` holds, for each run below, the objective trace,
the iteration count, the per-view kernel widths and a digest of the
predicted labels, all taken on one BLAS thread.  A change to the program
must reproduce labels, widths and iteration counts exactly and every
trace value within ``TRACE_RTOL`` relative.

The runs are the pipeline runs behind acceptance criteria 04, 05, 09 and
10, and the three benchmark workloads at their ``--tiny`` size for seeds
1 and 2.  Regenerate the fixture from the root of the repository with::

    PYTHONPATH=src python tests/test_reference_runs.py --write

and name each regeneration, and why it was needed, in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from mvtc import PipelineConfig, generate_synthetic, run_pipeline

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

FIXTURE = Path(__file__).resolve().parent / "reference_runs.json"
TRACE_RTOL = 1e-12


def _blobs(noise):
    return generate_synthetic(500, 5, 3, [20, 30, 25], noise=noise, seed=7)


def _runs() -> dict:
    """Run name -> (dataset factory, pipeline config)."""
    blob_cfg = PipelineConfig(n_anchors=100, embed_dim=5)
    runs = {
        "criteria-04-05-10-blobs": (lambda: _blobs(0.1), blob_cfg),
        "criterion-05-clean-blobs": (lambda: _blobs(0.0), blob_cfg),
        "criterion-09": (
            lambda: generate_synthetic(200, 4, 2, [10, 12], noise=0.1, seed=3),
            PipelineConfig(n_anchors=50, embed_dim=4, seed=11),
        ),
        "criterion-10-no-isc": (
            lambda: _blobs(0.1), dataclasses.replace(blob_cfg, n_clusters=5, beta=0.0)
        ),
        "criterion-10-no-igs": (
            lambda: _blobs(0.1), dataclasses.replace(blob_cfg, n_clusters=5, no_igs=True)
        ),
    }
    for name, workload in WORKLOADS.items():
        tiny = workload.tiny()
        for seed in (1, 2):
            runs[f"{name}-tiny-seed{seed}"] = (
                lambda tiny=tiny, seed=seed: tiny.generate(seed), tiny.config(seed)
            )
    return runs


def summarize(name: str) -> dict:
    """The pinned fields of one run, computed on one BLAS thread."""
    make, config = _runs()[name]
    report = run_pipeline(make(), dataclasses.replace(config, threads=1))
    labels = ",".join(map(str, report.labels_pred)).encode()
    return {
        "objective_trace": report.objective_trace,
        "iterations": report.iterations,
        "kernel_widths": report.config["kernel_width_per_view"],
        "labels_sha256": hashlib.sha256(labels).hexdigest(),
    }


@pytest.mark.parametrize("name", list(_runs()))
def test_run_matches_its_pinned_reference(name):
    want = json.loads(FIXTURE.read_text())[name]
    got = summarize(name)
    assert got["labels_sha256"] == want["labels_sha256"]
    assert got["kernel_widths"] == want["kernel_widths"]
    assert got["iterations"] == want["iterations"]
    assert len(got["objective_trace"]) == len(want["objective_trace"])
    assert got["objective_trace"] == pytest.approx(want["objective_trace"], rel=TRACE_RTOL, abs=0)


def test_fixture_pins_every_run():
    assert sorted(json.loads(FIXTURE.read_text())) == sorted(_runs())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python {Path(__file__).name} --write")
    pinned = {name: summarize(name) for name in _runs()}
    FIXTURE.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pinned)} runs to {FIXTURE}")
