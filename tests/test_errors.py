"""One error class per kind of failure, whichever stage catches it."""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from mvtc import errors
from mvtc.anchors import select_anchors
from mvtc.clustering import kmeans_fit
from mvtc.data import generate_synthetic
from mvtc.errors import ValidationError
from mvtc.solver import SolverConfig, run as solver_run
from mvtc.tensor_ops import lowfreq_truncate

SRC = Path(errors.__file__).resolve().parent
N, M = 40, 10  # samples; anchors per view


def _views():
    return [np.random.default_rng(0).standard_normal((3, N))]


def _graphs():
    return [np.random.default_rng(1).random((M, N))]


@pytest.mark.parametrize("name, call", [
    ("n_anchors", lambda: select_anchors(_views(), 0, seed=0)),
    ("n_anchors", lambda: select_anchors(_views(), N + 1, seed=0)),
    ("n_clusters", lambda: kmeans_fit(np.zeros((2, N)), 0, seed=0)),
    ("n_clusters", lambda: kmeans_fit(np.zeros((2, N)), N + 1, seed=0)),
    ("n_clusters", lambda: generate_synthetic(N, 0)),
    ("n_clusters", lambda: generate_synthetic(N, N + 1)),
    ("embed_dim", lambda: SolverConfig(embed_dim=1)),
    ("embed_dim", lambda: solver_run(_graphs(), SolverConfig(embed_dim=M + 1, low_freq=3))),
    ("low_freq", lambda: SolverConfig(embed_dim=2, low_freq=0)),
    ("low_freq", lambda: solver_run(_graphs(), SolverConfig(embed_dim=2, low_freq=N // 2 + 2))),
    ("low_freq", lambda: lowfreq_truncate(np.zeros((2, 2, N)), 0)),
    ("low_freq", lambda: lowfreq_truncate(np.zeros((2, 2, N)), N // 2 + 2)),
    ("low_freq", lambda: lowfreq_truncate(np.zeros((2, 2, N)), 3.0)),
], ids=["anchors-0", "anchors-n+1", "kmeans-0", "kmeans-n+1", "synthetic-0", "synthetic-n+1",
        "config-embed-1", "run-embed-m+1", "config-lowfreq-0", "run-lowfreq-n/2+2",
        "truncate-0", "truncate-n/2+2", "truncate-float"])
def test_out_of_range_setting_is_a_plain_validation_error_at_every_stage(name, call):
    with pytest.raises(ValidationError, match=f"^{name} must be an integer") as info:
        call()
    assert info.type is ValidationError


def test_every_error_class_is_raised_somewhere():
    raised = set()
    for path in SRC.glob("*.py"):
        raised.update(re.findall(r"\braise\s+(\w+)\(", path.read_text(encoding="utf-8")))
    classes = {name for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, Exception) and cls.__module__ == errors.__name__}
    unused = classes - raised - {"ValidationError", "NumericalError"}
    assert not unused, f"error classes never raised in src/mvtc: {sorted(unused)}"
