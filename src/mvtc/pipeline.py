"""End-to-end pipeline: anchors -> graphs -> solver -> k-means -> scores.

Every stage is individually importable.  ``run_pipeline`` times its stages
with ``_timed`` (the graph stage, ``_embed``, frees its arrays as it returns)
and packages a JSON-serializable :class:`RunReport`.  All non-timing report
content is a deterministic function of (dataset, config, seed, numpy BLAS
pool's thread count; scipy's runs on one): BLAS sums in a thread-dependent
order, so the objective trace can differ in its last digits between counts.
"""

from __future__ import annotations

import ctypes
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import cache
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .anchors import build_all_graphs, select_anchors
from .clustering import kmeans_fit
from .data import MultiViewDataset
from .errors import TooManyAnchors, ValidationError, check_int
from .metrics import clustering_scores
from .solver import SolverConfig, SolverSettings, run as solver_run
from .tensor_ops import check_low_freq

DEFAULT_ANCHORS = 1000  # clamped to N on smaller datasets

# Hyperparameter presets for the public benchmark datasets, keyed by the
# conventional dataset names.  Useful only to users who obtain the data.
PRESETS: dict[str, dict] = {
    "ccv": {"beta": 0.1, "lam": 1e-5, "low_freq": 18, "n_anchors": 1000},
    "caltech102": {"beta": 1.0, "lam": 10.0, "low_freq": 16, "n_anchors": 1000},
    "nuswideobj": {"beta": 1.0, "lam": 1e-3, "low_freq": 16, "n_anchors": 1000},
    "awa": {"beta": 0.1, "lam": 0.03, "low_freq": 9, "n_anchors": 1000},
    "cifar10": {"beta": 1e-4, "lam": 1e-4, "low_freq": 16, "n_anchors": 1000},
    "youtubeface": {"beta": 0.1, "lam": 0.005, "low_freq": 19, "n_anchors": 1000},
}


@dataclass(kw_only=True)
class PipelineConfig(SolverSettings):
    """Run settings; the ablation without the consensus coupling (``--no-isc``) is ``beta=0``."""

    n_clusters: int | None = None   # falls back to the dataset's cluster count
    embed_dim: int | None = None    # falls back to n_clusters
    n_anchors: int | None = None    # falls back to min(DEFAULT_ANCHORS, N)
    restarts: int = 1
    kernel_width: list[float] | float | None = None
    threads: int | None = None   # numpy's BLAS pool; None keeps its count (scipy's runs on 1)

    def __post_init__(self):
        """Check the shared solver settings, then the pipeline's integer fields.

        The ranges of ``n_clusters``, ``embed_dim``, ``n_anchors`` and the
        top of ``low_freq`` depend on the data and are checked when the run
        starts, as are the kernel widths, whose count must match the views.
        ``None`` keeps a fallback.
        ``threads`` reaches OpenBLAS as a C ``int``, so it is at most 2**31 - 1.
        """
        super().__post_init__()
        for name, least, most in (("n_clusters", None, None), ("embed_dim", None, None),
                                  ("n_anchors", None, None), ("threads", 1, 2**31 - 1)):
            if getattr(self, name) is not None:
                check_int(name, getattr(self, name), least, most=most)
        check_int("restarts", self.restarts, 1)


@dataclass
class RunReport:
    dataset: dict
    config: dict
    metrics: dict | None
    labels_pred: list[int]
    objective_trace: list[float]
    iterations: int
    timings: dict
    seed: int
    versions: dict

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        if self.metrics is None:
            del out["metrics"]
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def run_pipeline(dataset: MultiViewDataset, config: PipelineConfig, out_path=None) -> RunReport:
    """Cluster a multi-view dataset and report scores, trace, and timings.

    Samples are processed in ascending order of the L2 norm of their
    concatenated all-view features.  The low-frequency smoothing acts
    along the sample axis, so it needs an order in which similar samples
    sit near each other; the norm order provides one that does not depend
    on how the files were written.  Anchors are drawn uniformly over the
    samples in this order, and reported labels are mapped back to the
    input order.  ``config.threads`` sets numpy's BLAS threads for the run,
    and scipy's run on one (see ``_thread_cap``).
    """
    with _thread_cap(config.threads):
        t_total = time.perf_counter()
        n = dataset.n_samples
        n_clusters = config.n_clusters if config.n_clusters is not None else dataset.n_clusters
        if n_clusters is None:
            raise ValidationError("cluster count unknown: set it in the config or manifest")
        check_int("n_clusters", n_clusters, 1, most=n)
        embed_dim = config.embed_dim if config.embed_dim is not None else n_clusters
        n_anchors = config.n_anchors if config.n_anchors is not None else min(DEFAULT_ANCHORS, n)
        solver_cfg = SolverConfig(
            embed_dim=embed_dim, **{f.name: getattr(config, f.name) for f in fields(SolverSettings)}
        )
        # select_anchors, the solver and k-means check these too, but the
        # solver and k-means only after the graph build
        check_int("n_anchors", n_anchors, 1, TooManyAnchors, most=n)
        check_int("embed_dim", embed_dim, most=n_anchors)
        if not config.no_igs:
            check_low_freq(n, config.low_freq)

        timings = {}
        order, kernel_widths, state = _embed(
            dataset.views, n_anchors, config.kernel_width, solver_cfg, timings
        )
        # k-means reads only the consensus.  The state is kept: freeing its
        # tensors here made k-means fault their pages back in.  The lowest
        # inertia wins, and a tie keeps the earliest restart.
        with _timed(timings, "kmeans_s"):
            model = min((kmeans_fit(state.consensus, n_clusters, seed=config.seed + r)
                         for r in range(config.restarts)), key=lambda m: m.inertia)

        labels_pred = np.empty_like(model.labels)
        labels_pred[order] = model.labels  # back to the caller's sample order

        scores = None if dataset.labels is None else clustering_scores(labels_pred, dataset.labels)

        report = RunReport(
            dataset={
                "name": dataset.name,
                "n_samples": n,
                "n_views": dataset.n_views,
                "view_dims": [int(v.shape[0]) for v in dataset.views],
                "n_clusters": int(n_clusters),
                "has_labels": dataset.labels is not None,
            },
            config={
                "n_clusters": int(n_clusters),
                "embed_dim": int(embed_dim),
                "n_anchors": int(n_anchors),
                # the shared solver settings; seed has its own top-level key
                **{f.name: type(f.default)(getattr(solver_cfg, f.name))
                   for f in fields(SolverSettings) if f.name != "seed"},
                "restarts": int(config.restarts),
                "kernel_width_per_view": [float(s) for s in kernel_widths],
            },
            metrics=scores,
            labels_pred=labels_pred.tolist(),
            objective_trace=[float(v) for v in state.objective_trace],
            iterations=int(state.iterations),
            timings={**timings, "total_s": time.perf_counter() - t_total},
            seed=int(config.seed),
            versions={
                "mvtc": __version__,
                "numpy": np.__version__,
                "scipy": scipy.__version__,
            },
        )
        if out_path is not None:  # the text is formed before the file is opened
            Path(out_path).write_text(report.to_json(), encoding="utf-8")
        return report


def _embed(views, n_anchors, kernel_width, solver_cfg, timings):
    """Order the samples, build their anchor graphs and solve: ``(order, widths, state)``.

    Times both steps into ``timings``; the graphs are released on return.
    """
    with _timed(timings, "graph_build_s"):
        order = sample_norm_order(views)
        views = [np.take(v, order, axis=1) for v in views]
        anchor_set = select_anchors(views, n_anchors, solver_cfg.seed, kernel_width=kernel_width)
        graphs, widths = build_all_graphs(views, anchor_set), anchor_set.sigma_per_view
        del views, anchor_set  # the solve holds the graphs and no other large array
    with _timed(timings, "solve_s"):
        return order, widths, solver_run(graphs, solver_cfg)


@contextmanager
def _timed(timings: dict, key: str):
    """Store the block's wall time, in seconds, as ``timings[key]``."""
    t0 = time.perf_counter()
    yield
    timings[key] = time.perf_counter() - t0


def sample_norm_order(views: list[np.ndarray]) -> np.ndarray:
    """Sample indices sorted ascending by concatenated-feature L2 norm."""
    norms = sum(np.einsum("dn,dn->n", v, v) for v in views)
    return np.argsort(norms, kind="stable")


@contextmanager
def _thread_cap(threads: int | None):
    """Run the block with numpy's OpenBLAS pool on ``threads`` threads and scipy's on one.

    Products run on numpy's copy (``None`` keeps its count); scipy's only factors
    M x M systems, and two threaded pools slow each other down.  Both are restored.
    """
    restore = []
    for pool, count in zip(_openblas_pools(), (threads, 1)):
        if pool is not None and count is not None:
            get, put = pool
            restore.append((put, get()))
            put(count)
    try:
        yield
    finally:
        for put, count in restore:
            put(count)


@cache
def _openblas_pools():
    """The ``(get, set)`` thread-count pair of numpy's and of scipy's bundled OpenBLAS, or None."""
    pools = []
    for package, pattern, suffix in ((np, "numpy.libs/libscipy_openblas64_*.so", "64_"),
                                     (scipy, "scipy.libs/libscipy_openblas-*.so", "")):
        found = sorted(Path(package.__file__).resolve().parent.parent.glob(pattern))
        lib = ctypes.CDLL(str(found[0])) if found else None
        pair = tuple(getattr(lib, f"scipy_openblas_{op}_num_threads{suffix}", None) for op in ("get", "set"))
        pools.append(None if None in pair else pair)
    return tuple(pools)
