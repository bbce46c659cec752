"""End-to-end pipeline: anchors -> graphs -> solver -> k-means -> scores.

Every stage is individually importable.  ``run_pipeline`` times its stages
with ``_timed`` (the graph stage, ``_embed``, frees its arrays as it returns)
and packages a JSON-serializable :class:`RunReport`.  All non-timing report
content is a deterministic function of (dataset, config, seed, BLAS thread
count): BLAS sums in a thread-dependent order, so the objective trace can
differ in its last digits between thread counts.
"""

from __future__ import annotations

import ctypes
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .anchors import build_all_graphs, select_anchors
from .clustering import kmeans_fit
from .data import MultiViewDataset
from .errors import ValidationError, check_int, check_switch
from .metrics import clustering_scores
from .solver import SolverConfig, SolverSettings, run as solver_run

DEFAULT_ANCHORS = 1000  # clamped to N on smaller datasets

# (package, library glob beside its directory, symbol suffix) of the
# OpenBLAS copy that the package's wheel bundles.
_OPENBLAS = (
    (np, "numpy.libs/libscipy_openblas64_*.so", "64_"),
    (scipy, "scipy.libs/libscipy_openblas-*.so", ""),
)

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
    n_clusters: int | None = None   # falls back to the dataset's cluster count
    embed_dim: int | None = None    # falls back to n_clusters
    n_anchors: int | None = None    # falls back to min(DEFAULT_ANCHORS, N)
    restarts: int = 1
    kernel_width: list[float] | float | None = None
    no_isc: bool = False   # drop the consensus coupling (beta forced to 0)
    no_igs: bool = False   # skip low-frequency smoothing (tensor passes through)
    threads: int | None = None

    def __post_init__(self):
        """Check the shared solver settings, then the pipeline's integer fields and switches.

        The ranges of ``n_clusters``, ``embed_dim`` and ``n_anchors`` depend
        on the data and are checked at the run, as are the kernel widths,
        whose count must match the views.  ``None`` keeps a fallback.
        ``threads`` reaches OpenBLAS as a C ``int``, so it is at most 2**31 - 1.
        """
        super().__post_init__()
        for name, least, most in (("n_clusters", None, None), ("embed_dim", None, None),
                                  ("n_anchors", None, None), ("threads", 1, 2**31 - 1)):
            if getattr(self, name) is not None:
                check_int(name, getattr(self, name), least, most=most)
        check_int("restarts", self.restarts, 1)
        for name in ("no_isc", "no_igs"):
            check_switch(name, getattr(self, name))


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
    input order.  ``config.threads`` sets the BLAS threads for the run.
    """
    with _thread_cap(config.threads):
        t_total = time.perf_counter()
        n = dataset.n_samples
        n_clusters = config.n_clusters if config.n_clusters is not None else dataset.n_clusters
        if n_clusters is None:
            raise ValidationError("cluster count unknown: set it in the config or manifest")
        check_int("n_clusters", n_clusters, 1)
        embed_dim = config.embed_dim if config.embed_dim is not None else n_clusters
        n_anchors = config.n_anchors if config.n_anchors is not None else min(DEFAULT_ANCHORS, n)
        solver_cfg = SolverConfig(
            embed_dim=embed_dim, smooth_embeddings=not config.no_igs,
            **{f.name: getattr(config, f.name) for f in fields(SolverSettings)},
        )
        if config.no_isc:
            solver_cfg = replace(solver_cfg, beta=0.0)

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
                # the shared solver settings as the solver ran them (beta is 0 under no_isc);
                # seed has its own top-level key
                **{f.name: type(f.default)(getattr(solver_cfg, f.name))
                   for f in fields(SolverSettings) if f.name != "seed"},
                "restarts": int(config.restarts),
                "kernel_width_per_view": [float(s) for s in kernel_widths],
                "no_isc": bool(config.no_isc),
                "no_igs": bool(config.no_igs),
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
        views = [np.ascontiguousarray(v[:, order]) for v in views]
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
    """Run the block with each bundled OpenBLAS copy on ``threads`` (>= 1) threads.

    numpy and scipy each bundle one (products run on numpy's, Cholesky on
    scipy's); counts are set through ctypes and restored on exit.  ``None``,
    or a build linked against another BLAS, leaves the pools as they are.
    """
    restore = []
    for package, pattern, suffix in _OPENBLAS if threads is not None else ():
        for path in sorted(Path(package.__file__).resolve().parent.parent.glob(pattern))[:1]:
            lib = ctypes.CDLL(str(path))
            get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
            if get is not None and put is not None:
                restore.append((put, get()))
                put(threads)
    try:
        yield
    finally:
        for put, count in restore:
            put(count)
