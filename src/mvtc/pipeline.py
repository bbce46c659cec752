"""End-to-end pipeline: anchors -> graphs -> solver -> k-means -> scores.

Every stage is individually importable; ``run_pipeline`` wires them up,
times them, and packages a JSON-serializable :class:`RunReport`.  All
non-timing report content is a deterministic function of (dataset, config,
seed, BLAS thread count): BLAS sums in a thread-dependent order, so the
objective trace can differ in its last digits between thread counts.
"""

from __future__ import annotations

import ctypes
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .anchors import build_all_graphs, sample_norm_order, select_anchors
from .clustering import ClusterModel, kmeans_fit
from .data import MultiViewDataset
from .errors import ValidationError
from .metrics import clustering_scores
from .solver import SolverConfig, SolverState, run as solver_run

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


@dataclass
class PipelineConfig:
    n_clusters: int | None = None   # falls back to the dataset's cluster count
    embed_dim: int | None = None    # falls back to n_clusters
    n_anchors: int | None = None    # falls back to min(1000, N)
    lam: float = SolverConfig.lam
    beta: float = SolverConfig.beta
    low_freq: int = SolverConfig.low_freq
    max_iters: int = SolverConfig.max_iters
    seed: int = 0
    early_stop_tol: float = SolverConfig.early_stop_tol
    restarts: int = 1
    kernel_width: list[float] | float | None = None
    no_isc: bool = False   # drop the consensus coupling (beta forced to 0)
    no_igs: bool = False   # skip low-frequency smoothing (tensor passes through)
    threads: int | None = None


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
    on how the files were written.  Reported labels are mapped back to
    the input order.  ``config.threads`` sets the BLAS threads for the run.
    """
    with _thread_cap(config.threads):
        return _cluster(dataset, config, out_path)


def _cluster(dataset: MultiViewDataset, config: PipelineConfig, out_path) -> RunReport:
    t_total = time.perf_counter()
    n = dataset.n_samples
    n_clusters = config.n_clusters or dataset.n_clusters
    if not n_clusters:
        raise ValidationError("cluster count unknown: set it in the config or manifest")
    embed_dim = config.embed_dim or n_clusters
    if embed_dim < 2:
        raise ValidationError(
            f"embedding dimension must be at least 2, got {embed_dim}; set embed_dim"
        )
    n_anchors = config.n_anchors if config.n_anchors is not None else min(DEFAULT_ANCHORS, n)
    if config.restarts < 1:
        raise ValidationError("restarts must be at least 1")

    t0 = time.perf_counter()
    order = sample_norm_order(dataset.views)
    views = [np.ascontiguousarray(v[:, order]) for v in dataset.views]
    anchor_set = select_anchors(views, n_anchors, config.seed, kernel_width=config.kernel_width)
    graphs = build_all_graphs(views, anchor_set)
    graph_build_s = time.perf_counter() - t0

    solver_cfg = SolverConfig(
        embed_dim=embed_dim,
        lam=config.lam,
        beta=0.0 if config.no_isc else config.beta,
        low_freq=config.low_freq,
        max_iters=config.max_iters,
        seed=config.seed,
        early_stop_tol=config.early_stop_tol,
        smooth_embeddings=not config.no_igs,
    )
    t0 = time.perf_counter()
    state = solver_run(graphs, solver_cfg)
    solve_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    model = _best_kmeans(state, n_clusters, config)
    kmeans_s = time.perf_counter() - t0

    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.arange(n)
    labels_pred = model.labels[inverse]  # back to the caller's sample order

    scores = None
    if dataset.labels is not None:
        scores = clustering_scores(labels_pred, dataset.labels)

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
            "lam": config.lam,
            "beta": solver_cfg.beta,
            "low_freq": int(config.low_freq),
            "max_iters": int(config.max_iters),
            "early_stop_tol": config.early_stop_tol,
            "restarts": int(config.restarts),
            "kernel_width_per_view": [float(s) for s in anchor_set.sigma_per_view],
            "no_isc": bool(config.no_isc),
            "no_igs": bool(config.no_igs),
        },
        metrics=scores,
        labels_pred=labels_pred.tolist(),
        objective_trace=[float(v) for v in state.objective_trace],
        iterations=int(state.iterations),
        timings={
            "graph_build_s": graph_build_s,
            "solve_s": solve_s,
            "kmeans_s": kmeans_s,
            "total_s": time.perf_counter() - t_total,
        },
        seed=int(config.seed),
        versions={
            "mvtc": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    )
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_json())
    return report


def _best_kmeans(state: SolverState, n_clusters: int, config: PipelineConfig) -> ClusterModel:
    """Lowest-inertia fit over ``restarts`` seeds (ties keep the earliest)."""
    best = None
    for r in range(config.restarts):
        model = kmeans_fit(state.consensus, n_clusters, seed=config.seed + r)
        if best is None or model.inertia < best.inertia:
            best = model
    return best


def solver_scale_bench(
    n_values: list[int],
    n_anchors: int = 200,
    embed_dim: int = 10,
    n_views: int = 3,
    iters: int = 3,
    seed: int = 0,
    repeats: int = 2,
) -> dict:
    """Per-iteration solver wall-clock across sample counts.

    Anchor graphs are synthesized directly (entries in (0, 1]) so the
    measurement isolates the solver; per-iteration time is the best of
    ``repeats`` full solves divided by the iteration count, after one
    discarded warmup solve (BLAS pools, allocator, and CPU clocks need a
    run to settle).  The solves take :class:`SolverConfig`'s default
    ``lam``, ``beta`` and ``low_freq``.  Consecutive ratios ~2 for doubled
    N confirm the expected linear scaling.

    The solves run on one BLAS thread: a threaded pool adds a per-call
    cost that does not grow with N and varies on a busy host.
    """

    def make_graphs(n: int) -> list[np.ndarray]:
        rng = np.random.default_rng(seed)
        return [1.0 - rng.random((n_anchors, n)) for _ in range(n_views)]

    def solve(graphs: list[np.ndarray]):
        cfg = SolverConfig(embed_dim=embed_dim, max_iters=iters, seed=seed)
        t0 = time.perf_counter()
        state = solver_run(graphs, cfg)
        return state, time.perf_counter() - t0

    runs = []
    with _thread_cap(1):
        solve(make_graphs(min(n_values)))  # warmup, discarded
        for n in n_values:
            graphs = make_graphs(n)
            best, state = None, None
            for _ in range(max(1, repeats)):
                state, elapsed = solve(graphs)
                best = elapsed if best is None else min(best, elapsed)
            runs.append(
                {
                    "n_samples": int(n),
                    "iterations": int(state.iterations),
                    "solve_s": best,
                    "per_iteration_s": best / state.iterations,
                }
            )
    ratios = [
        {
            "n_from": runs[i - 1]["n_samples"],
            "n_to": runs[i]["n_samples"],
            "per_iteration_ratio": runs[i]["per_iteration_s"] / runs[i - 1]["per_iteration_s"],
        }
        for i in range(1, len(runs))
    ]
    return {
        "n_anchors": n_anchors,
        "embed_dim": embed_dim,
        "n_views": n_views,
        "iters": iters,
        "seed": seed,
        "runs": runs,
        "ratios": ratios,
    }


@contextmanager
def _thread_cap(threads: int | None):
    """Run the block with each bundled OpenBLAS copy on ``threads`` threads.

    numpy and scipy each bundle one (products run on numpy's, Cholesky on
    scipy's); counts are set through ctypes and restored on exit.  ``None``,
    or a build linked against another BLAS, leaves the pools as they are.
    """
    if threads is not None and threads < 1:
        raise ValidationError(f"thread cap must be positive, got {threads}")
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
