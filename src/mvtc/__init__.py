"""Scalable multi-view clustering via anchor graphs and tensor smoothing.

Pipeline stages, all importable on their own:

* :mod:`mvtc.anchors` -- shared anchor selection and RBF anchor graphs
* :mod:`mvtc.tensor_ops` -- mode-3 tensor algebra and low-frequency truncation
* :mod:`mvtc.solver` -- alternating closed-form embedding optimization
* :mod:`mvtc.clustering` -- k-means with one hard label per sample
* :mod:`mvtc.metrics` -- the seven clustering agreement scores
* :mod:`mvtc.pipeline` -- end-to-end runs with JSON reports
"""

__version__ = "0.1.0"

from .anchors import AnchorSet, build_all_graphs, build_anchor_graph, select_anchors
from .clustering import ClusterModel, kmeans_fit
from .data import MultiViewDataset, generate_synthetic, load_dataset, save_dataset
from .metrics import clustering_scores
from .pipeline import PipelineConfig, RunReport, run_pipeline
from .solver import SolverConfig, SolverState

__all__ = [
    "__version__",
    "AnchorSet",
    "ClusterModel",
    "MultiViewDataset",
    "PipelineConfig",
    "RunReport",
    "SolverConfig",
    "SolverState",
    "build_all_graphs",
    "build_anchor_graph",
    "clustering_scores",
    "generate_synthetic",
    "kmeans_fit",
    "load_dataset",
    "run_pipeline",
    "save_dataset",
    "select_anchors",
]
