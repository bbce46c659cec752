"""The benchmark's workloads and the one operation each of them repeats.

Every workload is a synthetic dataset from ``mvtc.generate_synthetic``
(noise 0.3, 3 views) clustered by ``mvtc.run_pipeline`` with 7 iterations
and the default lambda, beta and L.  The three differ in which module
carries the time:

* ``anchor-dense`` -- N=20k, M=1000: the M-heavy work (graph build, kernel
  width, Grams, 21 Cholesky factorisations) dominates.
* ``long-thin`` -- N=120k, M=100, 16 features per view: the per-sample work
  linear in N (FFT smoothing, embedding update, objective, consensus,
  k-means) dominates and the M^3 / M^2 N work is almost nil.
* ``csv-many-clusters`` -- N=10k, C=K=40, 4 k-means restarts, read from a
  CSV manifest on every operation: the only workload where the pure-Python
  CSV parser and k-means carry real weight.

Array sizes against the 105 MiB L3 of the reference machine: the anchor
graphs are 3 x 160 MB on ``anchor-dense`` and 3 x 96 MB on ``long-thin``,
so both stream from memory; ``csv-many-clusters`` has 3 x 24 MB graphs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

NOISE = 0.3
N_VIEWS = 3
MAX_ITERS = 7


@dataclass(frozen=True)
class Workload:
    name: str
    n_samples: int
    n_clusters: int
    dims: tuple[int, ...]
    n_anchors: int
    # Lowest per-input ACC seen at the seed commit (40 inputs each on
    # anchor-dense and csv-many-clusters, 131 on long-thin), less 0.3,
    # rounded down to 0.05.  With one k-means restart ACC drops in steps of
    # about 1/C, one per cluster pair that k-means merges, so the floor sits
    # several such steps below the worst input seen and still at least 3x
    # chance (1/C).
    acc_floor: float
    restarts: int = 1
    on_disk: bool = False       # True: setup writes a CSV manifest, each operation reads it

    def tiny(self) -> "Workload":
        """The same workload shrunk to N=600 for the benchmark's own tests."""
        return dataclasses.replace(
            self, n_samples=600, n_anchors=min(self.n_anchors, 100), acc_floor=0.0
        )

    # mvtc, and with it numpy, is imported only here and in config(): the
    # benchmark sets the BLAS thread variables before numpy's first import.
    def generate(self, seed: int):
        from mvtc.data import generate_synthetic

        return generate_synthetic(
            n_samples=self.n_samples,
            n_clusters=self.n_clusters,
            n_views=N_VIEWS,
            dims=list(self.dims),
            noise=NOISE,
            seed=seed,
            name=self.name,
        )

    def config(self, seed: int):
        from mvtc.pipeline import PipelineConfig

        return PipelineConfig(
            n_anchors=self.n_anchors,
            max_iters=MAX_ITERS,
            restarts=self.restarts,
            seed=seed,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("anchor-dense", 20_000, 10, (64, 96, 80), 1000, acc_floor=0.4),
        Workload("long-thin", 120_000, 10, (16, 16, 16), 100, acc_floor=0.3),
        Workload(
            "csv-many-clusters", 10_000, 40, (32, 48, 40), 300, acc_floor=0.45,
            restarts=4, on_disk=True,
        ),
    )
}
