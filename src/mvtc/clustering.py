"""K-means on embedding columns with a hard binary indicator matrix.

Points are the N columns of a K x N matrix.  Initialization is
distance-weighted seeding: with ``rng = numpy.random.default_rng(seed)``
the first center is a uniform column (``rng.integers(n)``), each further
center is drawn by ``rng.choice(n, p=d2/d2.sum())`` where ``d2`` holds the
current squared distances to the nearest chosen center (lowest
not-yet-chosen column if every ``d2`` is zero).  Assignment ties break
toward the lowest cluster index; an emptied cluster is reseeded with the
point currently farthest from its own center.  Everything is deterministic
under the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .anchors import sqdist
from .errors import TooManyClusters

__all__ = ["ClusterModel", "kmeans_fit", "assign_labels"]


@dataclass
class ClusterModel:
    centers: np.ndarray             # (K, C), column c is the center of cluster c
    indicator: np.ndarray           # (C, N) binary, exactly one 1 per column
    labels: np.ndarray              # (N,) ints, argmax over the indicator columns
    inertia: float                  # ||points - centers @ indicator||_F^2
    inertia_trace: list[float] = field(default_factory=list)
    n_iter: int = 0


def assign_labels(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Nearest center per column (squared Euclidean); ties pick the lowest index."""
    d2 = sqdist(centers, points)
    return np.argmin(d2, axis=0)


def kmeans_fit(
    points: np.ndarray, n_clusters: int, seed: int = 0, max_iters: int = 100
) -> ClusterModel:
    """Lloyd iterations until the assignment stabilizes or ``max_iters``.

    The recorded inertia trace is non-increasing: center recomputation,
    reassignment, and empty-cluster reseeding each cannot raise it.
    """
    x = np.asarray(points, dtype=float)
    n = x.shape[1]
    if not 1 <= n_clusters <= n:
        raise TooManyClusters(f"requested {n_clusters} clusters from {n} points")
    rng = np.random.default_rng(seed)
    centers = _weighted_seed(x, n_clusters, rng)
    labels = assign_labels(x, centers)
    centers, labels = _reseed_empty(x, centers, labels, n_clusters)
    trace = [_inertia(x, centers, labels)]
    it = 0
    for _ in range(max_iters):
        centers = _cluster_means(x, labels, n_clusters)
        new_labels = assign_labels(x, centers)
        centers, new_labels = _reseed_empty(x, centers, new_labels, n_clusters)
        trace.append(_inertia(x, centers, new_labels))
        it += 1
        stable = np.array_equal(new_labels, labels)
        labels = new_labels
        if stable:
            break
    indicator = np.zeros((n_clusters, n), dtype=np.int64)
    indicator[labels, np.arange(n)] = 1
    return ClusterModel(
        centers=centers,
        indicator=indicator,
        labels=labels,
        inertia=trace[-1],
        inertia_trace=trace,
        n_iter=it,
    )


def _weighted_seed(x: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[1]
    chosen = [int(rng.integers(n))]
    d2 = sqdist(x[:, chosen], x)[0]
    for _ in range(1, c):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = min(i for i in range(n) if i not in chosen)
        chosen.append(idx)
        d2 = np.minimum(d2, sqdist(x[:, [idx]], x)[0])
    return x[:, chosen].copy()


def _cluster_means(x: np.ndarray, labels: np.ndarray, c: int) -> np.ndarray:
    centers = np.zeros((x.shape[0], c))
    for ci in range(c):
        members = labels == ci
        # _reseed_empty guarantees every cluster is populated here
        centers[:, ci] = x[:, members].mean(axis=1)
    return centers


def _reseed_empty(
    x: np.ndarray, centers: np.ndarray, labels: np.ndarray, c: int
) -> tuple[np.ndarray, np.ndarray]:
    """Give each empty cluster the point farthest from its current center."""
    counts = np.bincount(labels, minlength=c)
    if counts.min() > 0:
        return centers, labels
    centers = centers.copy()
    labels = labels.copy()
    for ci in range(c):
        if counts[ci] > 0:
            continue
        diff = x - centers[:, labels]
        dist = np.einsum("dn,dn->n", diff, diff)
        dist[counts[labels] <= 1] = -1.0  # never orphan a singleton cluster
        far = int(np.argmax(dist))
        counts[labels[far]] -= 1
        labels[far] = ci
        counts[ci] = 1
        centers[:, ci] = x[:, far]
    return centers, labels


def _inertia(x: np.ndarray, centers: np.ndarray, labels: np.ndarray) -> float:
    diff = x - centers[:, labels]
    return float(np.sum(diff * diff))

