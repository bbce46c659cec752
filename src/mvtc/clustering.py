"""K-means on embedding columns, returning one hard label per column.

Points are the N columns of a K x N matrix.  Initialization is
distance-weighted seeding: with ``rng = numpy.random.default_rng(seed)``
the first center is a uniform column (``rng.integers(n)``), each further
center is drawn by ``rng.choice(n, p=d2/d2.sum())`` where ``d2`` holds the
current squared distances to the nearest chosen center (lowest
not-yet-chosen column if every ``d2`` is zero); the points' squared norms
are taken once per fit.  The assignment forms one N x C table,
``-2 x_n^T c_j + |c_j|^2``: the point's own ``|x_n|^2`` is the same in every
column of its row, so it is left out, and the argmin along each row picks
the nearest center, ties going to the lowest cluster index.  Centers are
the members' means, summed in one sparse one-hot product with the points
copied transposed (once per fit); an emptied cluster is reseeded with the
point currently farthest from its own center.
Everything is deterministic under the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_array

from .anchors import _distances_from_product
from .errors import check_int

__all__ = ["ClusterModel", "kmeans_fit", "assign_labels"]

MAX_ITERS = 100  # Lloyd iterations per fit at most


@dataclass
class ClusterModel:
    """A k-means fit; its final inertia and Lloyd iteration count are read off the trace."""

    centers: np.ndarray             # (K, C), column c is the center of cluster c
    labels: np.ndarray              # (N,) ints in 0..C-1, every cluster populated
    inertia_trace: list[float]      # ||points - centers[:, labels]||_F^2 after seeding and each iteration

    @property
    def inertia(self) -> float:
        return self.inertia_trace[-1]

    @property
    def n_iter(self) -> int:
        return len(self.inertia_trace) - 1


def assign_labels(
    points: np.ndarray, centers: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Nearest center per column (squared Euclidean); ties pick the lowest index.

    ``out``, when given, is a C-contiguous N x C float array that receives
    the assignment table instead of a new one.
    """
    # scaling the centers by -2 is exact, so this is -2 (x^T c) to the bit
    table = np.matmul(points.T, -2.0 * centers, out=out)
    table += np.einsum("dc,dc->c", centers, centers)
    return np.argmin(table, axis=1)


def kmeans_fit(points: np.ndarray, n_clusters: int, seed: int = 0) -> ClusterModel:
    """Lloyd iterations until the assignment stabilizes or ``MAX_ITERS``.

    The recorded inertia trace is non-increasing: center recomputation,
    reassignment, and empty-cluster reseeding each cannot raise it.
    """
    x = np.asarray(points, dtype=float)
    n = x.shape[1]
    check_int("n_clusters", n_clusters, 1, most=n)
    rng = np.random.default_rng(seed)
    centers = _weighted_seed(x, n_clusters, rng)
    rows = np.ascontiguousarray(x.T)  # one point per row, for the means
    # the N x C assignment table and the inertia's K x N residuals take turns
    scratch = np.empty(n * max(x.shape[0], n_clusters))
    table = scratch[: n * n_clusters].reshape(n, n_clusters)
    buf = scratch[: x.size].reshape(x.shape)
    labels = assign_labels(x, centers, out=table)
    centers, labels = _reseed_empty(x, centers, labels, n_clusters)
    trace = [_inertia(x, centers, labels, buf)]
    for _ in range(MAX_ITERS):
        centers = _cluster_means(rows, labels, n_clusters)
        new_labels = assign_labels(x, centers, out=table)
        centers, new_labels = _reseed_empty(x, centers, new_labels, n_clusters)
        trace.append(_inertia(x, centers, new_labels, buf))
        stable = np.array_equal(new_labels, labels)
        labels = new_labels
        if stable:
            break
    return ClusterModel(centers=centers, labels=labels, inertia_trace=trace)


def _weighted_seed(x: np.ndarray, c: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[1]
    norms = np.einsum("dn,dn->n", x, x)
    chosen = [int(rng.integers(n))]
    d2 = _distances_to(x, norms, chosen[0])
    for _ in range(1, c):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = min(i for i in range(n) if i not in chosen)
        chosen.append(idx)
        np.minimum(d2, _distances_to(x, norms, idx), out=d2)
    return np.take(x, chosen, axis=1)


def _distances_to(x: np.ndarray, norms: np.ndarray, i: int) -> np.ndarray:
    """Squared distances from column ``i`` of ``x`` to every column; ``norms`` holds ``|x_n|^2``."""
    return _distances_from_product(x[:, i] @ x, norms[i] + norms)


def _cluster_means(rows: np.ndarray, labels: np.ndarray, c: int) -> np.ndarray:
    """Each cluster's mean as a K x C matrix; ``rows`` is the N x K points, C-contiguous.

    One product of the points with a sparse C x N one-hot sums each
    cluster's members in point order, K values at a time.  A weighted
    ``np.bincount`` per feature row gives the same bits but is slower here:
    in norm order a cluster's members sit together, so each add into a bin
    waits on the one before.
    _reseed_empty guarantees every cluster is populated here.
    """
    n = labels.size
    onehot = csc_array((np.ones(n), labels, np.arange(n + 1)), shape=(c, n))
    sums = (onehot @ rows).T
    return np.ascontiguousarray(sums / np.bincount(labels, minlength=c))


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


def _inertia(x: np.ndarray, centers: np.ndarray, labels: np.ndarray, buf: np.ndarray) -> float:
    """||x - centers[:, labels]||^2, computed in ``buf`` (same shape as ``x``)."""
    # mode="clip" writes straight into buf ("raise" would buffer); labels are in range
    np.take(centers, labels, axis=1, out=buf, mode="clip")
    np.subtract(x, buf, out=buf)
    np.square(buf, out=buf)
    return float(np.sum(buf))

