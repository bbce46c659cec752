"""Anchor selection and nonlinear RBF anchor-graph construction.

Views are feature-major matrices (D_v x N).  A single set of M sample
indices is drawn once and reused in every view, so the per-view graphs
describe the same landmark samples and the downstream embeddings stay
comparable across views.  The draw is uniform without replacement over the
columns as given: ``numpy.random.default_rng(seed).choice(N, M,
replace=False)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_views
from .errors import DegenerateView, DimensionMismatch, TooManyAnchors, ValidationError, check_int, check_real

# Kernel-width estimation averages at most this many (sample, anchor) pairs,
# gathered this many at a time.
PAIR_CAP = 100_000
WIDTH_CHUNK = 4096

# Entries per tile of the elementwise passes over the graph's rows, or one
# row when a row is longer.
GRAPH_TILE = 2**15


@dataclass
class AnchorSet:
    """Shared anchor sample indices plus per-view anchor columns and widths."""

    indices: np.ndarray                  # (M,) sample indices, shared across views
    anchors_per_view: list[np.ndarray]   # one (D_v, M) matrix per view
    sigma_per_view: list[float]          # RBF kernel width per view, positive and finite


def sqdist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances between columns of a (D,M) and b (D,N) -> (M,N), clipped at 0.

    Computed as ``|a_m|^2 + |b_n|^2 - 2 a^T b``.
    """
    sums = np.add.outer(np.einsum("dm,dm->m", a, a), np.einsum("dn,dn->n", b, b))
    return _distances_from_product(a.T @ b, sums)


def _distances_from_product(d2: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Turn ``a^T b`` in ``d2`` into clipped squared distances, in place.

    ``sums`` holds the matching squared-norm sums ``|a_m|^2 + |b_n|^2``.
    """
    d2 *= -2.0
    d2 += sums  # bit-equal to sums - 2.0 * (a.T @ b)
    return np.maximum(d2, 0.0, out=d2)


def estimate_kernel_width(view: np.ndarray, anchors: np.ndarray, seed: int = 0) -> float:
    """Mean squared sample-anchor distance, over at most ``PAIR_CAP`` pairs.

    Below the cap every pair enters the mean; above it, pairs are drawn
    uniformly with a generator seeded by ``seed``.  Raises
    :class:`DegenerateView` when the mean is zero or overflows: such a
    width is unusable (callers may override the width manually).
    """
    view = np.asarray(view, dtype=float)
    anchors = np.asarray(anchors, dtype=float)
    n, m = view.shape[1], anchors.shape[1]
    if m < 1:
        raise ValidationError("need at least one anchor")
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is checked below
        if n * m <= PAIR_CAP:
            sigma = float(sqdist(anchors, view).mean())
        else:
            rng = np.random.default_rng(seed)
            si = rng.integers(n, size=PAIR_CAP)
            ai = rng.integers(m, size=PAIR_CAP)
            # gather in sample order (a near-sequential read of the view),
            # WIDTH_CHUNK pairs at a time, and put the distances back in draw
            # order for the mean
            by_sample = np.argsort(si)
            si, ai = si[by_sample], ai[by_sample]
            d2 = np.empty(PAIR_CAP)
            for lo in range(0, PAIR_CAP, WIDTH_CHUNK):
                chunk = slice(lo, lo + WIDTH_CHUNK)
                diff = view[:, si[chunk]]
                diff -= anchors[:, ai[chunk]]
                d2[by_sample[chunk]] = np.einsum("dp,dp->p", diff, diff)
            sigma = float(d2.mean())
    if not 0.0 < sigma < np.inf:
        raise DegenerateView(f"sampled squared distances average {sigma}, not a usable width")
    return sigma


def build_anchor_graph(view: np.ndarray, anchors: np.ndarray, sigma: float) -> np.ndarray:
    """M x N graph with entries exp(-||x_n - z_m||^2 / sigma), in (0, 1].

    Entries equal 1 exactly when the sample coincides with the anchor.  The
    Gram expansion leaves rounding dust there, so every distance below
    1e-11 of its squared-norm sum is redone as an explicit sum of squared
    differences, which is exact for identical columns.  Features whose
    squared norms overflow select no entry and leave a non-finite graph,
    which the solver rejects.

    The product ``-2 anchors^T view`` is written straight into the output, and
    the elementwise passes then run in place over tiles of whole rows:
    ``GRAPH_TILE`` entries, or one row when a row is longer.  Beyond the
    output, only two tile buffers and the squared norms are held.
    """
    check_real("kernel width", sigma, positive=True)
    view = np.asarray(view, dtype=float)
    anchors = np.asarray(anchors, dtype=float)
    if view.shape[0] != anchors.shape[0]:
        raise DimensionMismatch(
            f"view has {view.shape[0]} features but anchors have {anchors.shape[0]}"
        )
    m, n = anchors.shape[1], view.shape[1]
    rows = max(GRAPH_TILE // max(n, 1), 1)
    sums_buf, dust_buf = np.empty((rows, n)), np.empty((rows, n), dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is rejected downstream
        # doubling is exact short of over- or underflow, so this is -2 a^T x to the bit
        out = (-2.0 * anchors).T @ view
        aa = np.einsum("dm,dm->m", anchors, anchors)
        bb = np.einsum("dn,dn->n", view, view)
        for top in range(0, m, rows):
            d2 = out[top:top + rows]
            sums = np.add.outer(aa[top:top + rows], bb, out=sums_buf[:len(d2)])
            d2 += sums  # bit-equal to sums - 2.0 * (a.T @ b)
            sums *= 1e-11  # the dust threshold
            # strict: an inf or NaN threshold selects nothing, and a negative
            # distance always falls below it, so it needs no clip at 0
            dust = np.less(d2, sums, out=dust_buf[:len(d2)])
            hits = np.flatnonzero(dust)
            if hits.size:
                mi, ni = np.divmod(hits, n)
                diff = view[:, ni] - anchors[:, top + mi]
                d2[mi, ni] = np.einsum("dp,dp->p", diff, diff)
            np.divide(d2, -sigma, out=d2)  # bit-equal to -d2 / sigma
            np.exp(d2, out=d2)
    return out


def select_anchors(
    views: list[np.ndarray],
    m: int,
    seed: int,
    kernel_width: float | list[float] | None = None,
) -> AnchorSet:
    """Pick M shared anchors and estimate (or accept) per-view kernel widths."""
    n = check_views(views)
    check_int("n_anchors", m, 1, TooManyAnchors, most=n)
    indices = np.random.default_rng(seed).choice(n, size=m, replace=False)
    anchor_cols = [np.take(v, indices, axis=1) for v in views]
    if kernel_width is None:
        sigmas = [estimate_kernel_width(v, a, seed=seed) for v, a in zip(views, anchor_cols)]
    else:
        sigmas = [kernel_width] * len(views) if np.ndim(kernel_width) == 0 else list(kernel_width)
        if len(sigmas) != len(views):
            raise ValidationError(f"got {len(sigmas)} kernel widths for {len(views)} views")
        for s in sigmas:
            check_real("kernel_width", s, positive=True)
        sigmas = [float(s) for s in sigmas]
    return AnchorSet(indices=indices, anchors_per_view=anchor_cols, sigma_per_view=sigmas)


def build_all_graphs(views: list[np.ndarray], anchor_set: AnchorSet) -> list[np.ndarray]:
    """One M x N anchor graph per view."""
    return [
        build_anchor_graph(v, a, s)
        for v, a, s in zip(views, anchor_set.anchors_per_view, anchor_set.sigma_per_view)
    ]

