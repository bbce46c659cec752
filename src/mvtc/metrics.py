"""Clustering agreement scores, each computed from a contingency table.

``clustering_scores`` builds the table once for all seven; each public score
builds its own.  All seven are invariant under relabeling of either argument.
Pair counts and the optimal-assignment accuracy are evaluated in exact
integer arithmetic, so small worked examples come out bit-exact.  The
accuracy's cluster-to-class match is a maximum-weight full bipartite
matching from ``scipy.sparse.csgraph`` on the table shifted by +1, which
spares the process an import of ``scipy.optimize``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import min_weight_full_bipartite_matching

from .errors import DimensionMismatch, ValidationError

__all__ = [
    "ContingencyTable",
    "contingency_table",
    "accuracy",
    "nmi",
    "purity",
    "pairwise_prf",
    "ari",
    "clustering_scores",
]


@dataclass
class ContingencyTable:
    counts: np.ndarray    # (C_pred, C_true) nonnegative ints summing to n
    n: int
    row_sums: np.ndarray  # per predicted cluster
    col_sums: np.ndarray  # per true class


def contingency_table(pred, truth) -> ContingencyTable:
    pred = np.asarray(pred).ravel()
    truth = np.asarray(truth).ravel()
    if pred.size != truth.size:
        raise DimensionMismatch(f"{pred.size} predictions vs {truth.size} truths")
    if pred.size == 0:
        raise ValidationError("no samples")
    pred_ids, pi = np.unique(pred, return_inverse=True)
    true_ids, ti = np.unique(truth, return_inverse=True)
    shape = (pred_ids.size, true_ids.size)
    counts = np.bincount(pi * shape[1] + ti, minlength=shape[0] * shape[1]).reshape(shape)
    return ContingencyTable(
        counts=counts,
        n=int(pred.size),
        row_sums=counts.sum(axis=1),
        col_sums=counts.sum(axis=0),
    )


def accuracy(pred, truth) -> float:
    """Best-case label-matched accuracy over injective cluster-to-class maps.

    The match is a maximum-weight full bipartite matching
    (``scipy.sparse.csgraph.min_weight_full_bipartite_matching``) of the
    contingency table with 1 added to every count; rectangular when the
    cluster and class counts differ.  A full matching always has
    min(C_pred, C_true) edges, so the shift adds the same amount to every
    candidate and keeps the optimum; it also keeps zero counts as edges,
    which the sparse input would otherwise drop, so a full matching always
    exists.  The result is exact: the matched original counts are summed
    as integers, and every weight is an integer below 2^53, so each
    optimal matching gives the same sum.
    """
    return _accuracy(contingency_table(pred, truth))


def nmi(pred, truth) -> float:
    """Mutual information normalized by the geometric mean of the entropies.

    Natural logarithms.  Identical partitions (including the all-one-cluster
    case) score 1.0; if exactly one side has zero entropy the partitions
    differ and the score is 0.0.
    """
    return _nmi(contingency_table(pred, truth))


def purity(pred, truth) -> float:
    """Fraction of samples in the majority true class of their cluster."""
    return _purity(contingency_table(pred, truth))


def pairwise_prf(pred, truth) -> tuple[float, float, float]:
    """Pair-counting precision, recall, and F-score; every 0/0 maps to 0."""
    return _pairwise_prf(contingency_table(pred, truth))


def ari(pred, truth) -> float:
    """Adjusted Rand index from contingency pair counts, in [-1, 1].

    Evaluated as a ratio of integers (both sides scaled by twice the total
    pair count), so small cases are exact.  A zero denominator only occurs
    when both partitions are all-singletons or both are one cluster, i.e.
    identical, which scores 1.0.
    """
    return _ari(contingency_table(pred, truth))


def clustering_scores(pred, truth) -> dict[str, float]:
    """All seven scores, from one contingency table, keyed the way the run report expects them."""
    t = contingency_table(pred, truth)
    precision, recall, f_score = _pairwise_prf(t)
    return {
        "acc": _accuracy(t),
        "nmi": _nmi(t),
        "purity": _purity(t),
        "fscore": f_score,
        "precision": precision,
        "recall": recall,
        "ari": _ari(t),
    }


def _accuracy(t: ContingencyTable) -> float:
    rows, cols = min_weight_full_bipartite_matching(csr_array(t.counts + 1.0), maximize=True)
    return int(t.counts[rows, cols].sum()) / t.n


def _nmi(t: ContingencyTable) -> float:
    if _is_identical_partition(t):
        return 1.0
    h_pred = _entropy(t.row_sums, t.n)
    h_true = _entropy(t.col_sums, t.n)
    if h_pred == 0.0 or h_true == 0.0:
        return 0.0
    info = 0.0
    for i, j in zip(*np.nonzero(t.counts)):
        p = t.counts[i, j] / t.n
        info += p * np.log(p * t.n * t.n / (t.row_sums[i] * t.col_sums[j]))
    return float(np.clip(info / np.sqrt(h_pred * h_true), 0.0, 1.0))


def _purity(t: ContingencyTable) -> float:
    return int(t.counts.max(axis=1).sum()) / t.n


def _pairwise_prf(t: ContingencyTable) -> tuple[float, float, float]:
    _, tp, pairs_pred, pairs_true = _pair_counts(t)
    precision = tp / pairs_pred if pairs_pred else 0.0
    recall = tp / pairs_true if pairs_true else 0.0
    f_score = (
        2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return precision, recall, f_score


def _ari(t: ContingencyTable) -> float:
    total, sum_ij, pa, pb = _pair_counts(t)
    numerator = 2 * total * sum_ij - 2 * pa * pb
    denominator = total * (pa + pb) - 2 * pa * pb
    if denominator == 0:
        return 1.0
    return numerator / denominator


def _pair_counts(t: ContingencyTable) -> tuple[int, int, int, int]:
    """Total pairs, and the pairs together in both partitions, in ``pred`` and in ``truth``."""
    if t.n < 2:
        raise ValidationError("pair counting needs at least 2 samples")
    together = (int((c * (c - 1) // 2).sum()) for c in (t.counts, t.row_sums, t.col_sums))
    return (t.n * (t.n - 1) // 2, *together)


def _entropy(sums: np.ndarray, n: int) -> float:
    p = sums[sums > 0] / n
    return float(-(p * np.log(p)).sum())


def _is_identical_partition(t: ContingencyTable) -> bool:
    """True when the two label vectors induce the same partition."""
    if t.counts.shape[0] != t.counts.shape[1]:
        return False
    return bool(
        ((t.counts > 0).sum(axis=0) == 1).all()
        and ((t.counts > 0).sum(axis=1) == 1).all()
    )
