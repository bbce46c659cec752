"""Clustering agreement scores, each computed from a contingency table.

All seven scores are invariant under relabeling of either argument.  Pair
counts and the optimal-assignment accuracy are evaluated in exact integer
arithmetic, so small worked examples come out bit-exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import EmptyInput, LengthMismatch

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
        raise LengthMismatch(f"{pred.size} predictions vs {truth.size} truths")
    if pred.size == 0:
        raise EmptyInput("no samples")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    counts = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(counts, (pi, ti), 1)
    return ContingencyTable(
        counts=counts,
        n=int(pred.size),
        row_sums=counts.sum(axis=1),
        col_sums=counts.sum(axis=0),
    )


def accuracy(pred, truth) -> float:
    """Best-case label-matched accuracy over injective cluster-to-class maps.

    The contingency table is padded to square with zero rows/columns and
    the maximum-weight assignment is taken (Hungarian method on the
    negated table).
    """
    t = contingency_table(pred, truth)
    side = max(t.counts.shape)
    padded = np.zeros((side, side), dtype=np.int64)
    padded[: t.counts.shape[0], : t.counts.shape[1]] = t.counts
    rows, cols = linear_sum_assignment(-padded)
    return int(padded[rows, cols].sum()) / t.n


def nmi(pred, truth) -> float:
    """Mutual information normalized by the geometric mean of the entropies.

    Natural logarithms.  Identical partitions (including the all-one-cluster
    case) score 1.0; if exactly one side has zero entropy the partitions
    differ and the score is 0.0.
    """
    t = contingency_table(pred, truth)
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


def purity(pred, truth) -> float:
    """Fraction of samples in the majority true class of their cluster."""
    t = contingency_table(pred, truth)
    return int(t.counts.max(axis=1).sum()) / t.n


def pairwise_prf(pred, truth) -> tuple[float, float, float]:
    """Pair-counting precision, recall, and F-score; every 0/0 maps to 0."""
    _, tp, pairs_pred, pairs_true = _pair_counts(pred, truth)
    precision = tp / pairs_pred if pairs_pred else 0.0
    recall = tp / pairs_true if pairs_true else 0.0
    f_score = (
        2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return precision, recall, f_score


def ari(pred, truth) -> float:
    """Adjusted Rand index from contingency pair counts, in [-1, 1].

    Evaluated as a ratio of integers (both sides scaled by twice the total
    pair count), so small cases are exact.  A zero denominator only occurs
    when both partitions are all-singletons or both are one cluster, i.e.
    identical, which scores 1.0.
    """
    total, sum_ij, pa, pb = _pair_counts(pred, truth)
    numerator = 2 * total * sum_ij - 2 * pa * pb
    denominator = total * (pa + pb) - 2 * pa * pb
    if denominator == 0:
        return 1.0
    return numerator / denominator


def clustering_scores(pred, truth) -> dict[str, float]:
    """All seven scores keyed the way the run report expects them."""
    precision, recall, f_score = pairwise_prf(pred, truth)
    return {
        "acc": accuracy(pred, truth),
        "nmi": nmi(pred, truth),
        "purity": purity(pred, truth),
        "fscore": f_score,
        "precision": precision,
        "recall": recall,
        "ari": ari(pred, truth),
    }


def _pair_counts(pred, truth) -> tuple[int, int, int, int]:
    """Total pairs, and the pairs together in both partitions, in ``pred`` and in ``truth``."""
    t = contingency_table(pred, truth)
    if t.n < 2:
        raise EmptyInput("pair counting needs at least 2 samples")
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
