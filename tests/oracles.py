"""Independent brute-force oracles used across the test suite.

Everything here is written the slow, obvious way on purpose: direct
summation DFTs, explicit block-circulant products, per-entry distance
sums, exhaustive enumerations.  None of it shares code with the package.
"""

import itertools

import numpy as np


def dft_mode3(t):
    """O(N^2) summation DFT of every mode-3 tube."""
    t = np.asarray(t, dtype=complex)
    i1, i2, i3 = t.shape
    out = np.zeros_like(t)
    for a in range(i1):
        for b in range(i2):
            for k in range(i3):
                acc = 0.0 + 0.0j
                for n in range(i3):
                    acc += t[a, b, n] * np.exp(-2j * np.pi * k * n / i3)
                out[a, b, k] = acc
    return out


def idft_mode3(s):
    """O(N^2) summation inverse DFT (1/N) of every mode-3 tube."""
    s = np.asarray(s, dtype=complex)
    i1, i2, i3 = s.shape
    out = np.zeros_like(s)
    for a in range(i1):
        for b in range(i2):
            for n in range(i3):
                acc = 0.0 + 0.0j
                for k in range(i3):
                    acc += s[a, b, k] * np.exp(2j * np.pi * k * n / i3)
                out[a, b, n] = acc / i3
    return out


def identity_tensor(n, depth):
    """n x n x depth tensor: the identity in slice 0, zeros elsewhere."""
    out = np.zeros((n, n, depth))
    out[:, :, 0] = np.eye(n)
    return out


def anchor_graph_unblocked(view, anchors, sigma):
    """RBF anchor graph from one full M x N Gram expansion.

    Every entry below 1e-11 of its squared-norm sum is recomputed as an
    explicit sum of squared differences, so coincident columns give exactly
    1.  Overflowing norms leave non-finite entries without a warning.
    """
    aa = np.einsum("dm,dm->m", anchors, anchors)
    bb = np.einsum("dn,dn->n", view, view)
    with np.errstate(over="ignore", invalid="ignore"):
        sums = np.add.outer(aa, bb)
        d2 = np.maximum(sums - 2.0 * (anchors.T @ view), 0.0)
        mi, ni = np.nonzero(d2 < sums * 1e-11)
        diff = view[:, ni] - anchors[:, mi]
        d2[mi, ni] = np.einsum("dp,dp->p", diff, diff)
        return np.exp(d2 / -sigma)


def block_circulant_product(x, y):
    """Slice-wise circular convolution via an explicit block-circulant matrix."""
    i1, i2, depth = x.shape
    _, j, _ = y.shape
    bcirc = np.zeros((i1 * depth, i2 * depth))
    for r in range(depth):
        for c in range(depth):
            bcirc[r * i1 : (r + 1) * i1, c * i2 : (c + 1) * i2] = x[:, :, (r - c) % depth]
    unfolded = np.concatenate([y[:, :, k] for k in range(depth)], axis=0)
    stacked = bcirc @ unfolded
    return np.stack([stacked[k * i1 : (k + 1) * i1, :] for k in range(depth)], axis=2)


def lowfreq_truncate_bruteforce(b, keep):
    """Zero the non-kept slices of the summation DFT and invert."""
    b = np.asarray(b, dtype=float)
    depth = b.shape[2]
    kept = {0} | set(range(1, keep)) | {depth - j for j in range(1, keep)}
    spectrum = dft_mode3(b)
    for k in range(depth):
        if k not in kept:
            spectrum[:, :, k] = 0.0
    return idft_mode3(spectrum).real


def pairwise_confusion(pred, truth):
    """TP/FP/FN/TN by explicitly enumerating every sample pair."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    tp = fp = fn = tn = 0
    n = pred.size
    for i in range(n):
        for j in range(i + 1, n):
            same_pred = pred[i] == pred[j]
            same_true = truth[i] == truth[j]
            if same_pred and same_true:
                tp += 1
            elif same_pred:
                fp += 1
            elif same_true:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def accuracy_by_permutation(pred, truth):
    """Max matched fraction over every injective cluster-to-class map."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    pred_ids = np.unique(pred)
    true_ids = np.unique(truth)
    side = max(pred_ids.size, true_ids.size)
    table = np.zeros((side, side), dtype=int)
    for p, t in zip(pred, truth):
        table[np.where(pred_ids == p)[0][0], np.where(true_ids == t)[0][0]] += 1
    best = 0
    for perm in itertools.permutations(range(side)):
        best = max(best, sum(table[i, perm[i]] for i in range(side)))
    return best / pred.size


def exhaustive_kmeans_optimum(points, n_clusters):
    """Global minimum inertia over every assignment of points to clusters."""
    points = np.asarray(points, dtype=float)
    n = points.shape[1]
    best = np.inf
    for assign in itertools.product(range(n_clusters), repeat=n):
        assign = np.asarray(assign)
        total = 0.0
        for c in range(n_clusters):
            members = points[:, assign == c]
            if members.shape[1] == 0:
                continue
            center = members.mean(axis=1, keepdims=True)
            total += float(np.sum((members - center) ** 2))
        best = min(best, total)
    return best
