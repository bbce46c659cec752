"""Independent brute-force oracles used across the test suite.

Everything here is written the slow, obvious way on purpose: direct
summation DFTs, explicit block-circulant products, per-entry distance
sums, exhaustive enumerations.  None of it shares code with the package,
except that the frozen solver loop at the end calls the package's ridge step.
"""

import itertools
from types import SimpleNamespace

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


# ---------------------------------------------------------------------------
# The alternating solver loop as it stood before its in-place rewrite: every
# K x N step allocates its result, the objective forms U_v phi_v again and
# stacks the embeddings into a fresh copy.  The package's ``solver.run`` must
# reproduce it bit for bit.  Only the ridge step, which the rewrite left
# alone, is taken from the package.


def _zscore_reference(mat):
    mat = np.asarray(mat, dtype=float)
    k = mat.shape[0]
    centered = mat - mat.mean(axis=0)
    std = centered.std(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(centered, std, out=centered)
    dead = std == 0
    if dead.any():
        t = np.ones(k)
        t[1::2] = -1.0
        t -= t.mean()
        centered[:, dead] = (t / t.std(ddof=1))[:, None]
    return centered


def _embedding_reference(projection, graph, consensus, lowfreq_slice, beta):
    raw = (beta * consensus + lowfreq_slice + projection @ graph) / (beta + 2.0)
    return _zscore_reference(raw)


def _lowfreq_reference(embeddings, keep):
    b = np.stack(embeddings, axis=1)
    bh = np.fft.rfft(b, axis=2)
    bh[:, :, keep:] = 0.0
    return np.fft.irfft(bh, n=b.shape[2], axis=2)


def _consensus_reference(embeddings):
    return _zscore_reference(sum(embeddings) / len(embeddings))


def _objective_reference(projections, embeddings, consensus, lowfreq, graphs, lam, beta):
    total = 0.0
    for u, b, phi in zip(projections, embeddings, graphs):
        total += 0.5 * lam * float(np.sum(u * u))
        fit = b - u @ phi
        total += 0.5 * float(np.sum(fit * fit))
        gap = consensus - b
        total += 0.5 * beta * float(np.sum(gap * gap))
    coupling = np.stack(embeddings, axis=1)
    coupling -= lowfreq
    coupling *= coupling
    total += 0.5 * float(np.sum(coupling))
    return total


def solver_run_reference(graphs, cfg):
    """``solver.run`` (validation aside) before its in-place rewrite."""
    from mvtc.solver import update_projection

    graphs = [np.ascontiguousarray(g, dtype=float) for g in graphs]
    n = graphs[0].shape[1]
    k = cfg.embed_dim
    n_views = len(graphs)
    rng = np.random.default_rng(cfg.seed)
    b0 = _zscore_reference(rng.standard_normal((k, n)))
    embeddings = [b0.copy() for _ in range(n_views)]
    consensus = _consensus_reference(embeddings)
    lowfreq = np.zeros((k, n_views, n))
    projections = [np.zeros((k, g.shape[0])) for g in graphs]
    grams = [g @ g.T for g in graphs]

    trace = []
    iterations = 0
    for t in range(cfg.max_iters):
        previous_consensus = consensus
        for v, g in enumerate(graphs):
            projections[v] = update_projection(embeddings[v], g, cfg.lam, grams[v])
            embeddings[v] = _embedding_reference(
                projections[v], g, consensus, lowfreq[:, v, :], cfg.beta
            )
        if cfg.smooth_embeddings:
            lowfreq = _lowfreq_reference(embeddings, cfg.low_freq)
        else:
            lowfreq = np.stack(embeddings, axis=1)
        consensus = _consensus_reference(embeddings)
        iterations = t + 1
        trace.append(
            _objective_reference(
                projections, embeddings, consensus, lowfreq, graphs, cfg.lam, cfg.beta
            )
        )
        if cfg.early_stop_tol > 0:
            shift = np.linalg.norm(consensus - previous_consensus)
            if shift / np.linalg.norm(previous_consensus) < cfg.early_stop_tol:
                break
    return SimpleNamespace(
        projections=projections,
        embeddings=embeddings,
        consensus=consensus,
        lowfreq_tensor=lowfreq,
        iterations=iterations,
        objective_trace=trace,
    )
