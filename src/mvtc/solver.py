"""Alternating closed-form optimization of per-view embedding features.

Given one anchor graph per view, each iteration performs, in order:

1. a ridge update of every view's projection matrix,
2. a z-score-constrained refresh of every view's embedding,
3. a low-frequency truncation of the stacked (K, V, N) embedding tensor,
4. a consensus refresh (normalized mean of the embeddings).

Every step is the exact minimizer of its subproblem: the z-score
normalization is the orthogonal projection onto the constraint set (each
column has mean 0 and sample standard deviation 1, denominator K-1), so
the objective is non-increasing across iterations up to floating-point
noise.  The smoothing term carries no weight: under the subspace-indicator
reading of the smoothing penalty, the hard truncation is the exact
minimizer whatever the weight, so no weight schedule is kept.

Each iteration writes the V new embeddings straight into the slices of one
freshly allocated (K, V, N) tensor, which the truncation and the objective's
coupling term read as it is; a snapshot handed to a callback keeps its own
tensor.  ``U_v phi_v`` is formed once per view and iteration: the embedding
blend uses it, and the same buffer then yields the fit term
||B_v - U_v phi_v||^2 for the objective.  The K x N arithmetic runs in place
in the order of the plain expressions, so the results keep their bits.

All randomness flows from ``SolverConfig.seed``; repeated runs are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import EmbedDimTooSmall, ShapeMismatch, SingularSystem, ValidationError
from .tensor_ops import check_low_freq, lowfreq_truncate

# Acceptable relative residual of the ridge normal equations.
_RIDGE_RESIDUAL_TOL = 1e-8


@dataclass
class SolverConfig:
    """Hyperparameters of the alternating solver.

    ``early_stop_tol = 0`` (the default) disables the convergence guard and
    always runs the full ``max_iters`` iterations.
    """

    embed_dim: int
    lam: float = 0.1            # ridge weight on the projection matrices
    beta: float = 0.1           # consensus coupling weight
    low_freq: int = 16          # kept spectrum slices, 1..floor(N/2)+1
    max_iters: int = 7
    seed: int = 0
    early_stop_tol: float = 0.0
    smooth_embeddings: bool = True  # False: step 3 passes the stacked tensor through


@dataclass
class SolverState:
    """Solver variables after (or during) a run."""

    projections: list[np.ndarray]   # V matrices, K x M_v
    embeddings: list[np.ndarray]    # V matrices, K x N
    consensus: np.ndarray           # K x N
    lowfreq_tensor: np.ndarray      # K x V x N
    iterations: int = 0
    objective_trace: list[float] = field(default_factory=list)


def zscore_normalize_columns(mat: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Project every column onto mean 0 and sample standard deviation 1.

    Columns with zero variance cannot be projected; they are replaced by a
    fixed alternating-sign template (centered and scaled to the constraint
    set) so the function is total and deterministic.  The result goes to
    ``out`` when given (which may be ``mat`` itself), else to a new array.
    """
    mat = np.asarray(mat, dtype=float)
    k = mat.shape[0]
    if k < 2:
        raise EmbedDimTooSmall(f"need at least 2 rows to normalize, got {k}")
    # np.mean's and np.std(ddof=1)'s own steps, so the bits match
    # ``centered = mat - mat.mean(0)`` and ``centered.std(0, ddof=1)``
    centered = np.subtract(mat, np.add.reduce(mat, axis=0) / k, out=out)
    deviation = centered - np.add.reduce(centered, axis=0) / k
    np.square(deviation, out=deviation)
    std = np.add.reduce(deviation, axis=0)
    del deviation
    std /= k - 1
    np.sqrt(std, out=std)
    with np.errstate(divide="ignore", invalid="ignore"):  # zero-variance columns are patched below
        np.divide(centered, std, out=centered)
    dead = std == 0
    if dead.any():
        centered[:, dead] = _unit_variance_template(k)[:, None]
    return centered


def _unit_variance_template(k: int) -> np.ndarray:
    """Deterministic length-k vector with mean 0 and sample std 1."""
    t = np.ones(k)
    t[1::2] = -1.0
    t -= t.mean()  # centering only matters for odd k
    return t / t.std(ddof=1)


def stack_views(embeddings: list[np.ndarray]) -> np.ndarray:
    """Stack V matrices of shape (K, N) into a (K, V, N) tensor."""
    if not embeddings:
        raise ShapeMismatch("need at least one embedding")
    shape = embeddings[0].shape
    for i, e in enumerate(embeddings):
        if e.shape != shape:
            raise ShapeMismatch(f"embedding {i} has shape {e.shape}, expected {shape}")
    return np.stack(embeddings, axis=1)


def update_projection(
    embedding: np.ndarray,
    graph: np.ndarray,
    lam: float,
    gram: np.ndarray | None = None,
) -> np.ndarray:
    """Ridge solution U = (B phi^T)(phi phi^T + lam I)^-1.

    ``gram`` is the precomputed M x M matrix phi phi^T (computed here when
    omitted; pass it when calling repeatedly).  Solved via Cholesky; falls
    back to the pseudo-inverse when the system is singular (lam = 0) and
    raises :class:`SingularSystem` if even that leaves a relative residual
    above 1e-8 (or a NaN one), or if the system is not finite.
    """
    b = np.asarray(embedding, dtype=float)
    phi = np.asarray(graph, dtype=float)
    if gram is None:
        gram = phi @ phi.T
    m = gram.shape[0]
    system = gram + lam * np.eye(m)
    if not np.isfinite(system).all():
        raise SingularSystem("ridge system has a non-finite entry")
    rhs = b @ phi.T
    with np.errstate(over="ignore"):  # an overflowing norm surfaces as a NaN residual
        rhs_norm = np.linalg.norm(rhs)

    def residual(u: np.ndarray) -> float:
        if rhs_norm == 0.0:
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.linalg.norm(u @ system - rhs) / rhs_norm)

    try:
        u = cho_solve(cho_factor(system), rhs.T).T
    except np.linalg.LinAlgError:
        u = None
    if u is not None and residual(u) <= _RIDGE_RESIDUAL_TOL:
        return u
    u = rhs @ np.linalg.pinv(system)
    if not residual(u) <= _RIDGE_RESIDUAL_TOL:
        raise SingularSystem(
            f"normal-equation residual {residual(u):.3e} above {_RIDGE_RESIDUAL_TOL:.0e}"
        )
    return u


def update_embedding(
    projection: np.ndarray,
    graph: np.ndarray,
    consensus: np.ndarray,
    lowfreq_slice: np.ndarray,
    beta: float,
    *,
    out: np.ndarray | None = None,
    product: np.ndarray | None = None,
) -> np.ndarray:
    """Normalized affine blend (beta*Bc + Y_v + U phi) / (beta + 2).

    The result goes to ``out`` when given, else to a new array.  ``product``
    is a K x N buffer that receives ``U phi`` and still holds it on return,
    for the caller's fit term.
    """
    product = np.matmul(projection, graph, out=product)
    out = np.multiply(beta, consensus, out=out)
    out += lowfreq_slice
    out += product
    out /= beta + 2.0
    return zscore_normalize_columns(out, out=out)


def update_consensus(embeddings: list[np.ndarray]) -> np.ndarray:
    """Normalized mean of the per-view embeddings."""
    mean = np.array(embeddings[0], dtype=float)
    for e in embeddings[1:]:
        mean += e
    mean /= len(embeddings)
    return zscore_normalize_columns(mean, out=mean)


def _squared_distance(a: np.ndarray, b: np.ndarray, scratch: np.ndarray) -> float:
    """||a - b||^2 through ``scratch`` (which may be ``b``)."""
    np.subtract(a, b, out=scratch)
    np.square(scratch, out=scratch)
    return float(np.sum(scratch))


def objective_value(
    state: SolverState,
    graphs: list[np.ndarray],
    cfg: SolverConfig,
    *,
    fits: list[float] | None = None,
    stacked: np.ndarray | None = None,
) -> float:
    """Sum of ridge, fit, consensus, and smoothing-coupling terms.

    The smoothing penalty itself scores 0 whenever the low-frequency
    tensor is feasible (it always is after :func:`lowfreq_truncate`), so
    only the quadratic coupling ||B - Y||^2 / 2 appears here.  ``fits``
    holds each view's ||B_v - U_v phi_v||^2 and ``stacked`` the (K, V, N)
    tensor whose slices are ``state.embeddings``, when the caller has them;
    either is formed here when omitted.
    """
    scratch = np.empty(state.consensus.shape)  # each view's fit and gap in turn
    total = 0.0
    for v, (u, b, phi) in enumerate(zip(state.projections, state.embeddings, graphs)):
        total += 0.5 * cfg.lam * float(np.sum(u * u))
        if fits is None:
            fit = _squared_distance(b, np.matmul(u, phi, out=scratch), scratch)
        else:
            fit = fits[v]
        total += 0.5 * fit
        total += 0.5 * cfg.beta * _squared_distance(state.consensus, b, scratch)
    del scratch
    if stacked is None:
        stacked = stack_views(state.embeddings)
    coupling = np.subtract(stacked, state.lowfreq_tensor)
    np.square(coupling, out=coupling)  # the same sum, one K x V x N array fewer
    total += 0.5 * float(np.sum(coupling))
    return total


def run(
    graphs: list[np.ndarray],
    cfg: SolverConfig,
    callback: Callable[[SolverState], None] | None = None,
) -> SolverState:
    """Run the alternating loop for ``cfg.max_iters`` iterations.

    Embeddings start from a single seeded standard-normal K x N matrix
    (normalized, shared by all views so identical inputs stay symmetric
    across views), the consensus from their normalized mean, and the
    low-frequency tensor from zero.  ``callback`` is invoked with a state
    snapshot after every iteration; treat it as read-only.
    """
    graphs = [np.ascontiguousarray(g, dtype=float) for g in graphs]
    if not graphs:
        raise ShapeMismatch("need at least one anchor graph")
    n = graphs[0].shape[1]
    for i, g in enumerate(graphs):
        if g.ndim != 2 or g.shape[1] != n:
            raise ShapeMismatch(f"graph {i} has shape {g.shape}, expected (*, {n})")
    k = cfg.embed_dim
    if k < 2:
        raise EmbedDimTooSmall(f"embed_dim must be at least 2, got {k}")
    if any(k > g.shape[0] for g in graphs):
        raise ValidationError(
            f"embed_dim {k} exceeds the anchor count of at least one view"
        )
    if cfg.smooth_embeddings:
        check_low_freq(n, cfg.low_freq)

    n_views = len(graphs)
    rng = np.random.default_rng(cfg.seed)
    b0 = zscore_normalize_columns(rng.standard_normal((k, n)))
    embeddings = [b0] * n_views  # never written in place: each entry is rebound
    consensus = update_consensus(embeddings)
    lowfreq = np.zeros((k, n_views, n))
    projections = [np.zeros((k, g.shape[0])) for g in graphs]
    grams = [g @ g.T for g in graphs]  # hoisted out of the loop on purpose
    product = np.empty((k, n))  # U_v phi_v, then the fit residual, view by view
    fits = [0.0] * n_views

    trace: list[float] = []
    state = SolverState(projections, embeddings, consensus, lowfreq, 0, trace)
    for t in range(cfg.max_iters):
        del state  # the last snapshot would keep last iteration's arrays alive
        previous_consensus = consensus if cfg.early_stop_tol > 0 else None
        # fresh every iteration: a snapshot a callback keeps must not change
        stacked = np.empty((k, n_views, n))
        for v, g in enumerate(graphs):
            projections[v] = update_projection(embeddings[v], g, cfg.lam, grams[v])
            embeddings[v] = update_embedding(
                projections[v], g, consensus, lowfreq[:, v, :], cfg.beta,
                out=stacked[:, v, :], product=product,
            )
            fits[v] = _squared_distance(embeddings[v], product, product)
        del lowfreq  # release the old tensor before building the new one
        if cfg.smooth_embeddings:
            lowfreq = lowfreq_truncate(stacked, cfg.low_freq)
        else:
            lowfreq = stacked
        consensus = update_consensus(embeddings)
        # shallow list copies: later iterations rebind entries, and callback
        # holders expect a consistent per-iteration snapshot
        state = SolverState(
            list(projections), list(embeddings), consensus, lowfreq, t + 1, trace
        )
        trace.append(objective_value(state, graphs, cfg, fits=fits, stacked=stacked))
        if callback is not None:
            callback(state)
        if cfg.early_stop_tol > 0:
            shift = np.linalg.norm(consensus - previous_consensus)
            if shift / np.linalg.norm(previous_consensus) < cfg.early_stop_tol:
                break
    return state
