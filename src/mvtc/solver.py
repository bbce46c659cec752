"""Alternating closed-form optimization of per-view embedding features.

Given one anchor graph per view, each iteration performs, in order:

1. a ridge update of every view's projection matrix (all V of them first,
   each from its own view's previous embedding),
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

Each view's ridge matrix phi_v phi_v^T + lam I is formed and checked once,
before the loop.  The embeddings live in one (K, V, N) tensor, which the
truncation, the consensus and the objective read as it is.  Once the V
projections are updated it is released, and the V new embeddings are
written straight into the slices of a fresh one, so a snapshot handed to a
callback keeps its own tensor.  ``U_v phi_v`` is formed once per view and
iteration: the embedding blend uses it, and the same buffer then yields the
fit term ||B_v - U_v phi_v||^2 for the objective and serves as its scratch.
The K x N arithmetic runs in place in the order of the plain expressions,
and the coupling term ||B - Y||^2 is summed through a small buffer in the
order of numpy's pairwise summation, so the results keep their bits.  An
iteration whose objective is not finite raises :class:`SingularSystem`.

All randomness flows from ``SolverConfig.seed``; repeated runs are
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (DimensionMismatch, EmbedDimTooSmall, InvalidLowFrequencyParameter,
                     SingularSystem, check_int, check_real, check_switch)
from .tensor_ops import check_low_freq, lowfreq_truncate

# Acceptable relative residual of the ridge normal equations.
_RIDGE_RESIDUAL_TOL = 1e-8

# Columns per block of the z-score normalization.
ZSCORE_BLOCK = 4096

# Largest part of the coupling term's sum formed at once, in entries.
COUPLING_BLOCK = 1 << 14


@dataclass(kw_only=True)
class SolverSettings:
    """The solver settings that :class:`SolverConfig` and ``PipelineConfig`` share.

    ``early_stop_tol = 0`` (the default) disables the convergence guard and
    always runs the full ``max_iters`` iterations.  The settings are checked
    here, before any work; ``low_freq``'s upper bound depends on N, so
    :func:`run` checks it.
    """

    lam: float = 0.1            # ridge weight on the projection matrices
    beta: float = 0.1           # consensus coupling weight
    low_freq: int = 16          # kept spectrum slices, 1..floor(N/2)+1
    max_iters: int = 7
    seed: int = 0
    early_stop_tol: float = 0.0
    no_igs: bool = False        # skip step 3: the embedding tensor passes through

    def __post_init__(self):
        check_int("low_freq", self.low_freq, 1, InvalidLowFrequencyParameter)
        for name in ("lam", "beta", "early_stop_tol"):
            check_real(name, getattr(self, name))
        for name in ("max_iters", "seed"):
            check_int(name, getattr(self, name), 0)
        check_switch("no_igs", self.no_igs)


@dataclass(kw_only=True)
class SolverConfig(SolverSettings):
    """Hyperparameters of the alternating solver: the shared settings and the embedding size."""

    embed_dim: int

    def __post_init__(self):
        check_int("embed_dim", self.embed_dim, 2, EmbedDimTooSmall)
        super().__post_init__()


@dataclass
class SolverState:
    """Solver variables after (or during) a run; ``iterations`` is the trace's length."""

    projections: list[np.ndarray]   # V matrices, K x M_v
    embeddings: np.ndarray          # K x V x N, view v's embedding at [:, v, :]
    consensus: np.ndarray           # K x N
    lowfreq_tensor: np.ndarray      # K x V x N
    objective_trace: list[float] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return len(self.objective_trace)


def zscore_normalize_columns(mat: np.ndarray, *, out: np.ndarray | None = None) -> np.ndarray:
    """Project every column onto mean 0 and sample standard deviation 1.

    Columns with zero variance cannot be projected; they are replaced by a
    fixed alternating-sign template (centered and scaled to the constraint
    set) so the function is total and deterministic.  The result goes to
    ``out`` when given (which may be ``mat`` itself), else to a new array.
    The columns are processed ``ZSCORE_BLOCK`` at a time.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise DimensionMismatch(f"need a K x N matrix, got shape {mat.shape}")
    k, n = mat.shape
    if k < 2:
        raise EmbedDimTooSmall(f"need at least 2 rows to normalize, got {k}")
    if out is None:
        out = np.empty((k, n))
    # zero-variance columns are patched below; a non-finite column turns to
    # NaN quietly, and the solver's objective check reports it
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for lo in range(0, n, ZSCORE_BLOCK):
            cols = slice(lo, lo + ZSCORE_BLOCK)
            block = mat[:, cols]
            centered = np.subtract(block, block.mean(axis=0), out=out[:, cols])
            std = centered.std(axis=0, ddof=1)
            np.divide(centered, std, out=centered)
            dead = std == 0
            if dead.any():
                centered[:, dead] = _unit_variance_template(k)[:, None]
    return out


def _unit_variance_template(k: int) -> np.ndarray:
    """Deterministic length-k vector with mean 0 and sample std 1."""
    t = np.ones(k)
    t[1::2] = -1.0
    t -= t.mean()  # centering only matters for odd k
    return t / t.std(ddof=1)


def ridge_system(graph: np.ndarray, lam: float) -> np.ndarray:
    """The ridge matrix phi phi^T + lam I of an M x N anchor graph.

    ``lam`` is added to the diagonal of the Gram in place, which gives the
    bits of ``phi @ phi.T + lam * I`` (the Gram of a graph has no negative
    zeros).
    Raises :class:`SingularSystem` when the matrix is not finite.
    """
    phi = np.asarray(graph, dtype=float)
    system = phi @ phi.T
    system.flat[:: system.shape[0] + 1] += lam
    if not np.isfinite(system).all():
        raise SingularSystem("ridge system has a non-finite entry")
    return system


def update_projection(
    embedding: np.ndarray, graph: np.ndarray, system: np.ndarray
) -> np.ndarray:
    """Ridge solution U = (B phi^T)(phi phi^T + lam I)^-1.

    ``system`` is the matrix phi phi^T + lam I from :func:`ridge_system`.
    Solved via Cholesky; falls back to the pseudo-inverse when the system
    is singular (lam = 0) and raises :class:`SingularSystem` if even that
    leaves a relative residual above 1e-8 (or a NaN one), or if ``system`` has
    a non-finite entry or B phi^T a non-finite norm; SciPy's own scans are off.
    """
    if not np.isfinite(system).all():
        raise SingularSystem("ridge system has a non-finite entry")
    b = np.asarray(embedding, dtype=float)
    phi = np.asarray(graph, dtype=float)
    rhs = b @ phi.T
    with np.errstate(over="ignore"):  # an overflowing norm is caught just below
        rhs_norm = np.linalg.norm(rhs)
    if not np.isfinite(rhs_norm):
        raise SingularSystem("right-hand side of the ridge system has a non-finite norm")

    def residual(u: np.ndarray) -> float:
        if rhs_norm == 0.0:
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.linalg.norm(u @ system - rhs) / rhs_norm)

    try:
        u = cho_solve(cho_factor(system, check_finite=False), rhs.T, check_finite=False).T
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
    for the caller's fit term.  A blend that overflows (a huge finite
    ``beta``) yields NaN columns without a warning.
    """
    product = np.matmul(projection, graph, out=product)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.multiply(beta, consensus, out=out)
        out += lowfreq_slice
        out += product
        out /= beta + 2.0
    return zscore_normalize_columns(out, out=out)


def update_consensus(embeddings) -> np.ndarray:
    """Normalized mean of a sequence of V per-view K x N embeddings, summed in order."""
    mean = np.mean(embeddings, axis=0, dtype=float)
    return zscore_normalize_columns(mean, out=mean)


def _squared_distance(a: np.ndarray, b: np.ndarray, scratch: np.ndarray) -> float:
    """||a - b||^2 through ``scratch`` (which may be ``b``)."""
    np.subtract(a, b, out=scratch)
    np.square(scratch, out=scratch)
    return float(np.sum(scratch))


def _pairwise_gap_sum(a: np.ndarray, b: np.ndarray, buf: np.ndarray) -> float:
    """sum((a - b)**2) over two 1-d arrays, through the 1-d ``buf``.

    The range is split as numpy's pairwise summation splits it (in halves,
    the first rounded down to a multiple of 8) until a part fits ``buf``,
    and each part is summed by ``np.sum``, so the result has the bits of
    ``np.sum(np.square(a - b))`` without a temporary of a's size, provided
    ``buf`` holds at least ``min(a.size, 128)`` entries.
    """
    n = a.size
    if n <= buf.size:
        gap = np.subtract(a, b, out=buf[:n])
        np.square(gap, out=gap)
        return np.sum(gap)
    half = n // 2
    half -= half % 8
    return (_pairwise_gap_sum(a[:half], b[:half], buf)
            + _pairwise_gap_sum(a[half:], b[half:], buf))


def objective_value(
    state: SolverState,
    cfg: SolverConfig,
    *,
    fits: list[float],
    scratch: np.ndarray,
) -> float:
    """Sum of ridge, fit, consensus, and smoothing-coupling terms.

    The smoothing penalty itself scores 0 whenever the low-frequency
    tensor is feasible (it always is after :func:`lowfreq_truncate`), so
    only the quadratic coupling ||B - Y||^2 / 2 appears here.  ``fits``
    holds each view's ||B_v - U_v phi_v||^2 and ``scratch`` is a K x N
    buffer for each view's consensus gap; the coupling term's parts go
    through a buffer of at most ``COUPLING_BLOCK`` entries.
    """
    total = 0.0
    for u, b, fit in zip(state.projections, state.embeddings.transpose(1, 0, 2), fits):
        total += 0.5 * cfg.lam * float(np.sum(u * u))
        total += 0.5 * fit
        total += 0.5 * cfg.beta * _squared_distance(state.consensus, b, scratch)
    coupling = _pairwise_gap_sum(
        state.embeddings.reshape(-1), state.lowfreq_tensor.reshape(-1),
        np.empty(min(state.embeddings.size, COUPLING_BLOCK)),
    )
    total += 0.5 * float(coupling)
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
    snapshot after every iteration; treat it as read-only.  Raises
    :class:`SingularSystem` when an iteration's objective is not finite.
    """
    graphs = [np.ascontiguousarray(g, dtype=float) for g in graphs]
    if not graphs:
        raise DimensionMismatch("need at least one anchor graph")
    n = graphs[0].shape[1]
    for i, g in enumerate(graphs):
        if g.ndim != 2 or g.shape[1] != n:
            raise DimensionMismatch(f"graph {i} has shape {g.shape}, expected (*, {n})")
    k = cfg.embed_dim
    check_int("embed_dim", k, most=min(g.shape[0] for g in graphs))  # each view's anchor count
    if not cfg.no_igs:
        check_low_freq(n, cfg.low_freq)

    # formed once, checked once: the loop only solves with them
    systems = [ridge_system(g, cfg.lam) for g in graphs]
    n_views = len(graphs)
    rng = np.random.default_rng(cfg.seed)
    b0 = zscore_normalize_columns(rng.standard_normal((k, n)))
    embeddings = np.broadcast_to(b0[:, None, :], (k, n_views, n))  # a read-only view
    consensus = update_consensus(embeddings.transpose(1, 0, 2))
    del b0  # the embeddings hold it until the first embedding update
    lowfreq = np.zeros((k, n_views, n))
    projections = [np.zeros((k, g.shape[0])) for g in graphs]
    product = np.empty((k, n))  # U_v phi_v, then the fit residual, view by view
    fits = [0.0] * n_views

    trace: list[float] = []
    state = SolverState(projections, embeddings, consensus, lowfreq)
    for t in range(cfg.max_iters):
        del state  # the last snapshot would keep last iteration's arrays alive
        previous_consensus = consensus if cfg.early_stop_tol > 0 else None
        # each projection reads only its own view's old embedding, so all of
        # them can go first and the old embeddings be released before the
        # new tensor exists (with smoothing off, lowfreq still holds them)
        for v, g in enumerate(graphs):
            projections[v] = update_projection(embeddings[:, v, :], g, systems[v])
        del embeddings
        # fresh every iteration: a snapshot a callback keeps must not change.
        # Each fit reads the tensor's slice: a name bound to update_embedding's
        # result (a view) would keep this tensor alive into the next iteration.
        embeddings = np.empty((k, n_views, n))
        for v, g in enumerate(graphs):
            update_embedding(projections[v], g, consensus, lowfreq[:, v, :], cfg.beta,
                             out=embeddings[:, v, :], product=product)
            fits[v] = _squared_distance(embeddings[:, v, :], product, product)
        del lowfreq  # release the old tensor before building the new one
        lowfreq = embeddings if cfg.no_igs else lowfreq_truncate(embeddings, cfg.low_freq)
        del consensus  # the embeddings are formed; previous_consensus keeps it if needed
        consensus = update_consensus(embeddings.transpose(1, 0, 2))
        # a shallow list copy: later iterations refill the list, and callback
        # holders expect a consistent per-iteration snapshot
        state = SolverState(list(projections), embeddings, consensus, lowfreq)
        objective = objective_value(state, cfg, fits=fits, scratch=product)
        if not np.isfinite(objective):
            raise SingularSystem(f"objective is {objective} at iteration {t + 1}")
        trace.append(objective)
        state.objective_trace = list(trace)  # a snapshot's trace, like its arrays, stays put
        if callback is not None:
            callback(state)
        if cfg.early_stop_tol > 0:
            shift = np.linalg.norm(consensus - previous_consensus)
            if shift / np.linalg.norm(previous_consensus) < cfg.early_stop_tol:
                break
    return state
