import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor

from mvtc.errors import (
    DimensionMismatch,
    SingularSystem,
    ValidationError,
)
from mvtc.solver import (
    COUPLING_BLOCK,
    ZSCORE_BLOCK,
    _pairwise_gap_sum,
    SolverConfig,
    SolverState,
    objective_value,
    ridge_system,
    run,
    update_consensus,
    update_embedding,
    update_projection,
    zscore_normalize_columns,
)
from mvtc.tensor_ops import fft_mode3, lowfreq_truncate

from oracles import (
    _zscore_reference,
    kept_slice_indices,
    lowfreq_truncate_bruteforce,
    solver_run_reference,
)


def random_graphs(n_views, m, n, seed):
    rng = np.random.default_rng(seed)
    return [1.0 - rng.random((m, n)) for _ in range(n_views)]


def column_stats_ok(mat, tol=1e-10):
    means = mat.mean(axis=0)
    stds = mat.std(axis=0, ddof=1)
    return np.abs(means).max() <= tol and np.abs(stds - 1.0).max() <= tol


# ---------------------------------------------------------------------------
# z-score normalization


def test_zscore_simple_column():
    out = zscore_normalize_columns(np.array([[1.0], [2.0], [3.0]]))
    np.testing.assert_allclose(out[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)


def test_zscore_idempotent():
    rng = np.random.default_rng(0)
    once = zscore_normalize_columns(rng.standard_normal((5, 8)))
    twice = zscore_normalize_columns(once)
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_zscore_matches_per_column_statistics_oracle():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((6, 10)) * 3 + 1
    out = zscore_normalize_columns(mat)
    for j in range(10):
        col = mat[:, j]
        mu = col.sum() / 6
        sd = np.sqrt(((col - mu) ** 2).sum() / 5)
        np.testing.assert_allclose(out[:, j], (col - mu) / sd, rtol=1e-12)
    assert column_stats_ok(out, tol=1e-12)


def test_zscore_constant_column_uses_template():
    mat = np.ones((4, 3))
    mat[:, 1] = np.arange(4)
    out = zscore_normalize_columns(mat)
    assert column_stats_ok(out, tol=1e-12)
    np.testing.assert_array_equal(out[:, 0], out[:, 2])  # same deterministic template
    template = out[:, 0]
    assert template[0] > 0 > template[1]  # alternating signs
    # a constant column whose mean does not round exactly: std is 0, centered is not
    mat = np.full((3, 2), 0.1)
    mat[:, 1] = np.arange(3)
    centered = mat - mat.mean(axis=0)
    assert centered[:, 0].any() and centered[:, 0].std(ddof=1) == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = zscore_normalize_columns(mat)
    np.testing.assert_array_equal(out[:, 0], zscore_normalize_columns(np.zeros((3, 1)))[:, 0])
    assert column_stats_ok(out, tol=1e-12)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_zscore_template_satisfies_constraints_any_height(k):
    out = zscore_normalize_columns(np.zeros((k, 2)))
    assert column_stats_ok(out, tol=1e-12)


def test_zscore_rejects_single_row():
    with pytest.raises(DimensionMismatch, match="need at least 2 rows to normalize, got 1"):
        zscore_normalize_columns(np.ones((1, 4)))


def test_zscore_rejects_a_vector():
    with pytest.raises(DimensionMismatch, match=r"need a K x N matrix, got shape \(4,\)"):
        zscore_normalize_columns(np.ones(4))


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 9), n=st.integers(1, 12), seed=st.integers(0, 10_000))
def test_zscore_columns_always_in_constraint_set(k, n, seed):
    mat = np.random.default_rng(seed).standard_normal((k, n)) * 7 - 2
    assert column_stats_ok(zscore_normalize_columns(mat), tol=1e-10)


def test_zscore_blocks_are_bit_equal_to_whole_matrix_statistics():
    # several column blocks and a short last one, read through a strided
    # view as the solver does, with a zero-variance column in a later block
    k, n = 5, 2 * ZSCORE_BLOCK + 37
    tensor = np.random.default_rng(2).standard_normal((k, 3, n)) * 3 + 1
    tensor[:, 1, ZSCORE_BLOCK + 5] = 0.25
    mat = tensor[:, 1, :]
    want = _zscore_reference(mat)
    np.testing.assert_array_equal(zscore_normalize_columns(mat), want)
    zscore_normalize_columns(mat, out=mat)
    np.testing.assert_array_equal(mat, want)


# ---------------------------------------------------------------------------
# projection update


def test_projection_identity_graph_returns_embedding():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((3, 5))
    u = update_projection(b, np.eye(5), ridge_system(np.eye(5), 0.0))
    np.testing.assert_array_equal(u, b)


def test_projection_huge_ridge_shrinks_to_zero():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((3, 8))
    phi = rng.random((4, 8))
    u = update_projection(b, phi, ridge_system(phi, 1e12))
    assert np.linalg.norm(u) <= 1e-6


def test_projection_matches_dense_inverse_oracle():
    rng = np.random.default_rng(5)
    b = rng.standard_normal((3, 8))
    phi = rng.random((4, 8))
    lam = 0.5
    expected = (b @ phi.T) @ np.linalg.inv(phi @ phi.T + lam * np.eye(4))
    system = ridge_system(phi, lam)
    np.testing.assert_array_equal(system, phi @ phi.T + lam * np.eye(4))  # same bits
    got = update_projection(b, phi, system)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)


def test_projection_normal_equation_residual():
    rng = np.random.default_rng(6)
    b = rng.standard_normal((4, 20))
    phi = rng.random((6, 20))
    lam = 0.01
    u = update_projection(b, phi, ridge_system(phi, lam))
    system = phi @ phi.T + lam * np.eye(6)
    rhs = b @ phi.T
    rel = np.linalg.norm(u @ system - rhs) / np.linalg.norm(rhs)
    assert rel <= 1e-8


def test_projection_singular_gram_falls_back_to_pinv():
    # lam = 0 and an all-zero graph row: Cholesky raises, the pseudo-inverse must serve
    rng = np.random.default_rng(6)
    phi = rng.random((3, 6))
    phi[1] = 0.0
    b = rng.standard_normal((2, 6))
    system = ridge_system(phi, 0.0)
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        cho_factor(system)
    u = update_projection(b, phi, system)
    rhs = b @ phi.T
    np.testing.assert_array_equal(u, rhs @ np.linalg.pinv(system))
    rel = np.linalg.norm(u @ system - rhs) / np.linalg.norm(rhs)
    assert rel <= 1e-8


def test_projection_of_zero_embedding_is_zero():
    phi = np.random.default_rng(7).random((4, 8))
    u = update_projection(np.zeros((3, 8)), phi, ridge_system(phi, 0.1))
    np.testing.assert_array_equal(u, np.zeros((3, 4)))


def test_projection_non_finite_system_raises_singular_system():
    rng = np.random.default_rng(8)
    phi = rng.random((4, 8))
    system = ridge_system(phi, 0.1)
    for bad in (np.nan, np.inf, -np.inf):  # any system, not only one ridge_system formed
        broken = system.copy()
        broken[1, 2] = bad
        with pytest.raises(SingularSystem, match="non-finite entry"):
            update_projection(rng.standard_normal((3, 8)), phi, broken)
    phi[1, 2] = np.nan
    with pytest.raises(SingularSystem):
        ridge_system(phi, 0.1)


def test_projection_nan_residual_raises_singular_system(recwarn):
    # finite inputs whose norms overflow: no residual can be trusted, so
    # this must not pass as a success, nor print numpy warnings
    rng = np.random.default_rng(9)
    b = 1e200 * rng.standard_normal((3, 8))
    phi = rng.random((4, 8))
    with pytest.raises(SingularSystem):
        update_projection(b, phi, ridge_system(phi, 0.1))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_projection_nan_embedding_raises_singular_system_quietly(recwarn):
    # a NaN right-hand side is caught by its norm, before the solve
    rng = np.random.default_rng(10)
    b = rng.standard_normal((3, 12))
    b[1, 4] = np.nan
    phi = rng.random((5, 12))
    with pytest.raises(SingularSystem):
        update_projection(b, phi, ridge_system(phi, 0.3))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_run_with_nan_graph_raises_singular_system_quietly(recwarn):
    graphs = random_graphs(3, 6, 40, seed=11)
    graphs[1][2, 7] = np.nan
    with pytest.raises(SingularSystem):
        run(graphs, SolverConfig(embed_dim=3, low_freq=4))
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_run_with_overflowing_blend_raises_singular_system_quietly(recwarn):
    # beta * consensus overflows, the embeddings turn to NaN in the first
    # iteration, and the objective check stops the run there
    graphs = random_graphs(2, 12, 40, seed=12)
    seen = []
    with pytest.raises(SingularSystem, match="iteration 1"):
        run(graphs, SolverConfig(embed_dim=10, low_freq=4, beta=1e308), callback=seen.append)
    assert seen == []
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


# ---------------------------------------------------------------------------
# embedding / consensus / smoothing updates


def test_embedding_fixed_point_when_already_normalized():
    rng = np.random.default_rng(7)
    b_star = zscore_normalize_columns(rng.standard_normal((4, 6)))
    out = update_embedding(
        projection=b_star,
        graph=np.eye(6),
        consensus=np.zeros((4, 6)),
        lowfreq_slice=b_star,
        beta=0.0,
    )
    np.testing.assert_allclose(out, b_star, atol=1e-12)


def test_embedding_consensus_dominates_for_large_beta():
    rng = np.random.default_rng(8)
    consensus = zscore_normalize_columns(rng.standard_normal((4, 6)))
    out = update_embedding(
        projection=rng.standard_normal((4, 3)),
        graph=rng.random((3, 6)),
        consensus=consensus,
        lowfreq_slice=rng.standard_normal((4, 6)),
        beta=1e8,
    )
    np.testing.assert_allclose(out, consensus, atol=1e-6)


def test_embedding_matches_two_step_oracle():
    rng = np.random.default_rng(9)
    u = rng.standard_normal((4, 5))
    phi = rng.random((5, 7))
    consensus = rng.standard_normal((4, 7))
    y = rng.standard_normal((4, 7))
    beta = 1.0
    raw = (beta * consensus + y + u @ phi) / (beta + 2.0)
    expected = np.empty_like(raw)
    for j in range(7):
        col = raw[:, j]
        expected[:, j] = (col - col.mean()) / col.std(ddof=1)
    got = update_embedding(u, phi, consensus, y, beta)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10)


def test_lowfreq_update_full_band_returns_stack():
    rng = np.random.default_rng(10)
    mats = [rng.standard_normal((2, 7)) for _ in range(3)]
    out = lowfreq_truncate(np.stack(mats, axis=1), keep=4)  # (7+1)//2 == full band
    np.testing.assert_allclose(out, np.stack(mats, axis=1), atol=1e-12)


def test_lowfreq_update_dc_only_gives_mean_slice():
    rng = np.random.default_rng(11)
    mats = [rng.standard_normal((2, 6)) for _ in range(2)]
    out = lowfreq_truncate(np.stack(mats, axis=1), keep=1)
    mean_slice = np.stack(mats, axis=1).mean(axis=2)
    for n in range(6):
        np.testing.assert_allclose(out[:, :, n], mean_slice, atol=1e-12)


def test_lowfreq_update_matches_bruteforce():
    rng = np.random.default_rng(12)
    mats = [rng.standard_normal((2, 6)) for _ in range(3)]
    expected = lowfreq_truncate_bruteforce(np.stack(mats, axis=1), 2)
    np.testing.assert_allclose(lowfreq_truncate(np.stack(mats, axis=1), 2), expected, atol=1e-12)


def test_consensus_of_identical_embeddings():
    rng = np.random.default_rng(13)
    b = zscore_normalize_columns(rng.standard_normal((3, 9)))
    np.testing.assert_allclose(update_consensus([b, b.copy(), b.copy()]), b, atol=1e-12)


def test_consensus_exact_cancellation_hits_template():
    rng = np.random.default_rng(14)
    b = zscore_normalize_columns(rng.standard_normal((4, 5)))
    out = update_consensus([b, -b])
    template = zscore_normalize_columns(np.zeros((4, 1)))[:, 0]
    for j in range(5):
        np.testing.assert_array_equal(out[:, j], template)


def test_consensus_matches_mean_then_normalize_oracle():
    rng = np.random.default_rng(15)
    mats = [rng.standard_normal((3, 6)) for _ in range(3)]
    mean = (mats[0] + mats[1] + mats[2]) / 3.0
    expected = np.empty_like(mean)
    for j in range(6):
        col = mean[:, j]
        expected[:, j] = (col - col.mean()) / col.std(ddof=1)
    np.testing.assert_allclose(update_consensus(mats), expected, rtol=1e-10)


# ---------------------------------------------------------------------------
# objective


def views(state):
    """The V per-view K x N embeddings of a state, in order."""
    return list(state.embeddings.transpose(1, 0, 2))


def score(state, graphs, cfg):
    """``objective_value`` of any state, with the arguments that ``run`` forms."""
    fits = [
        float(np.sum(np.square(b - u @ phi)))
        for u, b, phi in zip(state.projections, views(state), graphs)
    ]
    scratch = np.empty(state.consensus.shape)
    return objective_value(state, cfg, fits=fits, scratch=scratch)


def make_state(graphs, cfg, seed=0):
    rng = np.random.default_rng(seed)
    k = cfg.embed_dim
    n = graphs[0].shape[1]
    embeddings = np.stack(
        [zscore_normalize_columns(rng.standard_normal((k, n))) for _ in graphs], axis=1
    )
    projections = [rng.standard_normal((k, g.shape[0])) for g in graphs]
    consensus = update_consensus(embeddings.transpose(1, 0, 2))
    lowfreq = lowfreq_truncate(embeddings, cfg.low_freq)
    return SolverState(projections, embeddings, consensus, lowfreq)


def test_objective_zero_at_perfect_fit():
    rng = np.random.default_rng(16)
    phi = np.eye(6)
    b = zscore_normalize_columns(rng.standard_normal((3, 6)))
    state = SolverState(
        projections=[b],
        embeddings=np.stack([b], axis=1),
        consensus=b,
        lowfreq_tensor=np.stack([b], axis=1),
    )
    cfg = SolverConfig(embed_dim=3, lam=0.0, beta=0.0, low_freq=3)
    assert score(state, [phi], cfg) == pytest.approx(0.0, abs=1e-20)


def test_objective_linear_in_beta():
    graphs = random_graphs(2, 5, 12, seed=17)
    cfg1 = SolverConfig(embed_dim=3, lam=0.3, beta=1.0, low_freq=4)
    cfg2 = SolverConfig(embed_dim=3, lam=0.3, beta=2.0, low_freq=4)
    state = make_state(graphs, cfg1, seed=18)
    consensus_term = sum(
        0.5 * float(np.sum((state.consensus - b) ** 2)) for b in views(state)
    )
    diff = score(state, graphs, cfg2) - score(state, graphs, cfg1)
    assert diff == pytest.approx(consensus_term, rel=1e-12)


def test_objective_matches_term_by_term_oracle():
    graphs = random_graphs(3, 4, 10, seed=19)
    cfg = SolverConfig(embed_dim=3, lam=0.7, beta=0.4, low_freq=3)
    state = make_state(graphs, cfg, seed=20)
    expected = 0.0
    for u, b, phi in zip(state.projections, views(state), graphs):
        expected += 0.5 * cfg.lam * np.linalg.norm(u, "fro") ** 2
        expected += 0.5 * np.linalg.norm(b - u @ phi, "fro") ** 2
        expected += 0.5 * cfg.beta * np.linalg.norm(state.consensus - b, "fro") ** 2
    expected += 0.5 * np.linalg.norm(state.embeddings - state.lowfreq_tensor) ** 2
    got = score(state, graphs, cfg)
    assert got == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("size", [7, 129, COUPLING_BLOCK, COUPLING_BLOCK + 1, 240_000, 1_000_003])
def test_coupling_sum_has_the_bits_of_one_whole_array_sum(size):
    rng = np.random.default_rng(size)
    a = rng.standard_normal(size) * 1e3
    b = rng.standard_normal(size)
    want = np.sum(np.square(a - b))
    assert _pairwise_gap_sum(a, b, np.empty(COUPLING_BLOCK)) == want
    assert _pairwise_gap_sum(a, b, np.empty(1000)) == want  # smaller parts, same tree


# ---------------------------------------------------------------------------
# per-step descent


def test_each_update_does_not_increase_objective():
    graphs = random_graphs(3, 6, 14, seed=21)
    cfg = SolverConfig(embed_dim=4, lam=0.2, beta=0.5, low_freq=4)
    state = run(graphs, cfg)
    base = score(state, graphs, cfg)

    # projection refresh is the exact ridge minimizer
    proj = [
        update_projection(b, g, ridge_system(g, cfg.lam))
        for b, g in zip(views(state), graphs)
    ]
    after_proj = SolverState(proj, state.embeddings, state.consensus, state.lowfreq_tensor)
    assert score(after_proj, graphs, cfg) <= base + 1e-9 * base

    # unconstrained embedding minimizer (before re-normalization)
    raw = [
        (cfg.beta * state.consensus + state.lowfreq_tensor[:, v, :] + u @ g)
        / (cfg.beta + 2.0)
        for v, (u, g) in enumerate(zip(state.projections, graphs))
    ]
    after_raw = SolverState(
        state.projections, np.stack(raw, axis=1), state.consensus, state.lowfreq_tensor
    )
    assert score(after_raw, graphs, cfg) <= base + 1e-9 * base

    # unconstrained consensus minimizer
    mean = state.embeddings.mean(axis=1)
    after_mean = SolverState(state.projections, state.embeddings, mean, state.lowfreq_tensor)
    assert score(after_mean, graphs, cfg) <= base + 1e-9 * base

    # smoothing refresh is the exact feasible minimizer of the coupling
    refreshed = lowfreq_truncate(state.embeddings, cfg.low_freq)
    rng = np.random.default_rng(22)
    gap = np.linalg.norm(state.embeddings - refreshed)
    for _ in range(5):
        member = lowfreq_truncate(rng.standard_normal(state.embeddings.shape), cfg.low_freq)
        assert gap <= np.linalg.norm(state.embeddings - member) + 1e-10


# ---------------------------------------------------------------------------
# full run


def test_run_single_view_reaches_fixed_point_by_second_iteration():
    rng = np.random.default_rng(23)
    n, k = 9, 3
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    phi = q  # invertible graph, so the ridge fit is exact at lam=0
    cfg = SolverConfig(
        embed_dim=k, lam=0.0, beta=0.0, low_freq=(n + 1) // 2, max_iters=7, seed=40
    )
    state = run([phi], cfg)
    trace = state.objective_trace
    for i in range(1, len(trace)):
        assert trace[i] <= trace[i - 1] + 1e-8 * max(1.0, trace[0])
        assert abs(trace[i] - trace[i - 1]) <= 1e-8 * max(1.0, trace[0])
    # closed-form fixed point computed independently with a dense inverse
    b0 = zscore_normalize_columns(np.random.default_rng(cfg.seed).standard_normal((k, n)))
    smoother = phi.T @ np.linalg.inv(phi @ phi.T) @ phi
    expected = zscore_normalize_columns(b0 @ smoother)
    np.testing.assert_allclose(state.consensus, expected, atol=1e-8)


def test_run_identical_graphs_stay_symmetric_across_views():
    g = random_graphs(1, 5, 11, seed=24)[0]
    cfg = SolverConfig(embed_dim=3, lam=0.1, beta=0.4, low_freq=3, seed=2)
    seen = []
    run([g, g.copy(), g.copy()], cfg, callback=lambda s: seen.append(s))
    assert len(seen) == 7
    for state in seen:
        first, *rest = views(state)
        for b in rest:
            np.testing.assert_allclose(b, first, atol=1e-10)
        np.testing.assert_allclose(state.consensus, first, atol=1e-10)


def test_run_snapshots_keep_their_own_arrays():
    # each iteration writes into fresh arrays and hands out a trace of its
    # own, so a kept snapshot never changes under later iterations
    graphs = random_graphs(3, 6, 16, seed=34)

    def arrays(state):
        return [*state.projections, state.embeddings, state.consensus, state.lowfreq_tensor]

    for no_igs in (False, True):
        kept = []
        final = run(
            graphs, SolverConfig(embed_dim=4, low_freq=4, no_igs=no_igs),
            callback=lambda s: kept.append(
                (s, [a.copy() for a in arrays(s)], list(s.objective_trace))
            ),
        )
        assert [s.iterations for s, _, _ in kept] == list(range(1, 8))
        for state, copies, trace in kept:
            for a, c in zip(arrays(state), copies, strict=True):
                np.testing.assert_array_equal(a, c)
            assert len(state.objective_trace) == state.iterations
            assert state.objective_trace == trace
            assert trace == final.objective_trace[:state.iterations]


def test_run_deterministic_under_seed():
    graphs = random_graphs(2, 6, 13, seed=25)
    cfg = SolverConfig(embed_dim=4, seed=77, low_freq=4)
    a = run(graphs, cfg)
    b = run(graphs, cfg)
    assert a.objective_trace == b.objective_trace
    np.testing.assert_array_equal(a.consensus, b.consensus)
    np.testing.assert_array_equal(a.embeddings, b.embeddings)
    np.testing.assert_array_equal(a.lowfreq_tensor, b.lowfreq_tensor)


def test_run_constraint_and_feasibility_invariants_each_iteration():
    graphs = random_graphs(3, 8, 20, seed=26)
    cfg = SolverConfig(embed_dim=5, lam=0.3, beta=0.7, low_freq=5, seed=1)
    kept = set(kept_slice_indices(20, cfg.low_freq).tolist())

    def check(state):
        for b in views(state):
            assert column_stats_ok(b)
        assert column_stats_ok(state.consensus)
        spectrum = fft_mode3(state.lowfreq_tensor)
        for slice_idx in range(20):
            if slice_idx not in kept:
                assert np.abs(spectrum[:, :, slice_idx]).max() <= 1e-10

    run(graphs, cfg, callback=check)


def test_run_trace_non_increasing_with_slack():
    for seed in range(5):
        graphs = random_graphs(3, 10, 40, seed=seed)
        cfg = SolverConfig(embed_dim=4, seed=seed, low_freq=6)
        trace = run(graphs, cfg).objective_trace
        slack = 1e-6 * trace[0]
        assert all(trace[i] <= trace[i - 1] + slack for i in range(1, len(trace)))


def test_run_early_stop_disabled_by_default_runs_full_schedule():
    graphs = random_graphs(1, 4, 9, seed=27)
    cfg = SolverConfig(embed_dim=2, low_freq=2)
    assert cfg.max_iters == 7
    state = run(graphs, cfg)
    assert state.iterations == 7
    assert len(state.objective_trace) == 7


def test_run_early_stop_halts_on_converged_problem():
    rng = np.random.default_rng(28)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    cfg = SolverConfig(
        embed_dim=3, lam=0.0, beta=0.0, low_freq=4, seed=0, early_stop_tol=1e-8
    )
    state = run([q], cfg)
    assert state.iterations < 7


def test_run_validates_config():
    graphs = random_graphs(2, 5, 12, seed=29)
    with pytest.raises(ValidationError, match="^low_freq .* got 8$"):
        run(graphs, SolverConfig(embed_dim=3, low_freq=8))
    with pytest.raises(ValidationError, match="^embed_dim .* got 1$"):
        run(graphs, SolverConfig(embed_dim=1, low_freq=3))
    with pytest.raises(ValidationError, match="^embed_dim .* got 2.5$"):
        SolverConfig(embed_dim=2.5)
    with pytest.raises(ValidationError, match="^low_freq .* got 3.0$"):
        SolverConfig(embed_dim=3, low_freq=3.0)
    with pytest.raises(ValidationError):
        SolverConfig(embed_dim=3, max_iters=2.5)
    with pytest.raises(ValidationError):
        SolverConfig(embed_dim=3, seed=-1)
    with pytest.raises(ValidationError, match="no_igs must be a bool"):
        SolverConfig(embed_dim=3, no_igs="no")
    with pytest.raises(ValidationError):
        run(graphs, SolverConfig(embed_dim=6, low_freq=3))  # K > M
    with pytest.raises(DimensionMismatch):
        run([], SolverConfig(embed_dim=3, low_freq=2))
    with pytest.raises(DimensionMismatch, match=r"graph 1 has shape \(5, 11\), expected \(\*, 12\)"):
        run([graphs[0], graphs[1][:, :11]], SolverConfig(embed_dim=3, low_freq=2))


def test_run_smoothing_disabled_passes_tensor_through():
    graphs = random_graphs(2, 6, 10, seed=30)
    cfg = SolverConfig(embed_dim=3, low_freq=3, no_igs=True, seed=5)
    state = run(graphs, cfg)
    np.testing.assert_array_equal(state.lowfreq_tensor, state.embeddings)


def test_run_holds_under_three_embedding_tensors_beyond_its_graphs():
    # all projections go first, so the previous embedding tensor is released
    # before the next one is allocated; one tensor kept past its iteration
    # reads about 3.8
    k, n_views, n = 4, 3, 20_000
    graphs = random_graphs(n_views, 40, n, seed=31)
    tracemalloc.start()
    try:
        run(graphs, SolverConfig(embed_dim=k, low_freq=8, max_iters=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tensor_bytes = k * n_views * n * 8
    assert peak < 3 * tensor_bytes, f"{peak / tensor_bytes:.2f} K x V x N tensors"


def assert_states_identical(got, want):
    assert got.iterations == want.iterations
    assert got.objective_trace == want.objective_trace
    np.testing.assert_array_equal(got.consensus, want.consensus)
    np.testing.assert_array_equal(got.lowfreq_tensor, want.lowfreq_tensor)
    np.testing.assert_array_equal(got.embeddings, np.stack(want.embeddings, axis=1))
    assert len(got.projections) == len(want.projections)
    for a, b in zip(got.projections, want.projections):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "n_views, n, overrides",
    [
        (1, 31, {}),
        (2, 40, {}),
        (3, 57, {}),
        (3, 40, {"low_freq": 1}),
        (2, 57, {"low_freq": 57 // 2 + 1}),  # Nyquist band, odd N
        (3, 40, {"low_freq": 40 // 2 + 1}),  # Nyquist band, even N
        (3, 57, {"no_igs": True}),
        (2, 40, {"beta": 0.0}),
        (3, 40, {"early_stop_tol": 1e-3, "max_iters": 30}),
        (3, 5, {"embed_dim": 2, "low_freq": 1}),  # K*N below 128: the coupling sum in one part
    ],
)
def test_run_is_bit_identical_to_reference_loop(n_views, n, overrides):
    graphs = random_graphs(n_views, 9, n, seed=32 + n_views + n)
    params = {"embed_dim": 4, "lam": 0.2, "beta": 0.3, "low_freq": 5, "seed": 6}
    cfg = SolverConfig(**{**params, **overrides})
    got = run(graphs, cfg)
    want = solver_run_reference(graphs, cfg)
    if cfg.early_stop_tol > 0:
        assert got.iterations < cfg.max_iters
    assert_states_identical(got, want)


def test_run_is_bit_identical_to_reference_loop_through_the_template():
    # with beta=0, a zero graph column blends to a zero column in the first
    # iteration (the low-frequency tensor starts at zero): the template path
    graphs = random_graphs(3, 8, 30, seed=33)
    for g in graphs:
        g[:, 7] = 0.0
    cfg = SolverConfig(embed_dim=4, lam=0.2, beta=0.0, low_freq=4, seed=8)
    first = []
    got = run(graphs, cfg, callback=lambda s: first.append(s.embeddings[:, 0, 7].copy()))
    template = zscore_normalize_columns(np.zeros((4, 1)))[:, 0]
    np.testing.assert_array_equal(first[0], template)
    assert_states_identical(got, solver_run_reference(graphs, cfg))
