import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvtc.errors import (
    EmbedDimTooSmall,
    InvalidLowFrequencyParameter,
    ShapeMismatch,
    SingularSystem,
    ValidationError,
)
from mvtc.solver import (
    SolverConfig,
    SolverState,
    objective_value,
    run,
    stack_views,
    update_consensus,
    update_embedding,
    update_projection,
    zscore_normalize_columns,
)
from mvtc.tensor_ops import fft_mode3, kept_slice_indices, lowfreq_truncate

from oracles import lowfreq_truncate_bruteforce, solver_run_reference


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
    with pytest.raises(EmbedDimTooSmall):
        zscore_normalize_columns(np.ones((1, 4)))


@settings(max_examples=30, deadline=None)
@given(k=st.integers(2, 9), n=st.integers(1, 12), seed=st.integers(0, 10_000))
def test_zscore_columns_always_in_constraint_set(k, n, seed):
    mat = np.random.default_rng(seed).standard_normal((k, n)) * 7 - 2
    assert column_stats_ok(zscore_normalize_columns(mat), tol=1e-10)


# ---------------------------------------------------------------------------
# stacking


def test_stack_single_view():
    b = np.arange(6.0).reshape(2, 3)
    t = stack_views([b])
    np.testing.assert_array_equal(t[:, 0, :], b)


def test_stack_unstack_round_trip():
    rng = np.random.default_rng(2)
    mats = [rng.standard_normal((4, 6)) for _ in range(3)]
    t = stack_views(mats)
    for v, m in enumerate(mats):
        np.testing.assert_array_equal(t[:, v, :], m)


def test_stack_index_formula():
    b1 = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    b2 = np.array([[7.0, 8.0, 9.0], [10.0, 11.0, 12.0]])
    t = stack_views([b1, b2])
    assert t.shape == (2, 2, 3)
    for k in range(2):
        for n in range(3):
            assert t[k, 0, n] == b1[k, n]
            assert t[k, 1, n] == b2[k, n]


def test_stack_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        stack_views([np.zeros((2, 3)), np.zeros((2, 4))])


# ---------------------------------------------------------------------------
# projection update


def test_projection_identity_graph_returns_embedding():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((3, 5))
    u = update_projection(b, np.eye(5), lam=0.0)
    np.testing.assert_array_equal(u, b)


def test_projection_huge_ridge_shrinks_to_zero():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((3, 8))
    phi = rng.random((4, 8))
    u = update_projection(b, phi, lam=1e12)
    assert np.linalg.norm(u) <= 1e-6


def test_projection_matches_dense_inverse_oracle():
    rng = np.random.default_rng(5)
    b = rng.standard_normal((3, 8))
    phi = rng.random((4, 8))
    lam = 0.5
    expected = (b @ phi.T) @ np.linalg.inv(phi @ phi.T + lam * np.eye(4))
    got = update_projection(b, phi, lam)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-9)


def test_projection_normal_equation_residual():
    rng = np.random.default_rng(6)
    b = rng.standard_normal((4, 20))
    phi = rng.random((6, 20))
    lam = 0.01
    u = update_projection(b, phi, lam)
    system = phi @ phi.T + lam * np.eye(6)
    rhs = b @ phi.T
    rel = np.linalg.norm(u @ system - rhs) / np.linalg.norm(rhs)
    assert rel <= 1e-8


def test_projection_singular_gram_falls_back_to_pinv():
    # rank-1 graph with lam=0: Cholesky fails, pseudo-inverse must serve
    phi = np.outer(np.ones(3), np.linspace(1.0, 2.0, 6))
    b = np.vstack([np.linspace(1.0, 2.0, 6), np.linspace(2.0, 4.0, 6)])
    u = update_projection(b, phi, lam=0.0)
    system = phi @ phi.T
    rhs = b @ phi.T
    rel = np.linalg.norm(u @ system - rhs) / np.linalg.norm(rhs)
    assert rel <= 1e-8


def test_projection_non_finite_system_raises_singular_system():
    rng = np.random.default_rng(8)
    phi = rng.random((4, 8))
    phi[1, 2] = np.nan
    with pytest.raises(SingularSystem):
        update_projection(rng.standard_normal((3, 8)), phi, lam=0.1)


def test_projection_nan_residual_raises_singular_system(recwarn):
    # finite inputs whose residual norms overflow: inf / inf is NaN, and a
    # NaN residual must not pass as a success, nor print numpy warnings
    rng = np.random.default_rng(9)
    b = 1e200 * rng.standard_normal((3, 8))
    with pytest.raises(SingularSystem):
        update_projection(b, rng.random((4, 8)), lam=0.1)
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
    out = lowfreq_truncate(stack_views(mats), keep=4)  # (7+1)//2 == full band
    np.testing.assert_allclose(out, stack_views(mats), atol=1e-12)


def test_lowfreq_update_dc_only_gives_mean_slice():
    rng = np.random.default_rng(11)
    mats = [rng.standard_normal((2, 6)) for _ in range(2)]
    out = lowfreq_truncate(stack_views(mats), keep=1)
    mean_slice = stack_views(mats).mean(axis=2)
    for n in range(6):
        np.testing.assert_allclose(out[:, :, n], mean_slice, atol=1e-12)


def test_lowfreq_update_matches_bruteforce():
    rng = np.random.default_rng(12)
    mats = [rng.standard_normal((2, 6)) for _ in range(3)]
    expected = lowfreq_truncate_bruteforce(stack_views(mats), 2)
    np.testing.assert_allclose(lowfreq_truncate(stack_views(mats), 2), expected, atol=1e-12)


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


def make_state(graphs, cfg, seed=0):
    rng = np.random.default_rng(seed)
    k = cfg.embed_dim
    n = graphs[0].shape[1]
    embeddings = [
        zscore_normalize_columns(rng.standard_normal((k, n))) for _ in graphs
    ]
    projections = [rng.standard_normal((k, g.shape[0])) for g in graphs]
    consensus = update_consensus(embeddings)
    lowfreq = lowfreq_truncate(stack_views(embeddings), cfg.low_freq)
    return SolverState(projections, embeddings, consensus, lowfreq, 0, [])


def test_objective_zero_at_perfect_fit():
    rng = np.random.default_rng(16)
    phi = np.eye(6)
    b = zscore_normalize_columns(rng.standard_normal((3, 6)))
    state = SolverState(
        projections=[b],
        embeddings=[b],
        consensus=b,
        lowfreq_tensor=stack_views([b]),
        iterations=0,
        objective_trace=[],
    )
    cfg = SolverConfig(embed_dim=3, lam=0.0, beta=0.0, low_freq=3)
    assert objective_value(state, [phi], cfg) == pytest.approx(0.0, abs=1e-20)


def test_objective_linear_in_beta():
    graphs = random_graphs(2, 5, 12, seed=17)
    cfg1 = SolverConfig(embed_dim=3, lam=0.3, beta=1.0, low_freq=4)
    cfg2 = SolverConfig(embed_dim=3, lam=0.3, beta=2.0, low_freq=4)
    state = make_state(graphs, cfg1, seed=18)
    consensus_term = sum(
        0.5 * float(np.sum((state.consensus - b) ** 2)) for b in state.embeddings
    )
    diff = objective_value(state, graphs, cfg2) - objective_value(state, graphs, cfg1)
    assert diff == pytest.approx(consensus_term, rel=1e-12)


def test_objective_matches_term_by_term_oracle():
    graphs = random_graphs(3, 4, 10, seed=19)
    cfg = SolverConfig(embed_dim=3, lam=0.7, beta=0.4, low_freq=3)
    state = make_state(graphs, cfg, seed=20)
    expected = 0.0
    for u, b, phi in zip(state.projections, state.embeddings, graphs):
        expected += 0.5 * cfg.lam * np.linalg.norm(u, "fro") ** 2
        expected += 0.5 * np.linalg.norm(b - u @ phi, "fro") ** 2
        expected += 0.5 * cfg.beta * np.linalg.norm(state.consensus - b, "fro") ** 2
    expected += 0.5 * np.linalg.norm(stack_views(state.embeddings) - state.lowfreq_tensor) ** 2
    got = objective_value(state, graphs, cfg)
    assert got == pytest.approx(expected, rel=1e-10)


# ---------------------------------------------------------------------------
# per-step descent


def test_each_update_does_not_increase_objective():
    graphs = random_graphs(3, 6, 14, seed=21)
    cfg = SolverConfig(embed_dim=4, lam=0.2, beta=0.5, low_freq=4)
    state = run(graphs, cfg)
    base = objective_value(state, graphs, cfg)

    # projection refresh is the exact ridge minimizer
    proj = [update_projection(b, g, cfg.lam) for b, g in zip(state.embeddings, graphs)]
    after_proj = SolverState(
        proj, state.embeddings, state.consensus, state.lowfreq_tensor, 0, []
    )
    assert objective_value(after_proj, graphs, cfg) <= base + 1e-9 * base

    # unconstrained embedding minimizer (before re-normalization)
    raw = [
        (cfg.beta * state.consensus + state.lowfreq_tensor[:, v, :] + u @ g)
        / (cfg.beta + 2.0)
        for v, (u, g) in enumerate(zip(state.projections, graphs))
    ]
    after_raw = SolverState(
        state.projections, raw, state.consensus, state.lowfreq_tensor, 0, []
    )
    assert objective_value(after_raw, graphs, cfg) <= base + 1e-9 * base

    # unconstrained consensus minimizer
    mean = sum(state.embeddings) / len(state.embeddings)
    after_mean = SolverState(
        state.projections, state.embeddings, mean, state.lowfreq_tensor, 0, []
    )
    assert objective_value(after_mean, graphs, cfg) <= base + 1e-9 * base

    # smoothing refresh is the exact feasible minimizer of the coupling
    stacked = stack_views(state.embeddings)
    refreshed = lowfreq_truncate(stacked, cfg.low_freq)
    rng = np.random.default_rng(22)
    gap = np.linalg.norm(stacked - refreshed)
    for _ in range(5):
        member = lowfreq_truncate(
            stack_views([rng.standard_normal(b.shape) for b in state.embeddings]),
            cfg.low_freq,
        )
        assert gap <= np.linalg.norm(stacked - member) + 1e-10


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
        for b in state.embeddings[1:]:
            np.testing.assert_allclose(b, state.embeddings[0], atol=1e-10)
        np.testing.assert_allclose(state.consensus, state.embeddings[0], atol=1e-10)


def test_run_snapshots_keep_their_own_arrays():
    # each iteration writes into fresh arrays, so a kept snapshot never
    # changes under later iterations
    graphs = random_graphs(3, 6, 16, seed=34)

    def arrays(state):
        return [*state.projections, *state.embeddings, state.consensus, state.lowfreq_tensor]

    for smooth in (True, False):
        kept = []
        run(graphs, SolverConfig(embed_dim=4, low_freq=4, smooth_embeddings=smooth),
            callback=lambda s: kept.append((s, [a.copy() for a in arrays(s)])))
        assert [s.iterations for s, _ in kept] == list(range(1, 8))
        for state, copies in kept:
            for a, c in zip(arrays(state), copies, strict=True):
                np.testing.assert_array_equal(a, c)


def test_run_deterministic_under_seed():
    graphs = random_graphs(2, 6, 13, seed=25)
    cfg = SolverConfig(embed_dim=4, seed=77, low_freq=4)
    a = run(graphs, cfg)
    b = run(graphs, cfg)
    assert a.objective_trace == b.objective_trace
    np.testing.assert_array_equal(a.consensus, b.consensus)
    for x, y in zip(a.embeddings, b.embeddings):
        np.testing.assert_array_equal(x, y)
    np.testing.assert_array_equal(a.lowfreq_tensor, b.lowfreq_tensor)


def test_run_constraint_and_feasibility_invariants_each_iteration():
    graphs = random_graphs(3, 8, 20, seed=26)
    cfg = SolverConfig(embed_dim=5, lam=0.3, beta=0.7, low_freq=5, seed=1)
    kept = set(kept_slice_indices(20, cfg.low_freq).tolist())

    def check(state):
        for b in state.embeddings:
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
    with pytest.raises(InvalidLowFrequencyParameter):
        run(graphs, SolverConfig(embed_dim=3, low_freq=8))
    with pytest.raises(EmbedDimTooSmall):
        run(graphs, SolverConfig(embed_dim=1, low_freq=3))
    with pytest.raises(ValidationError):
        run(graphs, SolverConfig(embed_dim=6, low_freq=3))  # K > M
    with pytest.raises(ShapeMismatch):
        run([], SolverConfig(embed_dim=3, low_freq=2))


def test_run_smoothing_disabled_passes_tensor_through():
    graphs = random_graphs(2, 6, 10, seed=30)
    cfg = SolverConfig(embed_dim=3, low_freq=3, smooth_embeddings=False, seed=5)
    state = run(graphs, cfg)
    np.testing.assert_array_equal(state.lowfreq_tensor, stack_views(state.embeddings))


def test_run_holds_few_embedding_tensors_beyond_its_graphs():
    # Live K x V x N data: the embeddings, the low-frequency tensor and the
    # consensus; the truncation briefly adds the stack, its spectrum and
    # the transform's output.  Last iteration's arrays must not stay alive.
    k, n_views, n = 4, 3, 20_000
    graphs = random_graphs(n_views, 40, n, seed=31)
    tracemalloc.start()
    try:
        run(graphs, SolverConfig(embed_dim=k, low_freq=8, max_iters=4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    tensor_bytes = k * n_views * n * 8
    assert peak < 5 * tensor_bytes, f"{peak / tensor_bytes:.2f} K x V x N tensors"


def assert_states_identical(got, want):
    assert got.iterations == want.iterations
    assert got.objective_trace == want.objective_trace
    np.testing.assert_array_equal(got.consensus, want.consensus)
    np.testing.assert_array_equal(got.lowfreq_tensor, want.lowfreq_tensor)
    for name in ("embeddings", "projections"):
        mats, expected = getattr(got, name), getattr(want, name)
        assert len(mats) == len(expected)
        for a, b in zip(mats, expected):
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
        (3, 57, {"smooth_embeddings": False}),
        (2, 40, {"beta": 0.0}),
        (3, 40, {"early_stop_tol": 1e-3, "max_iters": 30}),
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
    got = run(graphs, cfg, callback=lambda s: first.append(s.embeddings[0][:, 7].copy()))
    template = zscore_normalize_columns(np.zeros((4, 1)))[:, 0]
    np.testing.assert_array_equal(first[0], template)
    assert_states_identical(got, solver_run_reference(graphs, cfg))
