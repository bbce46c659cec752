import time
import tracemalloc
import warnings

import numpy as np
import pytest

from mvtc.anchors import (
    GRAPH_TILE,
    build_anchor_graph,
    build_all_graphs,
    estimate_kernel_width,
    select_anchors,
)
from mvtc.data import MultiViewDataset, generate_synthetic
from mvtc.errors import DegenerateView, DimensionMismatch, TooManyAnchors, ValidationError
from mvtc.pipeline import PipelineConfig, _thread_cap, run_pipeline

from oracles import anchor_graph_unblocked


def two_view_data(n=10, seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((4, n)), rng.standard_normal((6, n))]


# ---------------------------------------------------------------------------
# anchor selection


def test_selecting_all_samples_is_a_permutation():
    views = two_view_data(n=7)
    aset = select_anchors(views, 7, seed=1)
    assert sorted(aset.indices.tolist()) == list(range(7))
    for view, anchors in zip(views, aset.anchors_per_view):
        np.testing.assert_array_equal(anchors, view[:, aset.indices])


def test_selection_deterministic_under_seed():
    views = two_view_data()
    a = select_anchors(views, 4, seed=42)
    b = select_anchors(views, 4, seed=42)
    np.testing.assert_array_equal(a.indices, b.indices)
    assert a.sigma_per_view == b.sigma_per_view
    c = select_anchors(views, 4, seed=43)
    assert not np.array_equal(a.indices, c.indices)


def test_selection_matches_documented_sampler_procedure():
    views = two_view_data(n=10, seed=5)
    got = select_anchors(views, 3, seed=42).indices
    # independent re-run of the documented draw, over the columns as given
    expected = np.random.default_rng(42).choice(10, size=3, replace=False)
    np.testing.assert_array_equal(got, expected)


def test_pipeline_results_independent_of_sample_order():
    # the pipeline puts the samples in norm order before the anchors are
    # drawn, so a permuted input gives the permuted labels and the same run
    dataset = generate_synthetic(500, 5, 3, [20, 30, 25], noise=0.1, seed=7)
    perm = np.random.default_rng(1).permutation(dataset.n_samples)
    permuted = MultiViewDataset(
        views=[v[:, perm] for v in dataset.views], labels=dataset.labels[perm], n_clusters=5
    )
    config = PipelineConfig(n_anchors=100, embed_dim=5)
    original, relocated = run_pipeline(dataset, config), run_pipeline(permuted, config)
    assert relocated.labels_pred == np.asarray(original.labels_pred)[perm].tolist()
    assert relocated.objective_trace == original.objective_trace
    assert relocated.config == original.config  # kernel widths included
    assert relocated.metrics == original.metrics


def test_too_many_anchors():
    with pytest.raises(TooManyAnchors):
        select_anchors(two_view_data(n=5), 6, seed=0)
    with pytest.raises(TooManyAnchors):
        select_anchors(two_view_data(n=5), 0, seed=0)


def test_views_must_share_sample_count():
    rng = np.random.default_rng(0)
    with pytest.raises(DimensionMismatch):
        select_anchors([rng.standard_normal((3, 5)), rng.standard_normal((3, 6))], 2, 0)


@pytest.mark.parametrize("widths", [[1.0], [1.0, 2.0, 3.0]])
def test_one_kernel_width_per_view(widths):
    with pytest.raises(ValidationError, match=f"got {len(widths)} kernel widths for 2 views"):
        select_anchors(two_view_data(), 3, seed=0, kernel_width=widths)


# ---------------------------------------------------------------------------
# kernel width


def test_width_needs_an_anchor():
    with pytest.raises(ValidationError, match="need at least one anchor"):
        estimate_kernel_width(np.ones((2, 4)), np.ones((2, 0)))


def test_width_degenerate_when_sample_equals_single_anchor():
    x = np.array([[1.0], [2.0]])
    with pytest.raises(DegenerateView):
        estimate_kernel_width(x, x.copy())


def test_width_two_samples_four_pairs():
    d = 3.0
    view = np.array([[0.0, d]])
    sigma = estimate_kernel_width(view, view.copy())
    assert sigma == pytest.approx(d * d / 2.0, rel=1e-15)


def test_width_matches_exhaustive_mean():
    rng = np.random.default_rng(4)
    view = rng.standard_normal((5, 20))
    anchors = rng.standard_normal((5, 4))
    expected = np.mean(
        [
            ((view[:, n] - anchors[:, m]) ** 2).sum()
            for n in range(20)
            for m in range(4)
        ]
    )
    assert estimate_kernel_width(view, anchors) == pytest.approx(expected, rel=1e-12)


def test_width_subsampled_path_is_seeded():
    rng = np.random.default_rng(7)
    view = rng.standard_normal((2, 600))
    anchors = rng.standard_normal((2, 400))  # 240k pairs > cap
    a = estimate_kernel_width(view, anchors, seed=1)
    b = estimate_kernel_width(view, anchors, seed=1)
    assert a == b
    exhaustive = np.mean(
        (view**2).sum(0)[None, :] + (anchors**2).sum(0)[:, None] - 2 * anchors.T @ view
    )
    assert a == pytest.approx(exhaustive, rel=0.05)  # subsample of the same mean


# ---------------------------------------------------------------------------
# graph construction


def test_graph_entry_is_one_exactly_for_coincident_columns():
    rng = np.random.default_rng(2)
    view = rng.standard_normal((3, 6))
    anchors = view[:, [1, 4]].copy()
    graph = build_anchor_graph(view, anchors, sigma=1.3)
    assert graph[0, 1] == 1.0
    assert graph[1, 4] == 1.0
    coincident = (graph == 1.0).sum()
    assert coincident == 2  # no other column pair coincides
    # noise-free clusters: each anchor coincides with every sample of its cluster
    ds = generate_synthetic(40, 4, 1, [5], noise=0.0, seed=3)
    view = ds.views[0]
    picks = [int(np.argmax(ds.labels == c)) for c in range(4)]
    graph = build_anchor_graph(view, view[:, picks].copy(), sigma=0.7)
    same = ds.labels[picks][:, None] == ds.labels[None, :]
    assert np.all(graph[same] == 1.0)
    assert (graph == 1.0).sum() == same.sum() == 40


def test_graph_unit_ratio_entry():
    view = np.array([[0.0, 2.0]])
    anchors = np.array([[0.0]])
    graph = build_anchor_graph(view, anchors, sigma=4.0)  # distance^2 == sigma
    assert graph[0, 1] == pytest.approx(np.exp(-1.0), rel=1e-15)


def test_graph_matches_elementwise_oracle():
    rng = np.random.default_rng(3)
    view = rng.standard_normal((3, 6))
    anchors = rng.standard_normal((3, 2))
    sigma = 2.0
    graph = build_anchor_graph(view, anchors, sigma)
    for m in range(2):
        for n in range(6):
            d2 = sum((view[d, n] - anchors[d, m]) ** 2 for d in range(3))
            assert graph[m, n] == pytest.approx(np.exp(-d2 / sigma), rel=1e-12)


def test_graph_entries_in_unit_interval():
    rng = np.random.default_rng(6)
    view = rng.standard_normal((4, 30)) * 5
    anchors = view[:, :7].copy()
    graph = build_anchor_graph(view, anchors, sigma=3.0)
    assert np.all(graph > 0.0)
    assert np.all(graph <= 1.0)


def test_graph_scale_invariance():
    rng = np.random.default_rng(8)
    view = rng.standard_normal((3, 12))
    anchors = view[:, [0, 5, 9]].copy()
    sigma = 1.7
    base = build_anchor_graph(view, anchors, sigma)
    c = 3.5
    scaled = build_anchor_graph(c * view, c * anchors, sigma * c * c)
    np.testing.assert_allclose(scaled, base, rtol=1e-12, atol=1e-12)


def test_graph_rejects_nonpositive_width():
    for sigma in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValidationError):
            build_anchor_graph(np.ones((2, 3)), np.ones((2, 1)), sigma=sigma)


def test_graph_rejects_anchors_of_another_feature_count():
    with pytest.raises(DimensionMismatch, match="view has 2 features but anchors have 3"):
        build_anchor_graph(np.ones((2, 3)), np.ones((3, 1)), sigma=1.0)


def test_graph_of_overflowing_view_is_non_finite_quick_and_quiet():
    # squared norms overflow: no entry is recomputed, and no warning is raised
    view = np.random.default_rng(4).standard_normal((16, 5000)) * 1e200
    anchors = view[:, ::10].copy()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t0 = time.perf_counter()
        graph = build_anchor_graph(view, anchors, sigma=1.0)
        elapsed = time.perf_counter() - t0
    assert graph.shape == (500, 5000)
    assert not np.isfinite(graph).all()
    assert elapsed < 2.0


# N below, at and above 2048, with remainders mod 2048 under and over 1024
# and different remainders mod 16; two shapes whose products are small enough
# for the BLAS's small-matrix kernel; and N above GRAPH_TILE, where each tile
# is a single row.
@pytest.mark.parametrize(
    "d, m, n",
    [pytest.param(16, 100, n, id=str(n)) for n in (1027, 2048, 6181, 7644, 2**15 + 37)]
    + [(16, 30, 3100), (5, 20, 10007)],
)
def test_graph_is_byte_equal_to_unblocked(d, m, n):
    # OpenBLAS splits a product differently on one thread than on several
    for threads in (None, 1):
        with _thread_cap(threads):
            assert_graph_is_byte_equal_to_unblocked(d, m, n)


def assert_graph_is_byte_equal_to_unblocked(d, m, n):
    rng = np.random.default_rng(n)
    view = rng.standard_normal((d, n))
    anchors = view[:, rng.choice(n, m, replace=False)].copy()
    np.testing.assert_array_equal(
        build_anchor_graph(view, anchors, 2.5), anchor_graph_unblocked(view, anchors, 2.5)
    )
    # noise-free clusters: a sample equal to an anchor gives an exact 1
    ds = generate_synthetic(n, 4, 1, [d], noise=0.0, seed=n)
    view = ds.views[0]
    picks = rng.choice(n, m, replace=False)
    anchors = view[:, picks].copy()
    graph = build_anchor_graph(view, anchors, 0.9)
    assert graph.tobytes() == anchor_graph_unblocked(view, anchors, 0.9).tobytes()
    assert (graph == 1.0).sum() == (ds.labels[picks][:, None] == ds.labels[None, :]).sum()
    # overflowing norms: non-finite in the same places, and no warning
    view, anchors = view * 1e200, anchors * 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        graph = build_anchor_graph(view, anchors, 1.0)
    assert not np.isfinite(graph).all()
    np.testing.assert_array_equal(graph, anchor_graph_unblocked(view, anchors, 1.0))


def traced_peak(fn):
    """(fn(), the peak of the memory traced while it ran)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_graph_build_holds_under_half_a_block_beyond_its_output():
    # the product goes straight into the output; the elementwise passes use
    # two tile buffers.  The bound is 0.5 * M * 2048 * 8 bytes.
    m, n = 100, 16_684
    view = np.random.default_rng(5).standard_normal((16, n))
    anchors = view[:, :m].copy()
    graph, peak = traced_peak(lambda: build_anchor_graph(view, anchors, 2.0))
    extra = peak - graph.nbytes
    assert extra < 819_200, f"{extra} bytes beyond the graph"


def test_wide_graph_build_holds_under_three_rows_beyond_its_output():
    # a row is longer than GRAPH_TILE, so each tile is one row
    m, n = 100, 2**16 + 37
    assert n > GRAPH_TILE
    view = np.random.default_rng(7).standard_normal((16, n))
    anchors = view[:, :m].copy()
    graph, peak = traced_peak(lambda: build_anchor_graph(view, anchors, 2.0))
    extra = peak - graph.nbytes
    assert extra < 3 * n * 8, f"{extra / (n * 8):.2f} rows beyond the graph"


def test_width_estimate_holds_less_than_one_view():
    # the sampled pairs are gathered a chunk at a time
    rng = np.random.default_rng(6)
    view = rng.standard_normal((96, 20_000))
    anchors = view[:, rng.choice(20_000, 1000, replace=False)].copy()
    _, peak = traced_peak(lambda: estimate_kernel_width(view, anchors, seed=1))
    assert peak < view.nbytes, f"{peak / 1e6:.1f} MB for a {view.nbytes / 1e6:.1f} MB view"


def test_cross_view_anchor_alignment():
    views = two_view_data(n=15, seed=9)
    aset = select_anchors(views, 5, seed=0)
    graphs = build_all_graphs(views, aset)
    for v, (view, graph) in enumerate(zip(views, graphs)):
        assert graph.shape == (5, 15)
        # anchor m coincides with sample indices[m] in every view
        for m, idx in enumerate(aset.indices):
            assert graph[m, idx] == 1.0
