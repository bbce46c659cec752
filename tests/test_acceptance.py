"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS lines as
they complete; a pytest failure on any test is the corresponding FAIL.
"""

import json
import time
import tracemalloc

import numpy as np
import pytest

from mvtc import (
    PipelineConfig,
    SolverConfig,
    generate_synthetic,
    run_pipeline,
)
from mvtc.cli import main as cli_main
from mvtc.clustering import kmeans_fit
from mvtc.metrics import accuracy, ari, pairwise_prf
from mvtc.pipeline import _thread_cap
from mvtc.solver import (
    ridge_system,
    run as solver_run,
    update_consensus,
    update_embedding,
    update_projection,
    zscore_normalize_columns,
)
from mvtc.tensor_ops import (
    fft_mode3,
    ifft_mode3,
    lowfreq_truncate,
    t_product,
    t_svd,
    t_transpose,
)

from oracles import (
    accuracy_by_permutation,
    block_circulant_product,
    exhaustive_kmeans_optimum,
    pairwise_confusion,
)


def announce(num, label):
    print(f"\nACCEPTANCE {num:02d} {label}: PASS")


def blob_benchmark(noise, seed=7):
    return generate_synthetic(
        n_samples=500, n_clusters=5, n_views=3, dims=[20, 30, 25], noise=noise, seed=seed
    )


def test_criterion_01_tensor_algebra_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    for _ in range(50):
        shape = tuple(int(rng.integers(1, 21)) for _ in range(3))
        x = rng.standard_normal(shape)
        u, s, v = t_svd(x)
        rec = t_product(t_product(u, s), t_transpose(v))
        rel = np.linalg.norm(rec - x) / np.linalg.norm(x)
        assert rel <= 1e-10
        back = ifft_mode3(fft_mode3(x))
        assert np.linalg.norm(back - x) / np.linalg.norm(x) <= 1e-12
    for _ in range(10):
        i1, i2, j, depth = (int(rng.integers(1, 7)) for _ in range(4))
        a = rng.standard_normal((i1, i2, depth))
        b = rng.standard_normal((i2, j, depth))
        expected = block_circulant_product(a, b)
        assert np.abs(t_product(a, b) - expected).max() <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    announce(1, "tensor algebra suite")


def test_criterion_02_lowfreq_projection_laws():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    for _ in range(100):
        shape = (int(rng.integers(1, 7)), int(rng.integers(1, 6)), int(rng.integers(2, 17)))
        depth = shape[2]
        keep = int(rng.integers(1, depth // 2 + 2))
        b = rng.standard_normal(shape)
        once = lowfreq_truncate(b, keep)
        assert np.abs(lowfreq_truncate(once, keep) - once).max() <= 1e-10
        assert np.linalg.norm(once) <= np.linalg.norm(b) + 1e-10
        c = rng.standard_normal(shape)
        lin = lowfreq_truncate(1.5 * b - 2.0 * c, keep)
        assert np.abs(lin - (1.5 * once - 2.0 * lowfreq_truncate(c, keep))).max() <= 1e-10
        member = lowfreq_truncate(rng.standard_normal(shape), keep)
        assert np.linalg.norm(b - once) <= np.linalg.norm(b - member) + 1e-10
        mean_slice = b.mean(axis=2)
        dc = lowfreq_truncate(b, 1)
        assert np.abs(dc - mean_slice[:, :, None]).max() <= 1e-10
        if depth % 2 == 1:
            assert np.abs(lowfreq_truncate(b, (depth + 1) // 2) - b).max() <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    announce(2, "low-frequency projection laws")


def test_criterion_03_closed_form_updates():
    rng = np.random.default_rng(303)
    # ridge residual
    for _ in range(10):
        k, m, n = 4, 12, 30
        b = rng.standard_normal((k, n))
        phi = rng.random((m, n))
        lam = float(rng.uniform(0.0, 2.0))
        u = update_projection(b, phi, ridge_system(phi, lam))
        system = phi @ phi.T + lam * np.eye(m)
        rhs = b @ phi.T
        assert np.linalg.norm(u @ system - rhs) / np.linalg.norm(rhs) <= 1e-8
    # two-step oracles
    for _ in range(10):
        u = rng.standard_normal((5, 6))
        phi = rng.random((6, 9))
        consensus = rng.standard_normal((5, 9))
        y = rng.standard_normal((5, 9))
        beta = float(rng.uniform(0.0, 3.0))
        raw = (beta * consensus + y + u @ phi) / (beta + 2.0)
        expected = np.column_stack(
            [(raw[:, j] - raw[:, j].mean()) / raw[:, j].std(ddof=1) for j in range(9)]
        )
        assert np.abs(update_embedding(u, phi, consensus, y, beta) - expected).max() <= 1e-10
        mats = [rng.standard_normal((5, 9)) for _ in range(3)]
        mean = sum(mats) / 3.0
        expected = np.column_stack(
            [(mean[:, j] - mean[:, j].mean()) / mean[:, j].std(ddof=1) for j in range(9)]
        )
        assert np.abs(update_consensus(mats) - expected).max() <= 1e-10
    # column constraints hold after every update of a full run
    graphs = [1.0 - rng.random((20, 60)) for _ in range(3)]
    checked = []

    def check(state):
        views = [state.embeddings[:, v, :] for v in range(state.embeddings.shape[1])]
        for mat in views + [state.consensus]:
            assert np.abs(mat.mean(axis=0)).max() <= 1e-10
            assert np.abs(mat.std(axis=0, ddof=1) - 1.0).max() <= 1e-10
        checked.append(state.iterations)

    solver_run(graphs, SolverConfig(embed_dim=5, low_freq=8, seed=0), callback=check)
    assert checked == list(range(1, 8))
    announce(3, "closed-form updates")


def test_criterion_04_objective_trace():
    start = time.perf_counter()
    for seed in range(20):
        rng = np.random.default_rng(seed)
        graphs = [1.0 - rng.random((30, 200)) for _ in range(3)]
        state = solver_run(graphs, SolverConfig(embed_dim=5, seed=seed))
        trace = state.objective_trace
        assert state.iterations == 7
        assert len(trace) == 7
        slack = 1e-6 * trace[0]
        assert all(trace[i] <= trace[i - 1] + slack for i in range(1, 7))
    report = run_pipeline(blob_benchmark(0.1), PipelineConfig(n_anchors=100, embed_dim=5))
    trace = report.objective_trace
    assert report.iterations == 7
    slack = 1e-6 * trace[0]
    assert all(trace[i] <= trace[i - 1] + slack for i in range(1, 7))
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    announce(4, "objective trace monotone over the full schedule")


def test_criterion_05_synthetic_end_to_end():
    start = time.perf_counter()
    config = PipelineConfig(n_anchors=100, embed_dim=5)
    noisy = run_pipeline(blob_benchmark(0.1), config)
    assert noisy.metrics["acc"] >= 0.90
    assert noisy.metrics["ari"] >= 0.85
    clean = run_pipeline(blob_benchmark(0.0), config)
    assert clean.metrics["acc"] == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0
    announce(5, "synthetic end-to-end clustering")


def test_criterion_06_metric_oracles():
    rng = np.random.default_rng(606)
    for _ in range(200):
        n = int(rng.integers(4, 40))
        pred = rng.integers(0, int(rng.integers(2, 7)), size=n)
        truth = rng.integers(0, int(rng.integers(2, 7)), size=n)
        assert accuracy(pred, truth) == pytest.approx(
            accuracy_by_permutation(pred, truth), abs=1e-12
        )
    for _ in range(30):
        n = int(rng.integers(2, 51))
        pred = rng.integers(0, 5, size=n)
        truth = rng.integers(0, 4, size=n)
        tp, fp, fn, _ = pairwise_confusion(pred, truth)
        precision, recall, f_score = pairwise_prf(pred, truth)
        assert precision == pytest.approx(tp / (tp + fp) if tp + fp else 0.0, abs=1e-15)
        assert recall == pytest.approx(tp / (tp + fn) if tp + fn else 0.0, abs=1e-15)
        both = precision + recall
        assert f_score == pytest.approx(
            2 * precision * recall / both if both else 0.0, abs=1e-15
        )
    trials = [
        ari(rng.integers(0, 4, 100), rng.integers(0, 4, 100)) for _ in range(1000)
    ]
    assert -0.02 <= float(np.mean(trials)) <= 0.02
    assert ari([0, 1, 0, 1], [0, 0, 1, 1]) == -0.5
    assert pairwise_prf([0, 0, 0, 1], [0, 0, 1, 1]) == (1 / 3, 1 / 2, 2 / 5)
    announce(6, "metric oracles")


def test_criterion_07_kmeans_toy_optimality():
    group_centers = np.array([[0.0, 5.0, 10.0], [0.0, 6.0, 0.0]])
    for instance_seed in (0, 1, 2):
        rng = np.random.default_rng(instance_seed)
        x = group_centers[:, np.arange(9) % 3] + 0.8 * rng.standard_normal((2, 9))
        optimum = exhaustive_kmeans_optimum(x, 3)
        hits = 0
        for seed in range(10):
            model = kmeans_fit(x, 3, seed=seed)
            trace = model.inertia_trace
            assert all(trace[i] <= trace[i - 1] + 1e-12 for i in range(1, len(trace)))
            hits += model.inertia <= optimum + 1e-9
        assert hits >= 8
    announce(7, "k-means toy-scale optimality")


def solver_doubling_ratio():
    """Per-iteration solver time at N = 20,000 over that at N = 10,000.

    Anchor graphs are synthesized directly (entries in (0, 1]), so the
    measurement isolates the solver: 3 views of 200 anchors each, drawn from
    one seed-0 generator per sample count, a 10-dimensional embedding and 3
    iterations with :class:`SolverConfig`'s default ``lam``, ``beta`` and
    ``low_freq``.  Each count takes the best of 3 solves, after one discarded
    warm-up solve (BLAS pools, allocator and CPU clocks need a run to
    settle).  The solves run on one BLAS thread: a threaded pool adds a
    per-call cost that does not grow with N and varies on a busy host.
    """
    cfg = SolverConfig(embed_dim=10, max_iters=3, seed=0)

    def make_graphs(n):
        rng = np.random.default_rng(0)
        return [1.0 - rng.random((200, n)) for _ in range(3)]

    def per_iteration_s(graphs):
        t0 = time.perf_counter()
        state = solver_run(graphs, cfg)
        return (time.perf_counter() - t0) / state.iterations

    with _thread_cap(1):
        graph_sets = [make_graphs(10_000), make_graphs(20_000)]
        per_iteration_s(graph_sets[0])  # warm-up, discarded
        best = [float("inf")] * len(graph_sets)
        # repeats outermost, so a drift in host speed reaches both counts alike
        for _ in range(3):
            for i, graphs in enumerate(graph_sets):
                best[i] = min(best[i], per_iteration_s(graphs))
    return best[1] / best[0]


def test_criterion_08_linear_scaling_and_allocation_audit():
    start = time.perf_counter()
    ratio = solver_doubling_ratio()
    assert 1.6 <= ratio <= 2.6, f"per-iteration time ratio {ratio:.2f}"
    # allocation audit: nothing close to an N x N buffer may ever exist
    n = 1500
    dataset = generate_synthetic(n, 3, 2, [6, 7], noise=0.1, seed=1)
    config = PipelineConfig(n_anchors=40, embed_dim=4, low_freq=10)
    tracemalloc.start()
    tracemalloc.reset_peak()
    run_pipeline(dataset, config)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    square_bytes = n * n * 8
    assert peak < square_bytes / 2, f"peak {peak} vs N^2 matrix {square_bytes}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    announce(8, "linear scaling and allocation audit")


def test_criterion_09_deterministic_reports():
    dataset = generate_synthetic(200, 4, 2, [10, 12], noise=0.1, seed=3)
    config = PipelineConfig(n_anchors=50, embed_dim=4, seed=11)
    first = run_pipeline(dataset, config).to_dict()
    second = run_pipeline(dataset, config).to_dict()
    first.pop("timings")
    second.pop("timings")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    announce(9, "deterministic reports")


def test_criterion_10_ablation_hooks(tmp_path, capsys):
    base = [
        "run",
        "--synthetic", "n=500,c=5,v=3,dims=20:30:25,noise=0.1,seed=7",
        "--anchors", "100",
        "--clusters", "5",
        "--embed-dim", "5",
        "--seed", "0",
    ]
    reports = {}
    for name, extra in (("full", []), ("no_isc", ["--no-isc"]), ("no_igs", ["--no-igs"])):
        out = tmp_path / f"{name}.json"
        code = cli_main(base + extra + ["--out", str(out)])
        capsys.readouterr()
        assert code == 0
        reports[name] = json.loads(out.read_text())
    assert reports["no_isc"]["config"]["beta"] == 0.0
    assert reports["no_igs"]["config"]["no_igs"] is True
    assert reports["no_igs"]["metrics"]["acc"] <= reports["full"]["metrics"]["acc"]
    announce(10, "ablation hooks")
