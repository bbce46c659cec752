import tracemalloc

import numpy as np
import pytest

from mvtc import clustering
from mvtc.clustering import assign_labels, kmeans_fit
from mvtc.errors import TooManyClusters

from oracles import exhaustive_kmeans_optimum, kmeans_fit_reference


def test_single_cluster_center_is_mean():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 12))
    model = kmeans_fit(x, 1, seed=0)
    np.testing.assert_allclose(model.centers[:, 0], x.mean(axis=1), rtol=1e-12)
    expected_inertia = float(np.sum((x - x.mean(axis=1, keepdims=True)) ** 2))
    assert model.inertia == pytest.approx(expected_inertia, rel=1e-12)


def test_one_cluster_per_point_zero_inertia():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((2, 6))
    model = kmeans_fit(x, 6, seed=3)
    assert model.inertia == pytest.approx(0.0, abs=1e-18)
    assert sorted(model.labels.tolist()) == list(range(6))


def test_two_well_separated_pairs():
    x = np.array([[0.0, 0.0, 10.0, 10.0], [0.0, 1.0, 0.0, 1.0]])
    model = kmeans_fit(x, 2, seed=0)
    assert model.labels[0] == model.labels[1]
    assert model.labels[2] == model.labels[3]
    assert model.labels[0] != model.labels[2]
    got_centers = sorted(model.centers.T.tolist())
    assert got_centers == [[0.0, 0.5], [10.0, 0.5]]
    assert model.inertia == pytest.approx(1.0, rel=1e-12)
    # optimal among all 2^4 assignments
    assert model.inertia <= exhaustive_kmeans_optimum(x, 2) + 1e-9


def test_indicator_structure_is_exact():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((4, 30))
    model = kmeans_fit(x, 5, seed=1)
    # one label in 0..4 per point, and every cluster stays populated
    assert model.labels.shape == (30,)
    counts = np.bincount(model.labels, minlength=5)
    assert counts.size == 5 and counts.min() >= 1
    # reported inertia equals the residual against each point's center
    residual = x - model.centers[:, model.labels]
    assert model.inertia == pytest.approx(float(np.sum(residual * residual)), rel=1e-10)


def test_inertia_trace_non_increasing():
    rng = np.random.default_rng(3)
    for seed in range(10):
        x = rng.standard_normal((3, 40))
        trace = kmeans_fit(x, 4, seed=seed).inertia_trace
        assert all(trace[i] <= trace[i - 1] + 1e-12 for i in range(1, len(trace)))


def test_assignment_ties_break_to_lowest_cluster_index():
    centers = np.array([[0.0, 2.0], [0.0, 0.0]])  # point at x=1 is equidistant
    labels = assign_labels(np.array([[1.0], [0.0]]), centers)
    assert labels[0] == 0


def test_point_on_center_goes_to_that_center():
    centers = np.array([[0.0, 5.0, 9.0], [0.0, 5.0, 9.0]])
    labels = assign_labels(np.array([[5.0], [5.0]]), centers)
    assert labels[0] == 1


def test_assignment_matches_bruteforce_scan():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((3, 25))
    centers = rng.standard_normal((3, 4))
    got = assign_labels(x, centers)
    for n in range(25):
        dists = [np.sum((x[:, n] - centers[:, c]) ** 2) for c in range(4)]
        assert got[n] == int(np.argmin(dists))


def grouped_points(seed, n=9):
    group_centers = np.array([[0.0, 5.0, 10.0], [0.0, 6.0, 0.0]])
    jitter = 0.8 * np.random.default_rng(seed).standard_normal((2, n))
    return group_centers[:, np.arange(n) % 3] + jitter


@pytest.mark.parametrize("instance_seed", [0, 3, 5])
def test_toy_scale_matches_exhaustive_optimum_most_seeds(instance_seed):
    x = grouped_points(instance_seed)
    optimum = exhaustive_kmeans_optimum(x, 3)
    hits = sum(
        kmeans_fit(x, 3, seed=seed).inertia <= optimum + 1e-9 for seed in range(10)
    )
    assert hits >= 8  # local optima allowed on the remainder


def test_deterministic_under_seed():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 50))
    a = kmeans_fit(x, 4, seed=9)
    b = kmeans_fit(x, 4, seed=9)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.centers, b.centers)
    assert a.inertia == b.inertia


def test_cluster_count_validation():
    x = np.zeros((2, 4))
    with pytest.raises(TooManyClusters):
        kmeans_fit(x, 5, seed=0)
    with pytest.raises(TooManyClusters):
        kmeans_fit(x, 0, seed=0)


DUPLICATES = np.array([[0.0, 0.0, 0.0, 5.0, 5.0, 9.0], [0.0, 0.0, 0.0, 5.0, 5.0, 9.0]])


def test_duplicate_points_keep_all_clusters_alive():
    # more clusters than distinct locations exercises the reseeding path
    model = kmeans_fit(DUPLICATES, 3, seed=0)
    counts = np.bincount(model.labels, minlength=3)
    assert counts.size == 3 and counts.min() >= 1
    assert model.inertia == pytest.approx(0.0, abs=1e-18)


def blobs(k, n, c, seed):
    """n points in k dims around c Gaussian centers, as a k x n matrix."""
    rng = np.random.default_rng(seed)
    centers = 3.0 * rng.standard_normal((k, c))
    return centers[:, rng.integers(c, size=n)] + rng.standard_normal((k, n))


@pytest.mark.parametrize(
    "x, n_clusters, seed",
    [
        (blobs(40, 3000, 40, seed=0), 40, 1),
        (blobs(10, 20000, 10, seed=1), 10, 2),
        (DUPLICATES, 3, 0),  # more clusters than distinct points: the reseed path
        (blobs(3, 200, 4, seed=2), 1, 3),
        (blobs(3, 12, 4, seed=3), 12, 4),
    ],
    ids=["K=C=40", "K=C=10", "duplicates", "C=1", "C=N"],
)
def test_matches_frozen_reference_loop(x, n_clusters, seed):
    got = kmeans_fit(x, n_clusters, seed=seed)
    want = kmeans_fit_reference(x, n_clusters, seed=seed)
    np.testing.assert_array_equal(got.labels, want.labels)
    assert got.n_iter == want.n_iter
    np.testing.assert_allclose(got.centers, want.centers, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.inertia_trace, want.inertia_trace, rtol=1e-12, atol=0)


@pytest.mark.parametrize("k, n", [(10, 20000), (40, 3000)])
def test_peak_memory_below_two_and_a_half_point_matrices(k, n):
    x = blobs(k, n, k, seed=5)
    tracemalloc.start()
    try:
        kmeans_fit(x, k, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one K x N scratch buffer (the means and the inertia) and one N x C
    # assignment table, at K = C
    assert peak < 2.5 * k * n * 8


def test_assign_labels_called_once_per_iteration_plus_one(monkeypatch):
    calls = []

    def counted(points, centers):
        calls.append(1)
        return assign_labels(points, centers)

    # kmeans_fit looks the name up in the module, as the benchmark's hook does
    monkeypatch.setattr(clustering, "assign_labels", counted)
    for seed in range(3):
        calls.clear()
        model = kmeans_fit(blobs(4, 500, 5, seed=seed), 5, seed=seed)
        assert len(calls) == model.n_iter + 1
