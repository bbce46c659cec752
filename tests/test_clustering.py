import numpy as np
import pytest

from mvtc.clustering import assign_labels, kmeans_fit
from mvtc.errors import TooManyClusters

from oracles import exhaustive_kmeans_optimum


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


def test_duplicate_points_keep_all_clusters_alive():
    # more clusters than distinct locations exercises the reseeding path
    x = np.array([[0.0, 0.0, 0.0, 5.0, 5.0, 9.0], [0.0, 0.0, 0.0, 5.0, 5.0, 9.0]])
    model = kmeans_fit(x, 3, seed=0)
    counts = np.bincount(model.labels, minlength=3)
    assert counts.size == 3 and counts.min() >= 1
    assert model.inertia == pytest.approx(0.0, abs=1e-18)
