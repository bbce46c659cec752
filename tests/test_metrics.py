import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mvtc
from mvtc import metrics
from mvtc.errors import DimensionMismatch, ValidationError
from mvtc.metrics import (
    ContingencyTable,
    accuracy,
    ari,
    clustering_scores,
    contingency_table,
    nmi,
    pairwise_prf,
    purity,
)

from oracles import accuracy_by_permutation, pairwise_confusion

label_arrays = st.integers(2, 30).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
    )
)


def test_contingency_counts():
    t = contingency_table([0, 0, 1, 1, 2], [1, 1, 0, 1, 1])
    assert t.n == 5
    np.testing.assert_array_equal(t.counts, [[0, 2], [1, 1], [0, 1]])
    np.testing.assert_array_equal(t.row_sums, [2, 2, 1])
    np.testing.assert_array_equal(t.col_sums, [1, 4])


def test_length_and_empty_validation():
    with pytest.raises(DimensionMismatch, match="2 predictions vs 3 truths"):
        accuracy([0, 1], [0, 1, 2])
    with pytest.raises(ValidationError, match="no samples"):
        accuracy([], [])
    with pytest.raises(ValidationError, match="pair counting needs at least 2 samples"):
        pairwise_prf([0], [0])
    with pytest.raises(ValidationError, match="pair counting needs at least 2 samples"):
        ari([1], [1])


# ---------------------------------------------------------------------------
# accuracy


def test_accuracy_identical():
    assert accuracy([0, 0, 1, 1], [0, 0, 1, 1]) == 1.0


def test_accuracy_pure_relabeling():
    assert accuracy([1, 1, 0, 0], [0, 0, 1, 1]) == 1.0


def test_accuracy_three_class_permutation_oracle():
    truth = [0, 0, 1, 1, 2, 2]
    pred = [0, 1, 1, 2, 2, 0]
    assert accuracy(pred, truth) == accuracy_by_permutation(pred, truth)


def test_accuracy_rectangular_tables():
    # more predicted clusters than classes and vice versa
    pred = [0, 1, 2, 3, 0, 1]
    truth = [0, 0, 1, 1, 1, 0]
    assert accuracy(pred, truth) == accuracy_by_permutation(pred, truth)
    assert accuracy(truth, pred) == accuracy_by_permutation(truth, pred)


def test_accuracy_matches_bruteforce_on_random_instances():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(4, 40))
        pred = rng.integers(0, 6, size=n)
        truth = rng.integers(0, 6, size=n)
        assert accuracy(pred, truth) == pytest.approx(
            accuracy_by_permutation(pred, truth), abs=1e-12
        )


def table_accuracy(counts):
    counts = np.asarray(counts)
    return metrics._accuracy(
        ContingencyTable(counts, int(counts.sum()), counts.sum(axis=1), counts.sum(axis=0))
    )


def best_injective_match(counts):
    """Largest matched count over every injective map of the smaller side into the larger."""
    counts = np.asarray(counts)
    if counts.shape[0] > counts.shape[1]:
        counts = counts.T
    rows, cols = counts.shape
    return max(
        sum(int(counts[i, j]) for i, j in enumerate(image))
        for image in itertools.permutations(range(cols), rows)
    )


@pytest.mark.parametrize(
    "counts",
    [
        [[7]],
        [[0, 3, 5, 1]],  # 1 x C
        [[2], [0], [9]],  # C x 1
        [[0, 0, 0], [4, 1, 0], [0, 0, 0]],  # all-zero rows and columns
        [[0, 2], [0, 0], [0, 5], [0, 0]],  # only one column has counts
        [[3, 3, 3], [3, 3, 3]],  # every match ties
        [[5, 5, 0], [5, 0, 5], [0, 5, 5]],  # several optimal matchings
        [[1, 0, 0, 0], [0, 0, 0, 1]],
    ],
)
def test_accuracy_equals_best_injective_map_on_tables(counts):
    counts = np.asarray(counts)
    assert table_accuracy(counts) == best_injective_match(counts) / counts.sum()
    assert table_accuracy(counts.T) == best_injective_match(counts) / counts.sum()


def test_accuracy_equals_best_injective_map_on_random_small_tables():
    rng = np.random.default_rng(11)
    for _ in range(200):
        counts = rng.integers(0, 4, size=rng.integers(1, 6, size=2))
        counts[rng.random(counts.shape[0]) < 0.2] = 0
        counts[:, rng.random(counts.shape[1]) < 0.2] = 0
        counts[0, 0] += 1  # at least one sample
        assert table_accuracy(counts) == best_injective_match(counts) / counts.sum()


def test_accuracy_agrees_with_linear_sum_assignment():
    from scipy.optimize import linear_sum_assignment  # the oracle only; mvtc never imports it

    rng = np.random.default_rng(12)
    for _ in range(1000):
        counts = rng.integers(0, rng.choice([2, 50, 10**6]) + 1, size=rng.integers(1, 61, size=2))
        counts[rng.random(counts.shape[0]) < 0.1] = 0
        counts[0, 0] += 1
        rows, cols = linear_sum_assignment(counts, maximize=True)
        assert table_accuracy(counts) == int(counts[rows, cols].sum()) / int(counts.sum())


SRC = str(Path(mvtc.__file__).resolve().parent.parent)
LOADED_SCIPY = (
    "print(' '.join(m for m in sys.modules if m.startswith('scipy.')), file=sys.stderr)"
)


@pytest.mark.parametrize(
    "script",
    [
        "import sys\n"
        "import mvtc\n"
        "data = mvtc.generate_synthetic(90, 3, n_views=2, dims=[5, 6], seed=2)\n"
        "print(mvtc.run_pipeline(data, mvtc.PipelineConfig(n_anchors=30)).metrics)\n"
        + LOADED_SCIPY,
        "import runpy, sys\n"
        "sys.argv = ['mvtc', 'run', '--synthetic', 'n=90,c=3,v=2,dims=5:6,seed=2', '--anchors', '30']\n"
        "try:\n"
        "    runpy.run_module('mvtc', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        + LOADED_SCIPY,
    ],
    ids=["run_pipeline", "python -m mvtc run"],
)
def test_a_labelled_run_never_imports_scipy_optimize(script):
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "acc" in done.stdout  # the run scored its labels
    assert "scipy.optimize" not in done.stderr.split()


# ---------------------------------------------------------------------------
# nmi


def test_nmi_identical_partitions():
    assert nmi([0, 0, 1, 1], [5, 5, 2, 2]) == 1.0


def test_nmi_single_cluster_prediction_is_zero():
    assert nmi([0, 0, 0, 0], [0, 0, 1, 1]) == 0.0
    assert nmi([0, 0, 1, 1], [3, 3, 3, 3]) == 0.0


def test_nmi_both_single_cluster_is_one():
    assert nmi([0, 0, 0], [7, 7, 7]) == 1.0


def test_nmi_independent_partitions_zero():
    # 2x2 table with all counts 1: mutual information is exactly 0
    assert nmi([0, 1, 0, 1], [0, 0, 1, 1]) == pytest.approx(0.0, abs=1e-15)


def test_nmi_hand_computed_value():
    pred = [0, 0, 1, 1, 1, 1]
    truth = [0, 0, 0, 1, 1, 1]
    t = contingency_table(pred, truth)
    n = 6
    info = 0.0
    for i in range(2):
        for j in range(2):
            c = t.counts[i, j]
            if c:
                info += (c / n) * np.log(c * n / (t.row_sums[i] * t.col_sums[j]))
    hp = -sum(r / n * np.log(r / n) for r in t.row_sums)
    ht = -sum(c / n * np.log(c / n) for c in t.col_sums)
    assert nmi(pred, truth) == pytest.approx(info / np.sqrt(hp * ht), rel=1e-12)


# ---------------------------------------------------------------------------
# purity


def test_purity_identical():
    assert purity([0, 1, 1, 2], [4, 5, 5, 6]) == 1.0


def test_purity_single_cluster_balanced_truth():
    assert purity([0] * 8, [0, 0, 1, 1, 2, 2, 3, 3]) == pytest.approx(1 / 4)


def test_purity_matches_row_max_oracle():
    rng = np.random.default_rng(1)
    pred = rng.integers(0, 4, size=20)
    truth = rng.integers(0, 3, size=20)
    total = 0
    for cluster in np.unique(pred):
        members = truth[pred == cluster]
        total += max((members == cls).sum() for cls in np.unique(members))
    assert purity(pred, truth) == pytest.approx(total / 20)


# ---------------------------------------------------------------------------
# pairwise precision / recall / F


def test_prf_identical_partitions():
    assert pairwise_prf([0, 0, 1], [2, 2, 0]) == (1.0, 1.0, 1.0)


def test_prf_all_singletons_conventions():
    precision, recall, f_score = pairwise_prf([0, 1, 2, 3], [0, 0, 1, 1])
    assert (precision, recall, f_score) == (0.0, 0.0, 0.0)


def test_prf_worked_example():
    precision, recall, f_score = pairwise_prf([0, 0, 0, 1], [0, 0, 1, 1])
    assert precision == pytest.approx(1 / 3)
    assert recall == pytest.approx(1 / 2)
    assert f_score == pytest.approx(2 / 5)


def test_prf_matches_pair_enumeration():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 50))
        pred = rng.integers(0, 5, size=n)
        truth = rng.integers(0, 4, size=n)
        tp, fp, fn, _ = pairwise_confusion(pred, truth)
        precision, recall, f_score = pairwise_prf(pred, truth)
        assert precision == pytest.approx(tp / (tp + fp) if tp + fp else 0.0)
        assert recall == pytest.approx(tp / (tp + fn) if tp + fn else 0.0)
        expected_f = (
            2 * precision * recall / (precision + recall) if precision + recall else 0.0
        )
        assert f_score == pytest.approx(expected_f)


# ---------------------------------------------------------------------------
# ari


def test_ari_identical_partitions():
    assert ari([0, 1, 1, 2], [5, 3, 3, 0]) == 1.0


def test_ari_degenerate_identical_cases():
    assert ari([0, 0, 0], [1, 1, 1]) == 1.0
    assert ari([0, 1, 2], [5, 6, 7]) == 1.0


def test_ari_worked_example_is_exactly_minus_half():
    assert ari([0, 1, 0, 1], [0, 0, 1, 1]) == -0.5


def test_ari_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        a = rng.integers(0, 4, size=n)
        b = rng.integers(0, 5, size=n)
        assert ari(a, b) == pytest.approx(ari(b, a), rel=1e-12)


def test_ari_near_zero_for_independent_partitions():
    rng = np.random.default_rng(4)
    values = [
        ari(rng.integers(0, 4, 100), rng.integers(0, 4, 100)) for _ in range(300)
    ]
    assert -0.02 <= float(np.mean(values)) <= 0.02


# ---------------------------------------------------------------------------
# cross-metric invariants


@settings(max_examples=40, deadline=None)
@given(data=label_arrays, perm_seed=st.integers(0, 1000))
def test_relabeling_invariance(data, perm_seed):
    pred, truth = np.asarray(data[0]), np.asarray(data[1])
    rng = np.random.default_rng(perm_seed)
    remap = rng.permutation(6)
    pred2 = remap[pred]
    for metric in (accuracy, nmi, purity):
        assert metric(pred, truth) == pytest.approx(metric(pred2, truth), abs=1e-12)
    assert ari(pred, truth) == pytest.approx(ari(pred2, truth), abs=1e-12)
    assert pairwise_prf(pred, truth) == pytest.approx(pairwise_prf(pred2, truth))


@settings(max_examples=40, deadline=None)
@given(data=label_arrays)
def test_purity_dominates_accuracy(data):
    pred, truth = data
    assert purity(pred, truth) >= accuracy(pred, truth) - 1e-12


def test_clustering_scores_bundle():
    scores = clustering_scores([0, 0, 1, 1], [1, 1, 0, 0])
    assert set(scores) == {"acc", "nmi", "purity", "fscore", "precision", "recall", "ari"}
    assert all(v == 1.0 for v in scores.values())


def test_clustering_scores_builds_one_contingency_table(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return contingency_table(*args, **kwargs)

    monkeypatch.setattr(metrics, "contingency_table", counting)
    clustering_scores([0, 0, 1, 1, 2, 2], [1, 1, 0, 0, 0, 1])
    assert len(calls) == 1


@settings(max_examples=40, deadline=None)
@given(data=label_arrays)
def test_clustering_scores_equal_the_per_metric_functions(data):
    pred, truth = data
    precision, recall, f_score = pairwise_prf(pred, truth)
    assert clustering_scores(pred, truth) == {
        "acc": accuracy(pred, truth),
        "nmi": nmi(pred, truth),
        "purity": purity(pred, truth),
        "fscore": f_score,
        "precision": precision,
        "recall": recall,
        "ari": ari(pred, truth),
    }
