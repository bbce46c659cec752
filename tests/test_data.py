import json
import warnings

import numpy as np
import pytest

from mvtc.anchors import select_anchors
from mvtc.data import (
    MultiViewDataset,
    generate_synthetic,
    load_dataset,
    load_labels,
    load_matrix,
    save_dataset,
    write_matrix,
)
from mvtc.errors import DimensionMismatch, ParseError, ValidationError
from mvtc.pipeline import PipelineConfig, run_pipeline


# ---------------------------------------------------------------------------
# synthetic generation


def test_noise_free_clusters_are_exact_duplicates():
    ds = generate_synthetic(20, 2, 2, [4, 6], noise=0.0, seed=0)
    for view in ds.views:
        for cluster in (0, 1):
            cols = view[:, ds.labels == cluster]
            np.testing.assert_array_equal(cols, np.tile(cols[:, :1], (1, cols.shape[1])))


def test_same_seed_same_dataset():
    a = generate_synthetic(30, 3, 2, [5, 7], noise=0.2, seed=11)
    b = generate_synthetic(30, 3, 2, [5, 7], noise=0.2, seed=11)
    for va, vb in zip(a.views, b.views):
        np.testing.assert_array_equal(va, vb)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = generate_synthetic(30, 3, 2, [5, 7], noise=0.2, seed=12)
    assert not np.array_equal(a.views[0], c.views[0])


def test_cluster_norm_ladder_keeps_clusters_contiguous():
    # the pipeline sorts samples by this key; clusters must form solid blocks
    ds = generate_synthetic(60, 4, 2, [5, 5], noise=0.05, seed=3)
    norms = sum(np.einsum("dn,dn->n", v, v) for v in ds.views)
    sorted_labels = ds.labels[np.argsort(norms, kind="stable")]
    assert int((np.diff(sorted_labels) != 0).sum()) == 3


def test_labels_balanced_and_shuffled():
    ds = generate_synthetic(10, 5, 1, [3], noise=0.0, seed=1)
    assert sorted(np.bincount(ds.labels).tolist()) == [2, 2, 2, 2, 2]
    assert not np.array_equal(ds.labels, np.sort(ds.labels))


def test_generation_validation():
    with pytest.raises(ValidationError):
        generate_synthetic(10, 3, 2, [4], noise=0.0, seed=0)  # dims/views mismatch
    with pytest.raises(ValidationError, match="one dim for each of 1 views"):
        generate_synthetic(10, 3, 1, 5)  # dims must be a list, even for one view
    with pytest.raises(ValidationError, match="each dim"):
        generate_synthetic(10, 3, 2, [[4], [4, 5]])  # a ragged list is no list of dims
    with pytest.raises(ValidationError):
        generate_synthetic(2, 3, 1, [4], noise=0.0, seed=0)  # more clusters than samples
    for dims in ([-3, 5], [0, 5]):
        with pytest.raises(ValidationError, match="at least 1"):
            generate_synthetic(10, 2, 2, dims)
    for noise in (-1.0, float("nan"), float("inf"), "0.1"):
        with pytest.raises(ValidationError, match="noise"):
            generate_synthetic(10, 2, 2, [4, 5], noise=noise)
    for field, value in (("n_samples", 2.5), ("n_clusters", 2.0), ("n_views", 2.0),
                         ("seed", True)):
        with pytest.raises(ValidationError, match=field):
            generate_synthetic(**{"n_samples": 10, "n_clusters": 2, field: value})


def test_generation_defaults():
    ds = generate_synthetic(12, 3)
    assert [v.shape for v in ds.views] == [(16, 12)] * 3
    explicit = generate_synthetic(12, 3, 3, [16, 16, 16], noise=0.1, seed=0)
    for got, want in zip(ds.views, explicit.views, strict=True):
        np.testing.assert_array_equal(got, want)


def test_view_without_features_is_rejected(tmp_path):
    ds = generate_synthetic(12, 3, 2, [4, 5], noise=0.3, seed=5)
    manifest = save_dataset(ds, tmp_path, fmt="bin")
    write_matrix(tmp_path / "view_1.bin", np.empty((0, 12)), fmt="bin", orientation="features")
    with pytest.raises(DimensionMismatch, match="view 1 is not a matrix with features"):
        load_dataset(manifest)
    with pytest.raises(DimensionMismatch, match="view 0 is not a matrix with features"):
        MultiViewDataset(views=[np.empty((0, 4))])


@pytest.mark.parametrize("bad, got", [
    ([[1.0, 2.0, 3.0, 4.0]], "got list"),  # used to raise AttributeError
    (np.ones((1, 4), dtype=object), "got dtype object"),  # used to raise TypeError in isfinite
    (np.ones((1, 4)) + 1j, "got dtype complex128"),  # used to drop the imaginary part
    (np.ones((1, 4), dtype=bool), "got dtype bool"),  # used to get a logical norm order
])
def test_views_must_be_arrays_of_real_numbers(bad, got):
    views = [np.ones((2, 4)), bad]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any ComplexWarning
        with pytest.raises(ValidationError, match=f"view 1 must be a numpy array of integers or floats, {got}"):
            MultiViewDataset(views=views)
        with pytest.raises(ValidationError, match=f"view 1 must be a numpy array .*, {got}"):
            select_anchors(views, 2, seed=0)


def test_float32_and_integer_views_are_accepted():
    ds = generate_synthetic(30, 2, 2, [4, 5], noise=0.1, seed=3)
    views = [ds.views[0].astype(np.float32), np.rint(ds.views[1] * 100).astype(np.int64)]
    dataset = MultiViewDataset(views=views, labels=ds.labels, n_clusters=2)
    assert select_anchors(views, 5, seed=0).indices.size == 5
    report = run_pipeline(dataset, PipelineConfig(n_anchors=10, low_freq=4))
    assert sorted(set(report.labels_pred)) == [0, 1]


# ---------------------------------------------------------------------------
# matrix files


@pytest.mark.parametrize("fmt", ["csv", "bin"])
@pytest.mark.parametrize("orientation", ["samples", "features"])
def test_matrix_round_trip_bitwise(tmp_path, fmt, orientation):
    rng = np.random.default_rng(7)
    data = rng.standard_normal((4, 9)) * 1e3
    path = tmp_path / f"m.{fmt}"
    write_matrix(path, data, fmt=fmt, orientation=orientation)
    back = load_matrix(path, fmt=fmt, orientation=orientation)
    np.testing.assert_array_equal(back, data)


def test_csv_header_row_is_skipped(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("f0,f1,f2\n1,2,3\n4,5,6\n")
    got = load_matrix(path, fmt="csv", orientation="samples")
    np.testing.assert_array_equal(got, np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]]))


def test_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("1,2,3\n4,5\n")
    with pytest.raises(ParseError):
        load_matrix(path, fmt="csv")


def test_csv_header_after_blank_lines_is_skipped(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("\n\nf0,f1\n1,2\n\n3,4\n")
    got = load_matrix(path, fmt="csv", orientation="features")
    np.testing.assert_array_equal(got, np.array([[1.0, 2.0], [3.0, 4.0]]))


@pytest.mark.parametrize(
    "text",
    ["", "\n\n", "f0,f1\n", "1,2\n# note\n", "1,2,\n", "1,2\n3,x\n", b"1,\xff\n"],
    ids=["empty", "blank", "header-only", "hash-line", "trailing-comma", "bad-token", "bad-utf8"],
)
def test_csv_malformed_is_a_parse_error_naming_the_file(tmp_path, text):
    path = tmp_path / "v.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(ParseError, match="v.csv"):
        load_matrix(path, fmt="csv")


def test_bin_bad_magic_rejected(tmp_path):
    path = tmp_path / "v.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ParseError):
        load_matrix(path, fmt="bin")


def test_bin_truncated_payload_rejected(tmp_path):
    rng = np.random.default_rng(1)
    path = tmp_path / "v.bin"
    write_matrix(path, rng.standard_normal((3, 5)), fmt="bin")
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(ParseError):
        load_matrix(path, fmt="bin")


def test_missing_view_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="absent.csv"):
        load_matrix(tmp_path / "absent.csv")


def test_missing_labels_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="absent.csv"):
        load_labels(tmp_path / "absent.csv")


@pytest.mark.parametrize(
    "fmt, orientation, error",
    [("npy", "samples", "unknown matrix format 'npy'"),
     ("csv", "rows", "orientation must be one of")],
)
def test_unknown_format_or_orientation_rejected(tmp_path, fmt, orientation, error):
    path = tmp_path / "v.dat"
    with pytest.raises(ValidationError, match=error):
        write_matrix(path, np.ones((2, 3)), fmt=fmt, orientation=orientation)
    assert not path.exists()
    write_matrix(path, np.ones((2, 3)))
    with pytest.raises(ValidationError, match=error):
        load_matrix(path, fmt=fmt, orientation=orientation)


# ---------------------------------------------------------------------------
# manifests


def test_single_view_manifest(tmp_path):
    (tmp_path / "view.csv").write_text("1,2\n3,4\n5,6\n")
    (tmp_path / "labels.csv").write_text("0\n1\n0\n")
    manifest = {
        "name": "tiny",
        "n_clusters": 2,
        "labels_path": "labels.csv",
        "views": [{"path": "view.csv", "format": "csv", "orientation": "samples"}],
    }
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    ds = load_dataset(tmp_path / "manifest.json")
    assert ds.n_samples == 3
    assert ds.n_views == 1
    assert ds.n_clusters == 2
    np.testing.assert_array_equal(ds.labels, [0, 1, 0])
    assert ds.views[0].shape == (2, 3)


def test_views_with_different_sample_counts_are_named(tmp_path):
    (tmp_path / "a.csv").write_text("\n".join("1,2" for _ in range(5)) + "\n")
    (tmp_path / "b.csv").write_text("\n".join("1,2" for _ in range(6)) + "\n")
    manifest = {"views": [{"path": "a.csv"}, {"path": "b.csv"}]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DimensionMismatch) as err:
        load_dataset(tmp_path / "manifest.json")
    message = str(err.value)
    assert "a.csv" in message and "5" in message
    assert "b.csv" in message and "6" in message


def test_labels_length_mismatch_is_reported(tmp_path):
    (tmp_path / "v.csv").write_text("1,2\n3,4\n")
    (tmp_path / "labels.csv").write_text("0\n1\n0\n")
    manifest = {"labels_path": "labels.csv", "views": [{"path": "v.csv"}]}
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(DimensionMismatch) as err:
        load_dataset(tmp_path / "manifest.json")
    assert "labels.csv" in str(err.value)


def test_labels_integral_floats_accepted(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("1.0\n\n-2\n3e0\n")
    got = load_labels(path)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, [1, -2, 3])


@pytest.mark.parametrize("token", ["1.7", "nan", "inf", "1e20", "x", "1 2"])
def test_labels_that_are_not_finite_integers_rejected(tmp_path, token):
    path = tmp_path / "labels.csv"
    path.write_text(f"0\n{token}\n1\n")
    with pytest.raises(ParseError, match="labels.csv"):
        load_labels(path)


@pytest.mark.parametrize("token", ["nan", "-inf", "1e400"])
def test_loaded_non_finite_view_is_rejected(tmp_path, token):
    (tmp_path / "v.csv").write_text(f"1,2\n3,{token}\n5,6\n")
    (tmp_path / "manifest.json").write_text(json.dumps({"views": [{"path": "v.csv"}]}))
    with pytest.raises(ValidationError, match="view 0 has a non-finite value at sample 1"):
        load_dataset(tmp_path / "manifest.json")


def test_built_non_finite_view_is_rejected():
    views = [np.ones((2, 4)), np.ones((3, 4))]
    views[1][2, 3] = np.nan
    with pytest.raises(ValidationError, match="view 1 has a non-finite value at sample 3"):
        MultiViewDataset(views=views)


@pytest.mark.parametrize(
    "views, error",
    [
        ([np.ones((2, 40)), np.ones((3, 41))], "view 1 has 41 samples"),
        ([np.ones((2, 40)), np.ones(40)], "view 1 is not a matrix"),
        ([], "at least one view"),
    ],
    ids=["sample-counts-differ", "one-dimensional-view", "no-views"],
)
def test_built_dataset_with_bad_view_shapes_is_rejected(views, error):
    with pytest.raises(ValidationError, match=error):  # DimensionMismatch is one
        MultiViewDataset(views=views)


@pytest.mark.parametrize("n_clusters", [0, 2.5, True, "2"])
def test_built_dataset_with_a_bad_cluster_count_is_rejected(n_clusters):
    with pytest.raises(ValidationError, match="^n_clusters must be an integer"):
        MultiViewDataset(views=[np.ones((2, 5))], n_clusters=n_clusters)


@pytest.mark.parametrize(
    "labels, error, message",
    [
        (np.zeros(3, dtype=int), DimensionMismatch, r"5 entries, got shape \(3,\)"),
        (np.zeros((5, 2), dtype=int), DimensionMismatch, r"5 entries, got shape \(5, 2\)"),
        (np.zeros((1, 5), dtype=int), DimensionMismatch, r"5 entries, got shape \(1, 5\)"),
        (np.array([0, 1, 0, 1, np.nan]), ValidationError, "integers, got dtype float64"),
        (np.zeros(5, dtype=bool), ValidationError, "integers, got dtype bool"),
        (["0", "1", "0", "1", "0"], ValidationError, "integers, got dtype <U1"),
    ],
    ids=["too-few", "matrix", "row", "nan", "bool", "strings"],
)
def test_built_dataset_with_bad_labels_is_rejected(labels, error, message):
    with pytest.raises(error, match=f"^labels must be .*{message}"):
        MultiViewDataset(views=[np.ones((2, 5))], labels=labels)


def test_built_dataset_takes_a_list_of_integer_labels():
    ds = generate_synthetic(40, 2, 2, [4, 5], noise=0.1, seed=0)
    listed = MultiViewDataset(views=ds.views, labels=ds.labels.tolist())
    config = PipelineConfig(n_clusters=2, n_anchors=10)
    assert run_pipeline(listed, config).metrics == run_pipeline(ds, config).metrics


@pytest.mark.parametrize(
    "manifest",
    [
        [1, 2],
        {"views": [{"format": "csv"}]},
        {"views": ["v.csv"]},
        {"views": {"path": "v.csv"}},
        {"n_clusters": "two", "views": [{"path": "v.csv"}]},
        {"n_clusters": 2.5, "views": [{"path": "v.csv"}]},
        {"labels_path": 3, "views": [{"path": "v.csv"}]},
        {"labels_path": "", "views": [{"path": "v.csv"}]},  # not "no labels"
    ],
    ids=[
        "not-an-object", "view-without-path", "view-not-an-object", "views-not-a-list",
        "n-clusters-string", "n-clusters-float", "labels-path-not-a-string",
        "labels-path-empty",
    ],
)
def test_malformed_manifest_is_a_validation_error(tmp_path, manifest):
    (tmp_path / "v.csv").write_text("1,2\n3,4\n")
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(ValidationError, match="manifest"):
        load_dataset(tmp_path / "manifest.json")


def test_missing_manifest_and_bad_json(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope.json"):
        load_dataset(tmp_path / "nope.json")
    bad = tmp_path / "manifest.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_dataset(bad)


@pytest.mark.parametrize("fmt", ["csv", "bin"])
def test_save_then_load_round_trip(tmp_path, fmt):
    ds = generate_synthetic(12, 3, 2, [4, 5], noise=0.3, seed=5, name="round")
    manifest_path = save_dataset(ds, tmp_path / "out", fmt=fmt)
    back = load_dataset(manifest_path)
    assert back.name == "round"
    assert back.n_clusters == 3
    np.testing.assert_array_equal(back.labels, ds.labels)
    for va, vb in zip(ds.views, back.views):
        np.testing.assert_array_equal(vb, va)


def test_save_rejects_unknown_format_before_writing(tmp_path):
    ds = generate_synthetic(12, 3, 2, [4, 5], noise=0.3, seed=5)
    out = tmp_path / "out"
    with pytest.raises(ValidationError, match="unknown matrix format 'npy'"):
        save_dataset(ds, out, fmt="npy")
    assert not out.exists()
