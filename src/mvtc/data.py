"""Multi-view dataset container, synthetic data, and file (de)serialization.

Two on-disk matrix formats:

* ``csv`` -- comma-separated, optional header row, ``%.17g`` floats (so a
  save/load round trip is bit-exact).  Rows are samples by default; the
  manifest ``orientation`` field flips that.  Blank lines are skipped; a
  ``#`` line is not a comment but an error.
* ``bin`` -- 8-byte magic ``MVTCBIN1``, then two little-endian uint64
  (rows, cols), then rows*cols little-endian float64 in row-major order.

A dataset is described by a JSON manifest::

    {
      "name": "blobs",
      "n_clusters": 5,
      "labels_path": "labels.csv",
      "views": [
        {"path": "view_0.csv", "format": "csv", "orientation": "samples"},
        {"path": "view_1.bin", "format": "bin", "orientation": "features"}
      ]
    }

Paths are relative to the manifest's directory; ``labels_path`` (a
non-empty string) and ``n_clusters`` are optional.  Orientation
``"samples"`` means rows are samples (the matrix is transposed to
features x samples on load).  A labels file holds one integer per line
(``1.0`` reads as 1; ``1.7``, ``nan`` or ``1e20`` is an error).  Every
view value must be finite, the labels one integer per sample, and a
cluster count a positive integer, which :class:`MultiViewDataset` checks
when a dataset is built.
"""

from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, ParseError, ValidationError, check_int, check_real

BIN_MAGIC = b"MVTCBIN1"
_ORIENTATIONS = ("samples", "features")


@dataclass
class MultiViewDataset:
    """Views plus optional ground truth; bad views, labels or count fail construction."""

    views: list[np.ndarray]          # feature-major, (D_v, N)
    labels: np.ndarray | None = None  # one integer per sample; a list of ints is accepted
    n_clusters: int | None = None
    name: str = "dataset"

    def __post_init__(self):
        n = check_views(self.views)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.dtype.kind not in "iu":
                raise ValidationError(f"labels must be integers, got dtype {labels.dtype}")
            if labels.shape != (n,):
                raise DimensionMismatch(f"labels must be a vector of {n} entries, got shape {labels.shape}")
        if self.n_clusters is not None:
            check_int("n_clusters", self.n_clusters, 1)
        for i, v in enumerate(self.views):
            bad = ~np.isfinite(v).all(axis=0)
            if bad.any():
                raise ValidationError(f"view {i} has a non-finite value at sample {np.argmax(bad)}")

    @property
    def n_samples(self) -> int:
        return int(self.views[0].shape[1])

    @property
    def n_views(self) -> int:
        return len(self.views)


def check_views(views: list[np.ndarray]) -> int:
    """Shared sample count of a non-empty list of 2-D integer or float views; raises naming the bad view."""
    if len(views) == 0:
        raise ValidationError("need at least one view")
    for i, v in enumerate(views):
        if not isinstance(v, np.ndarray) or v.dtype.kind not in "iuf":
            got = f"dtype {v.dtype}" if isinstance(v, np.ndarray) else type(v).__name__
            raise ValidationError(f"view {i} must be a numpy array of integers or floats, got {got}")
        if v.ndim != 2 or v.shape[0] == 0:
            raise DimensionMismatch(f"view {i} is not a matrix with features: shape {v.shape}")
        if v.shape[1] != views[0].shape[1]:
            raise DimensionMismatch(
                f"view {i} has {v.shape[1]} samples but view 0 has {views[0].shape[1]}"
            )
    return views[0].shape[1]


def generate_synthetic(
    n_samples: int,
    n_clusters: int,
    n_views: int = 3,
    dims: list[int] | None = None,
    noise: float = 0.1,
    seed: int = 0,
    name: str = "synthetic",
) -> MultiViewDataset:
    """Cluster-structured multi-view data from shared latent centers.

    Each cluster owns one latent center; every view applies its own seeded
    random linear map and adds Gaussian noise of the given scale.  Center
    directions are random but their norms form a strict ladder (2, 3, ...),
    so orderings keyed on feature norms group the clusters contiguously;
    the emitted sample order is shuffled.  With ``noise=0`` all
    same-cluster columns of a view are identical.  ``dims=None`` gives
    every view 16 features.
    """
    for arg, value in (("n_samples", n_samples), ("n_clusters", n_clusters), ("n_views", n_views)):
        check_int(arg, value, 1)
    dims = [16] * n_views if dims is None else dims
    if not hasattr(dims, "__len__") or len(dims) != n_views:  # a bare int is no list
        raise ValidationError(f"need one dim for each of {n_views} views, got {dims}")
    for d in dims:
        check_int("each dim", d, 1)
    check_real("noise", noise)
    check_int("n_clusters", n_clusters, most=n_samples)
    check_int("seed", seed, 0)
    latent_dim = max(2, n_clusters)
    # the largest array is N x max(dims, latent_dim) floats; numpy cannot index a larger one
    if n_samples * max(*dims, latent_dim) > np.iinfo(np.intp).max // 8:
        raise ValidationError(f"{n_samples} samples are too many to hold in memory")
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((latent_dim, n_clusters))
    centers /= np.linalg.norm(centers, axis=0)
    centers *= 1.0 + np.arange(1, n_clusters + 1)
    labels = np.repeat(np.arange(n_clusters), -(-n_samples // n_clusters))[:n_samples]
    rng.shuffle(labels)
    views = []
    for d in dims:
        mix = rng.standard_normal((d, latent_dim)) / np.sqrt(latent_dim)
        x = mix @ centers[:, labels]
        if noise > 0:
            x = x + noise * rng.standard_normal(x.shape)
        views.append(x)
    return MultiViewDataset(views=views, labels=labels, n_clusters=n_clusters, name=name)


def save_dataset(dataset: MultiViewDataset, out_dir, fmt: str = "csv") -> Path:
    """Write views, labels, and a manifest into ``out_dir``; returns the manifest path."""
    if fmt not in ("csv", "bin"):
        raise ValidationError(f"unknown matrix format '{fmt}'")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, view in enumerate(dataset.views):
        rel = f"view_{i}.{fmt}"
        write_matrix(out_dir / rel, view, fmt=fmt, orientation="features")
        entries.append({"path": rel, "format": fmt, "orientation": "features"})
    manifest: dict = {"name": dataset.name, "views": entries}
    if dataset.n_clusters is not None:
        manifest["n_clusters"] = int(dataset.n_clusters)
    if dataset.labels is not None:
        labels_rel = "labels.csv"
        np.savetxt(out_dir / labels_rel, dataset.labels, fmt="%d")
        manifest["labels_path"] = labels_rel
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest_path


def load_dataset(manifest_path) -> MultiViewDataset:
    """Load every view named by a manifest and cross-validate sample counts."""
    manifest_path = Path(manifest_path)
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise ParseError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ValidationError(f"manifest {manifest_path} is not a JSON object")
    entries = manifest.get("views")
    if not entries or not isinstance(entries, list) or not all(
        isinstance(e, dict) and isinstance(e.get("path"), str) for e in entries
    ):
        raise ValidationError(f"manifest {manifest_path}: 'views' must list objects with a 'path'")
    n_clusters = manifest.get("n_clusters")
    if n_clusters is not None:
        check_int(f"manifest {manifest_path}: 'n_clusters'", n_clusters)
    labels_rel = manifest.get("labels_path")
    if labels_rel is not None and (not isinstance(labels_rel, str) or not labels_rel):
        raise ValidationError(f"manifest {manifest_path}: 'labels_path' must be a non-empty string")
    base = manifest_path.parent
    views = [
        load_matrix(base / e["path"], e.get("format", "csv"), e.get("orientation", "samples"))
        for e in entries
    ]
    counts = [v.shape[1] for v in views]
    if len(set(counts)) > 1:
        detail = ", ".join(f"'{e['path']}' has {c} samples" for e, c in zip(entries, counts))
        raise DimensionMismatch(f"views disagree on the sample count: {detail}")
    labels = None
    if labels_rel is not None:
        labels = load_labels(base / labels_rel)
        if labels.size != counts[0]:
            raise DimensionMismatch(
                f"labels file '{labels_rel}' has {labels.size} entries, expected {counts[0]}"
            )
    return MultiViewDataset(
        views=views,
        labels=labels,
        n_clusters=n_clusters,
        name=str(manifest.get("name", manifest_path.stem)),
    )


def load_matrix(path, fmt: str = "csv", orientation: str = "samples") -> np.ndarray:
    """Read one matrix and orient it to features x samples."""
    path = Path(path)
    if orientation not in _ORIENTATIONS:
        raise ValidationError(f"orientation must be one of {_ORIENTATIONS}, got '{orientation}'")
    if fmt == "csv":
        data = _read_csv_matrix(path)
    elif fmt == "bin":
        data = _read_bin_matrix(path)
    else:
        raise ValidationError(f"unknown matrix format '{fmt}'")
    return data.T if orientation == "samples" else data


def write_matrix(path, data: np.ndarray, fmt: str = "csv", orientation: str = "samples"):
    """Write a features x samples matrix under the given orientation."""
    path = Path(path)
    if orientation not in _ORIENTATIONS:
        raise ValidationError(f"orientation must be one of {_ORIENTATIONS}, got '{orientation}'")
    out = np.asarray(data, dtype=float)
    out = out.T if orientation == "samples" else out
    if fmt == "csv":
        np.savetxt(path, out, fmt="%.17g", delimiter=",")
    elif fmt == "bin":
        rows, cols = out.shape
        with open(path, "wb") as fh:
            fh.write(BIN_MAGIC)
            fh.write(struct.pack("<QQ", rows, cols))
            fh.write(np.ascontiguousarray(out, dtype="<f8").tobytes())
    else:
        raise ValidationError(f"unknown matrix format '{fmt}'")


def load_labels(path) -> np.ndarray:
    """Read one integer label per line (``1.0`` reads as 1) into an int64 vector."""
    path = Path(path)
    values = _loadtxt(path, path, encoding="utf-8")
    # Every integral float64 below 2**63 in magnitude fits in int64.
    integral = (np.abs(values) < 2.0**63) & (values == np.floor(values))
    if values.shape[1] != 1 or not integral.all():
        raise ParseError(f"{path}: labels must be one integer per line")
    return values[:, 0].astype(np.int64)


def _read_csv_matrix(path: Path) -> np.ndarray:
    # A byte that is not UTF-8 becomes U+FFFD, which no number parses as.
    with open(path, encoding="utf-8", errors="replace") as fh:
        first = next((line for line in fh if line.strip()), None)
        if first is None:
            raise ParseError(f"{path}: empty file")
        try:
            np.loadtxt([first], delimiter=",", comments=None)
            fh.seek(0)  # the first line is data
        except ValueError:
            pass  # a header row: read on from the line after it
        data = _loadtxt(path, fh, delimiter=",")
    if data.size == 0:
        raise ParseError(f"{path}: no data rows")
    return data


def _loadtxt(path: Path, source, **kwargs) -> np.ndarray:
    """``np.loadtxt`` into a 2-D float array, ``#`` read as data; ParseError names ``path``."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty input; callers check
            return np.loadtxt(source, ndmin=2, comments=None, **kwargs)
    except ValueError as exc:  # ragged row, bad token, or bad UTF-8
        raise ParseError(f"{path}: {exc}") from exc


def _read_bin_matrix(path: Path) -> np.ndarray:
    header = len(BIN_MAGIC) + 16
    with open(path, "rb") as fh:
        head = fh.read(header)
    if len(head) < header or head[: len(BIN_MAGIC)] != BIN_MAGIC:
        raise ParseError(f"{path}: missing {BIN_MAGIC!r} header")
    rows, cols = struct.unpack("<QQ", head[len(BIN_MAGIC) :])
    size = path.stat().st_size
    if size != header + rows * cols * 8:
        raise ParseError(f"{path}: {size} bytes is the wrong size for a {rows}x{cols} matrix")
    return np.fromfile(path, dtype="<f8", offset=header).reshape(rows, cols)
