"""Synthetic long-tailed Gaussian features, CSV I/O, and split management.

Datasets are plain containers of a feature matrix plus integer labels in
[0, K), whose rows :meth:`FeatureDataset.class_layout` partitions by class.
An unlabeled pool is such a dataset too: :func:`split` gives it its ground
truth labels, so pseudo-label accuracy stays measurable, and the SSL trainer
never reads them; it pseudo-labels the pool with the model instead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DataError, check_integers, check_reals

CSV_HEADER_PREFIX = "label"
LABEL_BOUND = 2 ** 53    # most classes a dataset CSV may hold: every label is exact in float64
POOL_FRACTIONS = (0.8, 0.0, 0.2)    # labeled / validation / unlabeled: validation is drawn balanced apart
CHUNK_BYTES = 2 ** 18    # block size of the plain-text scan and the feature compaction
PLAIN_BYTES = bytes(range(0x20, 0x7f)) + b"\n"    # printable ASCII and LF


def norm_bounds(a: np.ndarray, axis: int) -> np.ndarray:
    """Upper bounds on the Euclidean norms of the vectors that run along
    ``axis`` of the 2-D ``a`` (``axis=1``: one per row).

    The ``d * tiny`` floor covers squares that underflow (or are flushed to
    zero), so a vector of tiny entries never gets a norm of 0; otherwise
    the result is the plain norm.
    """
    sq = np.einsum("ij,ij->j" if axis == 0 else "ij,ij->i", a, a)
    sq += a.shape[axis] * np.finfo(np.float64).tiny
    return np.sqrt(sq, out=sq)


def _all_finite(a: np.ndarray) -> bool:
    """Whether every value of ``a`` is finite, found from its min and max
    (NaN or infinite otherwise) without a boolean copy of ``a``."""
    return not a.size or bool(np.isfinite([a.min(), a.max()]).all())


class ClassLayout(NamedTuple):
    """CSR-style class-row index of a dataset: the rows of class k are
    ``order[start[k]:start[k] + count[k]]``, in ascending row order."""

    order: np.ndarray
    start: np.ndarray
    count: np.ndarray

    def indices(self) -> list[np.ndarray]:
        """Row indices per class; empty for a class without rows."""
        return np.split(self.order, self.start[1:])

    def rows(self, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Row per draw: the int(u * count[y])-th row of class y, u in [0, 1)."""
        return self.order[self.start[y] + (u * self.count[y]).astype(np.intp)]


@dataclass(frozen=True)
class FeatureDataset:
    """Fixed feature vectors with labels in [0, ``num_classes``).

    ``features`` is stored as a read-only view (of the caller's array when
    no copy is needed), so nothing writes through the dataset;
    :attr:`screen_arrays` assumes the features never change.
    """

    features: np.ndarray          # (N, d) float64
    labels: np.ndarray            # (N,) int64
    num_classes: int

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64)).view()
        feats.flags.writeable = False
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)
        if feats.ndim != 2:
            raise DataError("features must be a 2-D array")
        if labels.shape != (feats.shape[0],):
            raise DataError("labels length must match feature rows")
        if self.num_classes < 1:
            raise DataError("num_classes must be >= 1")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise DataError("label outside [0, K)")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def class_layout(self) -> ClassLayout:
        """The rows of each class: one stable sort of the labels, cut at the
        class boundaries."""
        count = self.class_counts()
        return ClassLayout(np.argsort(self.labels, kind="stable"), np.cumsum(count) - count, count)

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.num_classes)

    def priors(self) -> np.ndarray:
        counts = self.class_counts()
        return counts / counts.sum()

    def with_labels(self, labels: np.ndarray) -> "FeatureDataset":
        """New dataset value with replaced (pseudo) labels; features shared."""
        return replace(self, labels=labels)

    @cached_property
    def screen_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(float32 copy of the features, :func:`norm_bounds` of its rows),
        built on first use and kept: the features never change, so one
        build serves every later call on this dataset."""
        return self.features.astype(np.float32), norm_bounds(self.features, axis=1)


@dataclass(frozen=True)
class LTSpec:
    """Long-tailed Gaussian cluster description.

    Class counts follow the usual exponential profile
    ``N_k = round(N1 * rho ** (-(k-1)/(K-1)))`` so that ``N_1/N_K = rho``.
    Cluster means sit at ``cluster_separation`` along the k-th basis
    direction when d >= K, otherwise along seeded random unit vectors.
    """

    K: int = 10
    d: int = 16
    N1: int = 1500
    rho: float = 100.0
    cluster_separation: float = 1.0
    within_std: float = 0.55
    seed: int = 0

    def __post_init__(self):
        check_integers(self, DataError, K=2, d=1, N1=1, seed=0)
        check_reals(self, "rho", "within_std", "cluster_separation", error=DataError)
        if self.K > LABEL_BOUND:
            raise DataError(f"K must lie in [2, {LABEL_BOUND}]")
        if self.N1 > LABEL_BOUND:
            raise DataError(f"N1 must lie in [1, {LABEL_BOUND}]")
        if not self.rho >= 1.0:
            raise DataError("rho must be >= 1")
        if not (0 < self.within_std < np.inf and 0 < self.cluster_separation < np.inf):
            raise DataError("within_std and cluster_separation must be positive and finite")
        counts = self.class_counts()
        if counts[-1] < 1:
            raise DataError("tail class count rounds to zero; increase N1 or lower rho")
        # the pool, (sum of counts) x d float64, is the largest array drawn
        rows = sum(counts.tolist())
        limit = np.iinfo(np.intp).max // (8 * rows)
        if limit < 1:
            raise DataError(f"a pool of {rows} rows is too large to store")
        if self.d > limit:
            raise DataError(f"d must lie in [1, {limit}]")

    def class_counts(self) -> np.ndarray:
        k = np.arange(self.K)
        counts = np.rint(self.N1 * self.rho ** (-k / (self.K - 1))).astype(np.int64)
        return counts

    def class_means(self) -> np.ndarray:
        if self.d >= self.K:
            means = np.zeros((self.K, self.d))
            means[np.arange(self.K), np.arange(self.K)] = self.cluster_separation
            return means
        rng = np.random.default_rng(np.random.SeedSequence(self.seed).spawn(2)[0])
        raw = rng.standard_normal((self.K, self.d))
        return self.cluster_separation * raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _sample_stream(seed: int) -> np.random.Generator:
    """The generator the cluster rows of ``seed`` are drawn from."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])


def _draw_cluster(rng: np.random.Generator, rows: np.ndarray, mean: np.ndarray,
                  within_std: float) -> None:
    """Fill ``rows`` with the next draws of ``rng`` around ``mean``: standard
    normals, scaled by ``within_std``, then shifted by the mean, so every
    value is rounded exactly as ``mean + within_std * z`` would round it.
    Raises :class:`DataError` when a finite but huge ``within_std`` makes a
    drawn feature overflow."""
    with np.errstate(over="ignore"):
        rng.standard_normal(out=rows)
        rows *= within_std
        rows += mean
    if not _all_finite(rows):
        raise DataError(f"within_std={within_std!r} overflows the drawn features")


def _draw_clusters(spec: LTSpec, counts: np.ndarray, seed: int) -> FeatureDataset:
    """``counts[k]`` rows around each class mean of ``spec``, ordered by class,
    each class drawn by :func:`_draw_cluster` into its own slice of the one
    (N, d) array."""
    means, rng = spec.class_means(), _sample_stream(seed)
    feats = np.empty((int(counts.sum()), spec.d))
    for mean, rows in zip(means, np.split(feats, np.cumsum(counts)[:-1])):
        _draw_cluster(rng, rows, mean, spec.within_std)
    labels = np.repeat(np.arange(spec.K), counts)
    return FeatureDataset(features=feats, labels=labels, num_classes=spec.K)


def generate_longtail(spec: LTSpec) -> FeatureDataset:
    """Draw the long-tailed Gaussian mixture described by ``spec``.

    Deterministic given ``spec.seed``; rows are ordered by class.
    """
    return _draw_clusters(spec, spec.class_counts(), spec.seed)


def balanced_validation(spec: LTSpec, per_class: int) -> FeatureDataset:
    """Balanced holdout of ``per_class`` rows per class around the pool's own
    cluster means (the usual long-tailed evaluation protocol), drawn from
    the sample stream of ``spec.seed + 20_000`` so it shares no pool draws."""
    check_integers(locals(), DataError, per_class=1)
    return _draw_clusters(spec, np.full(spec.K, per_class), int(spec.seed) + 20_000)


def save_dataset(ds: FeatureDataset, path) -> None:
    """Write a dataset as CSV: header ``label,f0,...,f{d-1}``, LF endings.

    Floats are written with ``repr`` so the round trip is exact.  Rows are
    streamed to the file one line at a time, so no text copy of the whole
    array is held.  A non-finite feature, which :func:`load_dataset` would
    refuse, raises :class:`DataError` before the file is opened.
    """
    if not _all_finite(ds.features):
        raise DataError("cannot save non-finite feature values")
    header = ",".join([CSV_HEADER_PREFIX] + [f"f{i}" for i in range(ds.dim)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row, lab in zip(ds.features, ds.labels.tolist()):
            fh.write(f"{lab}," + ",".join(map(repr, row.tolist())) + "\n")


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, split where ``str.splitlines`` splits."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_dataset(path, num_classes: int) -> FeatureDataset:
    """Parse a dataset CSV written by :func:`save_dataset` as a dataset of
    ``num_classes`` classes.

    Raises :class:`DataError` for a ``num_classes`` outside
    ``[1, LABEL_BOUND]`` before the file is opened, and naming the
    offending line for ragged rows, non-numeric or non-finite fields, or
    labels outside ``[0, num_classes)``.

    A file of printable ASCII and LF that the checks accept is parsed by
    numpy's C reader straight from the file.  Any other file is read whole
    and parsed by the per-line pass, which names the line; both give the
    same arrays and messages.
    """
    if not 1 <= num_classes <= LABEL_BOUND:
        raise DataError(f"num_classes {num_classes} outside [1, {LABEL_BOUND}]")
    ds = _load_plain(path, num_classes)
    if ds is not None:
        return ds
    raw = _read_lines(path)
    labels, features = _parse_dataset_lines(path, raw, _header_width(path, raw), num_classes)
    return FeatureDataset(features=features, labels=labels, num_classes=num_classes)


def _load_plain(path, num_classes: int) -> FeatureDataset | None:
    """The dataset numpy's C reader parses from a file of printable ASCII and
    LF with a non-blank line after its header, or None for any other file
    and for a table that numpy or a check of :func:`load_dataset` refuses.

    Those bytes, checked in chunks of at most ``CHUNK_BYTES``, are what
    :func:`save_dataset` writes, and the one case where numpy splits a
    file's lines where ``str.splitlines`` does.  The features then move, a
    block of rows at a time, to the front of the table's own buffer and
    stay a view of it, so they are never held twice.
    """
    with open(path, "rb") as fh:
        header = fh.readline()
        if not header.endswith(b"\n") or header.translate(None, PLAIN_BYTES):
            return None
        has_row = False
        while chunk := fh.read(CHUNK_BYTES):
            if chunk.translate(None, PLAIN_BYTES):
                return None
            has_row = has_row or chunk.count(b"\n") < len(chunk)
    if not has_row:
        return None
    d = _header_width(path, [header[:-1].decode("ascii")])
    try:
        table = np.loadtxt(path, dtype=np.float64, delimiter=",", comments=None, ndmin=2,
                           converters={0: int}, skiprows=1, encoding="ascii")
    except ValueError:
        return None
    if (table.shape[1] != d + 1 or not _all_finite(table)
            or table[:, 0].min() < 0 or table[:, 0].max() >= num_classes):
        return None
    n = table.shape[0]
    labels = table[:, 0].astype(np.int64)
    flat, block = table.reshape(-1), max(1, CHUNK_BYTES // 8 // d)
    for start in range(0, n, block):
        stop = min(start + block, n)
        flat[start * d:stop * d] = table[start:stop, 1:].ravel()
    return FeatureDataset(flat[:n * d].reshape(n, d), labels, num_classes)


def _header_width(path, raw: list[str]) -> int:
    """The number of feature columns a dataset CSV's header line declares."""
    if not raw:
        raise DataError(f"{path}: empty file")
    header = raw[0].split(",")
    if header[0] != CSV_HEADER_PREFIX or header[1:] != [f"f{i}" for i in range(len(header) - 1)]:
        raise DataError(f"{path}: line 1: malformed header {raw[0]!r}")
    if len(header) < 2:
        raise DataError(f"{path}: line 1: header declares no feature columns")
    return len(header) - 1


def _parse_dataset_lines(path, raw: list[str], d: int, num_classes: int):
    """(labels, features) of a dataset CSV's lines after a header declaring
    ``d`` features, one line at a time."""
    labels, rows = [], []
    for lineno, line in enumerate(raw[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != d + 1:
            raise DataError(f"{path}: line {lineno}: expected {d + 1} fields, got {len(parts)}")
        try:
            lab = int(parts[0])
            row = [float(v) for v in parts[1:]]
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        if not 0 <= lab < num_classes:
            raise DataError(f"{path}: line {lineno}: label {lab} out of range")
        labels.append(lab)
        rows.append(row)
    if not rows:
        raise DataError(f"{path}: no data rows")
    features = np.array(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        lineno = [n for n, line in enumerate(raw[1:], start=2) if line][bad[0]]
        raise DataError(f"{path}: line {lineno}: non-finite feature value")
    return np.array(labels, dtype=np.int64), features


def save_weights(weights: np.ndarray, path) -> None:
    """Write a weight matrix as a headerless CSV, one ``repr`` per value and
    LF endings, so :func:`load_weights` reads back the same array."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in np.asarray(weights, dtype=np.float64).tolist():
            fh.write(",".join(map(repr, row)) + "\n")


def load_weights(path) -> np.ndarray:
    """The rows of a headerless weight CSV; whitespace-only lines are skipped.
    Raises :class:`DataError` naming the line, like :func:`load_dataset`."""
    rows, linenos = [], []
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: {exc}") from None
        if len(rows[-1]) != len(rows[0]):
            raise DataError(f"{path}: line {lineno}: expected {len(rows[0])} fields, "
                            f"got {len(rows[-1])}")
        linenos.append(lineno)
    if not rows:
        raise DataError(f"{path}: empty model file")
    weights = np.array(rows, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(weights).all(axis=1))
    if bad.size:
        raise DataError(f"{path}: line {linenos[bad[0]]}: non-finite weight value")
    return weights


def check_split_sizes(counts: np.ndarray, error: type[Exception] = DataError) -> None:
    """Raise ``error`` naming the first class whose count in ``counts`` is
    below 2: :func:`split` could not give that class a labeled and an
    unlabeled row."""
    small = np.flatnonzero(np.asarray(counts) < 2)
    if small.size:
        raise error(f"class {small[0]} too small to appear in all requested splits")


def _labeled_counts(counts: np.ndarray) -> np.ndarray:
    """Rows per class that :func:`split` labels, for class counts of at
    least 2: the floors of the labeled and unlabeled shares of
    ``POOL_FRACTIONS``, each raised to at least 1, and the one row they may
    leave over to the larger remainder, the labeled share's on a tie."""
    shares = np.multiply.outer(POOL_FRACTIONS[::2], counts)     # (2, K)
    floors = np.maximum(np.floor(shares), 1)
    rest = shares - floors
    return (floors[0] + ((floors.sum(axis=0) < counts) & (rest[0] >= rest[1]))).astype(np.int64)


def split(spec: LTSpec, val_per_class: int) -> tuple[FeatureDataset, FeatureDataset, FeatureDataset]:
    """The long-tailed protocol of ``spec``: (train, unlabeled, validation).

    Per class, one permutation from ``np.random.default_rng(spec.seed)``
    cuts the rows ``generate_longtail(spec)`` draws into a labeled share
    (:func:`_labeled_counts`) and an unlabeled rest, each kept in pool
    order; the validation set is ``balanced_validation(spec,
    val_per_class)``.  Raises :class:`DataError` for a class of fewer than
    two rows (:func:`check_split_sizes`).

    The pool itself is never held: each class is drawn into one reused
    block exactly as the pool draws it and its rows are copied straight
    into the parts.  The unlabeled part keeps its ground-truth labels too.
    """
    counts = spec.class_counts()
    check_split_sizes(counts)
    labeled = _labeled_counts(counts)
    sizes = np.stack([labeled, counts - labeled], axis=1)      # (K, 2)
    outs = [np.empty((n, spec.d)) for n in sizes.sum(axis=0)]
    starts = (np.cumsum(sizes, axis=0) - sizes).tolist()
    means, rng, cut = spec.class_means(), _sample_stream(spec.seed), np.random.default_rng(spec.seed)
    block = np.empty((counts.max(), spec.d))
    for k, n_k in enumerate(counts.tolist()):
        parts = np.split(cut.permutation(n_k), [labeled[k]])
        _draw_cluster(rng, block[:n_k], means[k], spec.within_std)
        for out, start, part in zip(outs, starts[k], parts):
            np.take(block, np.sort(part), axis=0, out=out[start:start + part.size], mode="clip")
    del block    # before the holdout is drawn
    pool = (FeatureDataset(features=out, labels=np.repeat(np.arange(spec.K), sizes[:, s]),
                           num_classes=spec.K) for s, out in enumerate(outs))
    return (*pool, balanced_validation(spec, val_per_class))
