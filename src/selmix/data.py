"""Synthetic long-tailed Gaussian features, CSV I/O, and split management.

Datasets are plain containers of a feature matrix plus integer labels.  The
label vector doubles as the pseudo-label slot for unlabeled pools: a dataset
built with ``pseudo=True`` keeps the ground truth aside in ``true_labels``
(so pseudo-label accuracy stays measurable) while ``labels`` holds whatever
the current model assigned.  A pseudo label of -1 means "not assigned yet".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DataError

CSV_HEADER_PREFIX = "label"
LABEL_BOUND = 2 ** 53    # labels below it are exact in float64, so in numpy's reader
POOL_FRACTIONS = (0.8, 0.0, 0.2)    # labeled / (unused) / unlabeled share of the LT pool
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


@dataclass(frozen=True)
class FeatureDataset:
    """Fixed feature vectors with labels and per-class index sets.

    ``features`` is stored as a read-only view (of the caller's array when
    no copy is needed), so nothing writes through the dataset;
    :attr:`screen_arrays` assumes the features never change.
    """

    features: np.ndarray          # (N, d) float64
    labels: np.ndarray            # (N,) int64; -1 = unassigned pseudo slot
    num_classes: int
    pseudo: bool = False
    true_labels: np.ndarray | None = None

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
        low = -1 if self.pseudo else 0
        if labels.size and (labels.min() < low or labels.max() >= self.num_classes):
            raise DataError("label outside [0, K)")
        if self.true_labels is not None:
            tl = np.asarray(self.true_labels, dtype=np.int64)
            object.__setattr__(self, "true_labels", tl)
            if tl.shape != labels.shape:
                raise DataError("true_labels length must match labels")

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def class_indices(self) -> list[np.ndarray]:
        """Row indices per class, in ascending row order (a partition of the
        assigned rows)."""
        return [np.flatnonzero(self.labels == k) for k in range(self.num_classes)]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels[self.labels >= 0], minlength=self.num_classes)

    def priors(self) -> np.ndarray:
        counts = self.class_counts()
        return counts / counts.sum()

    def with_labels(self, labels: np.ndarray) -> "FeatureDataset":
        """New dataset value with replaced (pseudo) labels; features shared."""
        return replace(self, labels=labels)

    def as_unlabeled(self) -> "FeatureDataset":
        """This dataset as an unlabeled pool: every pseudo label unassigned
        (-1), the labels kept aside as ``true_labels``."""
        return replace(self, labels=np.full(self.n, -1), pseudo=True, true_labels=self.labels)

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
        if self.K < 2:
            raise DataError("K must be >= 2")
        if self.d < 1:
            raise DataError("d must be >= 1")
        if self.N1 < 1:
            raise DataError("N1 must be >= 1")
        if not self.rho >= 1.0:
            raise DataError("rho must be >= 1")
        if not (0 < self.within_std < np.inf and 0 < self.cluster_separation < np.inf):
            raise DataError("within_std and cluster_separation must be positive and finite")
        if self.seed < 0:
            raise DataError("seed must be >= 0")
        if self.class_counts()[-1] < 1:
            raise DataError("tail class count rounds to zero; increase N1 or lower rho")

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


def _draw_clusters(spec: LTSpec, counts: np.ndarray, seed: int) -> FeatureDataset:
    """``counts[k]`` rows around each class mean of ``spec``, ordered by class.

    The (N, d) array is allocated once and each class's rows are drawn into
    their own slice: standard normals, scaled by ``within_std``, then
    shifted by the mean, so every value is rounded exactly as
    ``mean + within_std * z`` would round it.  Raises :class:`DataError`
    when a finite but huge ``within_std`` makes a drawn feature overflow.
    """
    means = spec.class_means()
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    feats = np.empty((int(counts.sum()), spec.d))
    with np.errstate(over="ignore"):
        for mean, rows in zip(means, np.split(feats, np.cumsum(counts)[:-1])):
            rng.standard_normal(out=rows)
            rows *= spec.within_std
            rows += mean
    if not _all_finite(feats):
        raise DataError(f"within_std={spec.within_std!r} overflows the drawn features")
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
    if per_class < 1:
        raise DataError("per_class must be >= 1")
    return _draw_clusters(spec, np.full(spec.K, per_class), spec.seed + 20_000)


def save_dataset(ds: FeatureDataset, path) -> None:
    """Write a dataset as CSV: header ``label,f0,...,f{d-1}``, LF endings.

    Floats are written with ``repr`` so the round trip is exact.  Pseudo
    datasets are saved with their ground-truth labels when available.  Rows
    are streamed to the file one line at a time, so no text copy of the
    whole array is held.  A dataset :func:`load_dataset` would refuse (an
    unassigned pseudo label, a non-finite feature) raises
    :class:`DataError` before the file is opened.
    """
    labels = ds.true_labels if (ds.pseudo and ds.true_labels is not None) else ds.labels
    if labels.size and labels.min() < 0:
        raise DataError("cannot save unassigned (-1) pseudo labels without true_labels")
    if not _all_finite(ds.features):
        raise DataError("cannot save non-finite feature values")
    header = ",".join([CSV_HEADER_PREFIX] + [f"f{i}" for i in range(ds.dim)])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for row, lab in zip(ds.features, labels.tolist()):
            fh.write(f"{lab}," + ",".join(map(repr, row.tolist())) + "\n")


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, split where ``str.splitlines`` splits."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def load_dataset(path, expected_classes: int | None = None) -> FeatureDataset:
    """Parse a dataset CSV written by :func:`save_dataset`.

    Raises :class:`DataError` naming the offending line for ragged rows,
    non-numeric or non-finite fields, or labels outside
    ``[0, expected_classes)``, or ``[0, LABEL_BOUND)`` without it.  Without
    ``expected_classes`` the class count is the largest label plus one,
    which may not exceed the row count.

    A file of printable ASCII and LF that the checks accept is parsed by
    numpy's C reader straight from the file.  Any other file is read whole
    and parsed by the per-line pass, which names the line; both give the
    same arrays and messages.
    """
    ds = _load_plain(path, expected_classes)
    if ds is not None:
        return ds
    raw = _read_lines(path)
    labels, features = _parse_dataset_lines(path, raw, _header_width(path, raw), expected_classes)
    return _dataset(path, raw, labels, features, expected_classes)


def _load_plain(path, expected_classes: int | None) -> FeatureDataset | None:
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
    n = table.shape[0]
    top = n if expected_classes is None else expected_classes
    if (table.shape[1] != d + 1 or not _all_finite(table)
            or table[:, 0].min() < 0 or table[:, 0].max() >= top):
        return None
    labels = table[:, 0].astype(np.int64)
    flat, block = table.reshape(-1), max(1, CHUNK_BYTES // 8 // d)
    for start in range(0, n, block):
        stop = min(start + block, n)
        flat[start * d:stop * d] = table[start:stop, 1:].ravel()
    k = int(labels.max()) + 1 if expected_classes is None else expected_classes
    return FeatureDataset(features=flat[:n * d].reshape(n, d), labels=labels, num_classes=k)


def _dataset(path, raw: list[str], labels, features, expected_classes: int | None):
    """The parsed rows of a dataset CSV's lines ``raw`` as a dataset.  Without
    ``expected_classes`` the class count is the largest label plus one; a
    label at or above the row count raises :class:`DataError` naming its
    line, before any per-class array is sized by it."""
    if expected_classes is not None:
        return FeatureDataset(features=features, labels=labels, num_classes=expected_classes)
    top = int(labels.argmax())
    if labels[top] >= labels.size:
        lineno = [n for n, line in enumerate(raw[1:], start=2) if line][top]
        raise DataError(f"{path}: line {lineno}: label {labels[top]} implies more classes "
                        f"than the file's {labels.size} rows")
    return FeatureDataset(features=features, labels=labels, num_classes=int(labels[top]) + 1)


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


def _parse_dataset_lines(path, raw: list[str], d: int, expected_classes: int | None):
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
        if not 0 <= lab < (LABEL_BOUND if expected_classes is None else expected_classes):
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


def check_split_sizes(counts: np.ndarray, fractions, error: type[Exception] = DataError) -> None:
    """Raise ``error`` naming the first class whose count in ``counts`` is
    below the number of positive ``fractions``: :func:`split` could not
    give that class a row in every split."""
    small = np.flatnonzero(np.asarray(counts) < np.count_nonzero(np.asarray(fractions) > 0))
    if small.size:
        raise error(f"class {small[0]} too small to appear in all requested splits")


def split(
    ds: FeatureDataset,
    fractions: tuple[float, float, float],
    seed: int,
) -> tuple[FeatureDataset, FeatureDataset, FeatureDataset]:
    """Stratified (train, val, unlabeled) split.

    Every split with a positive fraction receives at least one sample of
    every class, otherwise a :class:`DataError` is raised.  The unlabeled
    part comes back with ``pseudo=True``: its ``labels`` start unassigned
    (-1) and the ground truth is kept in ``true_labels``.
    """
    fr = np.asarray(fractions, dtype=np.float64)
    if fr.shape != (3,) or np.any(fr < 0) or abs(fr.sum() - 1.0) > 1e-9:
        raise DataError("fractions must be three nonnegative values summing to 1")
    check_split_sizes(ds.class_counts(), fr)
    active = [s for s in range(3) if fr[s] > 0]
    rng = np.random.default_rng(seed)
    buckets: list[list[np.ndarray]] = [[], [], []]
    for k in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == k)
        n_k = idx.size
        perm = idx[rng.permutation(n_k)]
        counts = np.floor(fr * n_k).astype(int)
        for s in range(3):
            if fr[s] > 0 and counts[s] == 0:
                counts[s] = 1
        # hand remaining samples to the largest fractional remainders
        while counts.sum() < n_k:
            rem = fr * n_k - counts
            rem[fr == 0] = -np.inf
            counts[int(np.argmax(rem))] += 1
        while counts.sum() > n_k:
            rem = fr * n_k - counts
            order = [s for s in active if counts[s] > 1]
            counts[min(order, key=lambda s: rem[s])] -= 1
        start = 0
        for s in range(3):
            buckets[s].append(perm[start : start + counts[s]])
            start += counts[s]

    def take(parts: list[np.ndarray]) -> FeatureDataset:
        rows = np.sort(np.concatenate(parts)) if parts else np.array([], dtype=np.int64)
        return FeatureDataset(features=ds.features[rows], labels=ds.labels[rows],
                              num_classes=ds.num_classes)

    return take(buckets[0]), take(buckets[1]), take(buckets[2]).as_unlabeled()
