"""Synthetic long-tailed Gaussian features, CSV I/O, and split management.

Datasets are plain containers of a feature matrix plus integer labels.  The
label vector doubles as the pseudo-label slot for unlabeled pools: a dataset
built with ``pseudo=True`` keeps the ground truth aside in ``true_labels``
(so pseudo-label accuracy stays measurable) while ``labels`` holds whatever
the current model assigned.  A pseudo label of -1 means "not assigned yet".
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

CSV_HEADER_PREFIX = "label"
LABEL_BOUND = 2 ** 53    # labels below it are exact in float64, so in numpy's reader
POOL_FRACTIONS = (0.8, 0.0, 0.2)    # labeled / (unused) / unlabeled share of the LT pool


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


@dataclass(frozen=True)
class FeatureDataset:
    """Fixed feature vectors with labels and per-class index sets.

    ``features`` is stored as a read-only view (of the caller's array when
    no copy is needed), so nothing writes through the dataset;
    :meth:`screen_arrays` assumes the features never change.
    """

    features: np.ndarray          # (N, d) float64
    labels: np.ndarray            # (N,) int64; -1 = unassigned pseudo slot
    num_classes: int
    pseudo: bool = False
    true_labels: np.ndarray | None = None
    # what screen_arrays built; shared with every with_labels copy
    _screen: dict = field(default_factory=dict, repr=False, compare=False)

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
        """New dataset value with replaced (pseudo) labels; features and
        :meth:`screen_arrays` shared."""
        return FeatureDataset(
            features=self.features,
            labels=labels,
            num_classes=self.num_classes,
            pseudo=self.pseudo,
            true_labels=self.true_labels,
            _screen=self._screen,
        )

    def screen_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(float32 copy of the features, :func:`norm_bounds` of its rows),
        built on first use and kept: the features never change, so one
        build serves every later call."""
        if not self._screen:
            self._screen["x32"] = self.features.astype(np.float32)
            self._screen["norms"] = norm_bounds(self.features, axis=1)
        return self._screen["x32"], self._screen["norms"]


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

    Raises :class:`DataError` when a finite but huge ``within_std`` makes a
    drawn feature overflow.
    """
    means = spec.class_means()
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    with np.errstate(over="ignore"):
        feats = np.concatenate(
            [
                means[k] + spec.within_std * rng.standard_normal((counts[k], spec.d))
                for k in range(spec.K)
            ]
        )
    if not np.isfinite(feats).all():
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
    datasets are saved with their ground-truth labels when available.
    """
    labels = ds.true_labels if (ds.pseudo and ds.true_labels is not None) else ds.labels
    header = ",".join([CSV_HEADER_PREFIX] + [f"f{i}" for i in range(ds.dim)])
    lines = [header]
    for row, lab in zip(ds.features.tolist(), labels.tolist()):
        lines.append(f"{lab}," + ",".join(map(repr, row)))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, split where ``str.splitlines`` splits."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None


def _loadtxt(lines: list[str]) -> np.ndarray | None:
    """Label-first rows parsed by numpy's C reader, or None where it refuses
    them or they hold no data.

    The label column goes through ``int``, so ``3.0`` is refused.  Any value
    numpy takes, ``float`` takes with the same bits, except that numpy also
    strips ``\\x1c``-``\\x1f`` around a value; ``splitlines`` has already
    broken the lines at the first three.
    """
    if not any(lines) or any("\x1f" in line for line in lines):
        return None
    try:
        return np.loadtxt(lines, dtype=np.float64, delimiter=",", comments=None, ndmin=2,
                          converters={0: int})
    except ValueError:
        return None


def load_dataset(path, expected_classes: int | None = None) -> FeatureDataset:
    """Parse a dataset CSV written by :func:`save_dataset`.

    Raises :class:`DataError` naming the offending line for ragged rows,
    non-numeric or non-finite fields, or labels outside
    ``[0, expected_classes)``, or ``[0, LABEL_BOUND)`` without it.  Without
    ``expected_classes`` the class count is the largest label plus one,
    which may not exceed the row count.  numpy's
    C reader parses a well-formed file; every other file goes to the
    per-line pass, which names the line.
    """
    raw = _read_lines(path)
    d = _header_width(path, raw)
    table = _loadtxt(raw[1:])
    top = LABEL_BOUND if expected_classes is None else expected_classes
    if (table is not None and table.shape[1] == d + 1
            and np.isfinite(table[:, 1:]).all()
            and table[:, 0].min() >= 0 and table[:, 0].max() < top):
        labels, features = table[:, 0].astype(np.int64), table[:, 1:]
    else:
        labels, features = _parse_dataset_lines(path, raw, d, expected_classes)
    return _dataset(path, raw, labels, features, expected_classes)


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
    rng = np.random.default_rng(seed)
    buckets: list[list[np.ndarray]] = [[], [], []]
    for k in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == k)
        n_k = idx.size
        active = [s for s in range(3) if fr[s] > 0]
        if n_k < len(active):
            raise DataError(f"class {k} too small to appear in all requested splits")
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

    def take(parts: list[np.ndarray], pseudo: bool) -> FeatureDataset:
        rows = np.sort(np.concatenate(parts)) if parts else np.array([], dtype=np.int64)
        truth = ds.labels[rows]
        if pseudo:
            return FeatureDataset(
                features=ds.features[rows],
                labels=np.full(rows.size, -1, dtype=np.int64),
                num_classes=ds.num_classes,
                pseudo=True,
                true_labels=truth,
            )
        return FeatureDataset(features=ds.features[rows], labels=truth, num_classes=ds.num_classes)

    return take(buckets[0], False), take(buckets[1], False), take(buckets[2], True)
