"""Shared helpers: random valid confusion matrices, random multiplier
states, the central finite-difference oracle for the reparameterized
metric gradients, mutations of the dataset CSVs ``save_dataset`` writes,
and the earlier 3-way split of a drawn pool."""

import numpy as np
from hypothesis import strategies as st

from selmix.data import FeatureDataset
from selmix.errors import DataError
from selmix.metrics import (
    ConfusionMatrix,
    MetricSpec,
    evaluate_metric,
    neutral_lagrange,
    unconstrained_to_confusion,
)


def random_confusion(rng: np.random.Generator, k: int, floor: float = 0.02) -> ConfusionMatrix:
    """Valid confusion matrix with every entry bounded away from zero so
    log/ratio metrics and their gradients are well conditioned."""
    priors = rng.dirichlet(np.full(k, 5.0)) * 0.8 + 0.2 / k
    priors /= priors.sum()
    rows = rng.dirichlet(np.full(k, 1.5), size=k)
    rows = (rows + floor) / (rows + floor).sum(axis=1, keepdims=True)
    return ConfusionMatrix(rows * priors[:, None], priors)


def random_lagrange(rng: np.random.Generator, spec: MetricSpec, k: int) -> np.ndarray:
    """Random multipliers shaped like ``neutral_lagrange``: a Dirichlet draw
    where the neutral state is a uniform simplex, uniform in [0, lambda_max]
    where it is zeros, and the empty state for unconstrained kinds."""
    neutral = neutral_lagrange(spec, k)
    size = neutral.size
    if neutral.any():
        return rng.dirichlet(np.ones(size))
    if size:
        return rng.uniform(0.0, spec.lambda_max, size=size)
    return neutral


def fd_metric_grad(
    spec: MetricSpec, c: ConfusionMatrix, lam: np.ndarray, step: float = 1e-5
) -> np.ndarray:
    """Central differences of psi(unconstrained_to_confusion(Ct)) at
    Ct = log C, entry by entry."""
    c_tilde = np.log(c.entries)
    k = c.k
    grad = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            plus = c_tilde.copy()
            plus[i, j] += step
            minus = c_tilde.copy()
            minus[i, j] -= step
            f_plus = evaluate_metric(spec, unconstrained_to_confusion(plus, c.priors), lam)
            f_minus = evaluate_metric(spec, unconstrained_to_confusion(minus, c.priors), lam)
            grad[i, j] = (f_plus - f_minus) / (2.0 * step)
    return grad


# one edit to a dataset CSV: (kind, where, what); ``mutate_csv`` applies them
LINE_BREAKS = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
               "\u2028", "\u2029"]
CSV_MUTATIONS = st.one_of(
    st.tuples(st.just("end"), st.integers(0, 99), st.sampled_from(LINE_BREAKS)),
    st.tuples(st.just("insert"), st.integers(0, 99), st.sampled_from(["", "", " ", "\t", " , "])),
    st.tuples(st.just("ragged"), st.integers(0, 99), st.sampled_from([-1, 1])),
    st.tuples(st.just("value"), st.integers(0, 99),
              st.sampled_from(["nan", "inf", "-inf", "1e309", "-1e309"])),
    # an int is an offset from the row count: a label at or beyond it
    st.tuples(st.just("label"), st.integers(0, 99), st.sampled_from(["3.0", "-1", "+2", 0, 1])),
    st.tuples(st.just("file"), st.integers(0, 10 ** 6),
              st.sampled_from(["header-only", "no-final-newline", "bom", "bad-byte"])),
)


def mutate_csv(text: str, mutations) -> bytes:
    """The bytes of the LF-ended CSV ``text``, a header and at least one
    row, after ``mutations`` drawn from ``CSV_MUTATIONS``: line edits in
    order, then the file-wide ones."""
    lines = text.split("\n")[:-1]
    ends = ["\n"] * len(lines)
    rows = len(lines) - 1
    for kind, where, what in mutations:
        i = 1 + where % (len(lines) - 1)
        fields = lines[i].split(",")
        if kind == "end":
            ends[where % len(lines)] = what
        elif kind == "insert":
            lines.insert(i, what)
            ends.insert(i, "\n")
        elif kind == "ragged":
            lines[i] = ",".join(fields[:-1] if what < 0 else fields + ["0.5"])
        elif kind == "value":
            lines[i] = ",".join(fields[:-1] + [what])
        elif kind == "label":
            lines[i] = ",".join([what if isinstance(what, str) else str(rows + what)] + fields[1:])
    kinds = {what: where for kind, where, what in mutations if kind == "file"}
    if "header-only" in kinds:
        lines, ends = lines[:1], ends[:1]
    if "no-final-newline" in kinds:
        ends[-1] = ""
    blob = ("\ufeff" if "bom" in kinds else "") + "".join(map(str.__add__, lines, ends))
    blob = blob.encode("utf-8")
    if "bad-byte" in kinds:
        at = kinds["bad-byte"] % (len(blob) + 1)
        blob = blob[:at] + b"\xff" + blob[at:]
    return blob


def reference_sizes(fractions, n: int) -> np.ndarray:
    """Rows of a class of ``n`` that the earlier 3-way split gave each part:
    floor(fraction * n), every positive fraction raised to at least one
    row, then rows moved to the largest fractional remainders (from the
    smallest when the raise overshot)."""
    fr = np.asarray(fractions, dtype=np.float64)
    active = [s for s in range(3) if fr[s] > 0]
    counts = np.floor(fr * n).astype(int)
    for s in active:
        counts[s] = max(counts[s], 1)
    while counts.sum() < n:
        rem = fr * n - counts
        rem[fr == 0] = -np.inf
        counts[int(np.argmax(rem))] += 1
    while counts.sum() > n:
        rem = fr * n - counts
        counts[min((s for s in active if counts[s] > 1), key=lambda s: rem[s])] -= 1
    return counts


def reference_split(ds: FeatureDataset, fractions, seed: int):
    """The earlier ``data.split`` on a drawn pool dataset: a stratified
    (train, val, unlabeled) split, rows in pool order, cut per class from
    one permutation of ``np.random.default_rng(seed)`` by
    :func:`reference_sizes`.  ``data.split`` must equal its parts 0 and 2
    for ``POOL_FRACTIONS`` byte for byte, and the trainer tests draw their
    3-way data from it."""
    fr = np.asarray(fractions, dtype=np.float64)
    small = np.flatnonzero(ds.class_counts() < np.count_nonzero(fr > 0))
    if small.size:
        raise DataError(f"class {small[0]} too small to appear in all requested splits")
    rng = np.random.default_rng(seed)
    buckets = [[], [], []]
    for k in range(ds.num_classes):
        idx = np.flatnonzero(ds.labels == k)
        perm = idx[rng.permutation(idx.size)]
        cuts = np.cumsum(reference_sizes(fr, idx.size))[:2]
        for bucket, part in zip(buckets, np.split(perm, cuts)):
            bucket.append(part)

    def take(parts):
        rows = np.sort(np.concatenate(parts))
        return FeatureDataset(features=ds.features[rows], labels=ds.labels[rows],
                              num_classes=ds.num_classes)

    return tuple(take(bucket) for bucket in buckets)
