"""Linear classifier over frozen features: logits, exact argmax, mixup SGD,
centroids, and the per-pair update directions used by the gain computation.

All softmax / log-softmax evaluations subtract the max logit first; no
probability below ~1e-300 is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureDataset, norm_bounds
from .errors import DataError, SelMixError


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    e = logits - logits.max(axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))


@dataclass(frozen=True)
class LinearModel:
    """Weights W of shape (d, K); logits are W^T x."""

    weights: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(self, "weights", w)
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 2:
            raise SelMixError("weights must be a d x K matrix with d >= 1, K >= 2")
        if not np.isfinite(w).all():
            raise SelMixError("weights must be finite")

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    @property
    def classes(self) -> int:
        return self.weights.shape[1]


@dataclass(frozen=True)
class CentroidSet:
    """Per-class mean feature vectors, shape (K, d)."""

    centroids: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "centroids", np.asarray(self.centroids, dtype=np.float64))


def batch_logits(model: LinearModel, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != model.dim:
        raise SelMixError(f"features must be an n x {model.dim} matrix, got shape {features.shape}")
    return features @ model.weights


def predict(model: LinearModel, data: FeatureDataset) -> np.ndarray:
    """Argmax class per row of ``data``'s features; ties go to the smallest
    class index.  Exactly ``np.argmax(features @ weights, axis=1)``, which
    it computes outright when :func:`_screened_argmax` cannot decide."""
    labels = _screened_argmax(model, data)
    if labels is None:
        labels = np.argmax(batch_logits(model, data.features), axis=1)
    return labels


# The float32 screen pays where each row holds enough logit work d*K for the
# halved matmul to outweigh its top-2 passes over the K float32 logits, and
# the float64 product n*d*K amortizes its fixed per-call work.  Screen time
# over plain float64 time per call, random clusters (2 cores, numpy 2.4.6,
# scipy-openblas 0.3.31, one BLAS thread), n=15000: d=16 K=10 2.69, K=200
# 0.87; d=64 K=10 1.56, K=50 1.13, K=100 0.79; d=128 K=10 1.08, K=20 0.90,
# K=100 0.65.  d=64 K=100: n=300 1.23, n=1000 0.96, n=3000 0.80.
_SCREEN_MIN_ROW_WORK = 4096          # d*K
_SCREEN_MIN_WORK = 8_000_000         # n*d*K


def _rounding_error(norms: np.ndarray, wnorm: float, d: int, dtype) -> np.ndarray:
    """Per row, a bound on |computed - exact| for every logit when the
    product runs in ``dtype`` (a cast of float64 inputs to it included),
    whatever the summation order or FMA use: (d+2)·eps·‖v‖·max‖w‖, twice
    the classical (d+2)·u bound (eps = 2u) so the rounding of the norms and
    margins fits in the slack, plus (d+2)·tiny·(‖v‖ + max‖w‖ + 2) for the
    absolute errors where a cast, product or sum underflows or is flushed
    to zero.  ``norms`` and ``wnorm`` bound ‖v‖ and max‖w‖ from above."""
    f = np.finfo(dtype)
    return (d + 2) * (f.eps * wnorm * norms + f.tiny * (norms + wnorm + 2))


def _top2(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(argmax per row, the row's max minus its runner-up); overwrites
    each row's max with -inf."""
    labels = logits.argmax(axis=1)
    cells = label_cells(labels, logits.shape[1])
    flat = logits.reshape(-1)
    top = flat[cells]
    flat[cells] = -np.inf
    return labels, top - logits.max(axis=1)


def _screened_argmax(model: LinearModel, data: FeatureDataset) -> np.ndarray | None:
    """The exact float64 argmax through a float32 screen, or None where the
    screen cannot decide it.

    Rows whose float32 top-2 margin exceeds 2(e32 + e64) (:func:`_rounding_error`)
    keep their float32 argmax: the float64 logits differ from the float32
    ones by at most that much, so they have the same unique maximum.  The
    other rows, NaN margins included, are recomputed in float64.  That
    row-subset product may take another BLAS kernel than the full one (a
    few rows differ in the last bits), so any recomputed row whose margin
    is within 4·e64 sends the whole call to the full product, which also
    keeps exact ties on the smallest index.  The screen is skipped for
    shapes where it does not pay (``_SCREEN_MIN_ROW_WORK``,
    ``_SCREEN_MIN_WORK``) and where float32 could overflow.
    """
    x, w = data.features, model.weights
    n, d = x.shape
    row_work = d * model.classes
    if d != model.dim or row_work < _SCREEN_MIN_ROW_WORK or n * row_work < _SCREEN_MIN_WORK:
        return None
    x32, norms = data.screen_arrays()
    wnorm = norm_bounds(w, axis=0).max()
    if not (norms.max() + 1) * (wnorm + 1) <= np.finfo(np.float32).max / 4:
        return None
    e64 = _rounding_error(norms, wnorm, d, np.float64)
    labels, margin = _top2(x32 @ w.astype(np.float32))
    rows = np.flatnonzero(~(margin > 2 * (_rounding_error(norms, wnorm, d, np.float32) + e64)))
    if rows.size:
        sub_labels, sub_margin = _top2(x[rows] @ w)
        if not (sub_margin > 4 * e64[rows]).all():
            return None
        labels[rows] = sub_labels
    return labels


def mix_features(feat_a: np.ndarray, feat_b: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Feature-space mixup per row: beta * feat_a + (1 - beta) * feat_b.

    ``betas`` holds one weight per row, so a (steps, batch) array mixes a
    (steps, batch, d) block of rows at once.
    """
    betas = np.asarray(betas, dtype=np.float64)
    if betas.size == 0:
        raise SelMixError("mixup needs a nonempty batch")
    valid = (betas >= 0.0) & (betas <= 1.0)
    if not valid.all():
        raise SelMixError(f"beta must lie in [0, 1], got {betas[~valid][0]}")
    b = np.repeat(betas, np.shape(feat_a)[-1]).reshape(np.shape(feat_a))
    mixed = b * feat_a
    np.subtract(1.0, b, out=b)
    b *= feat_b
    mixed += b
    return mixed


def class_centroids(features: FeatureDataset) -> CentroidSet:
    """Mean feature vector per class (validation split in the training loop)."""
    cents = np.zeros((features.num_classes, features.dim))
    for k, idx in enumerate(features.class_indices()):
        if idx.size == 0:
            raise DataError(f"no validation samples for class {k}")
        cents[k] = features.features[idx].mean(axis=0)
    return CentroidSet(cents)


def direction_matrix(
    model: LinearModel,
    centroids: CentroidSet,
    i: int,
    j: int,
    beta_bar: float,
) -> np.ndarray:
    """Update direction V_ij = -dL/dW for the (i, j) centroid mixup.

    With zeta = beta_bar * z_i + (1 - beta_bar) * z_j and p = softmax(W^T
    zeta) this is the outer product zeta (e_i - p)^T, shape (d, K).  The
    learning rate is deliberately factored out; only relative scale matters
    downstream.
    """
    if not 0.0 < beta_bar <= 1.0:
        raise SelMixError("beta_bar must lie in (0, 1]")
    z = centroids.centroids
    zeta = beta_bar * z[i] + (1.0 - beta_bar) * z[j]
    p = softmax(model.weights.T @ zeta)
    e_i = np.zeros(model.classes)
    e_i[i] = 1.0
    return np.outer(zeta, e_i - p)


def label_cells(labels: np.ndarray, k: int) -> np.ndarray:
    """Flat index of each row's label cell in a row-major (n, k) array,
    n = ``labels.shape[-1]``; raises :class:`SelMixError` for a label outside
    [0, k), whose index would land on a neighbouring row."""
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise SelMixError(f"labels must lie in [0, {k})")
    return labels + np.arange(0, labels.shape[-1] * k, k)


def softmax_rows_inplace(p: np.ndarray, col: np.ndarray) -> None:
    """Row softmax of the (n, K) logits ``p`` in place, in :func:`softmax`'s
    op order; ``col`` is an (n, 1) scratch buffer."""
    np.maximum.reduce(p, axis=1, keepdims=True, out=col)
    p -= col
    np.exp(p, out=p)
    np.add.reduce(p, axis=1, keepdims=True, out=col)
    p /= col


def sgd_mixup_block(weights: np.ndarray, mixed: np.ndarray, labels: np.ndarray, lrs) -> None:
    """SGD steps in place on the float64 (d, K) ``weights``: step s descends
    the batch-mean cross-entropy of the (n, d) mixed rows ``mixed[s]`` against
    ``labels[s]`` (each in [0, K)) at rate ``lrs[s]``.  Gradients are averaged
    so lr does not scale with batch size.  A step that leaves a weight
    non-finite raises :class:`SelMixError`, leaving ``weights`` as it made them.
    """
    n = mixed.shape[1]
    if n == 0:
        raise SelMixError("mixup needs a nonempty batch")
    if labels.shape != mixed.shape[:2]:
        raise SelMixError("need one label per mixed row")
    cells = label_cells(labels, weights.shape[1])
    p, col, grad = np.empty((n, weights.shape[1])), np.empty((n, 1)), np.empty_like(weights)
    for x, c, lr in zip(mixed, cells, lrs):
        np.matmul(x, weights, out=p)
        softmax_rows_inplace(p, col)
        p.reshape(-1)[c] -= 1.0
        np.matmul(x.T, p, out=grad)
        grad /= n
        grad *= lr
        weights -= grad
        if not np.isfinite(weights).all():
            raise SelMixError("weights must be finite")


def sgd_mixup_step(
    model: LinearModel,
    mixed: np.ndarray,
    labels: np.ndarray,
    lr: float,
) -> LinearModel:
    """One :func:`sgd_mixup_block` step on the (n, d) mixed rows; returns a
    new model and leaves ``model`` as it was."""
    weights = model.weights.copy()
    sgd_mixup_block(weights, np.asarray(mixed, dtype=np.float64)[None],
                    np.asarray(labels)[None], [lr])
    return LinearModel(weights)
