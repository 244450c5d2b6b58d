"""Linear classifier over frozen features: logits, mixup loss, centroids,
and the per-pair update directions used by the gain computation.

All softmax / log-softmax evaluations subtract the max logit first; no
probability below ~1e-300 is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureDataset
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


def predict(model: LinearModel, features: np.ndarray) -> np.ndarray:
    """Argmax class per row; ties go to the smallest class index."""
    return np.argmax(batch_logits(model, features), axis=1)


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


def mixup_loss(
    model: LinearModel,
    feat_a: np.ndarray,
    feat_b: np.ndarray,
    labels: np.ndarray,
    betas: np.ndarray,
) -> np.ndarray:
    """Per-row softmax cross-entropy of the mixed features against labels
    (each mixup is labeled with its first sample's class)."""
    log_p = log_softmax(batch_logits(model, mix_features(feat_a, feat_b, betas)), axis=1)
    return -log_p[np.arange(log_p.shape[0]), labels]


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
