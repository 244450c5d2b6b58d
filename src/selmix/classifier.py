"""Linear classifier over frozen features: logits, exact argmax, mixup SGD,
centroids, and the per-pair update directions used by the gain computation.

All softmax / log-softmax evaluations subtract the row's max logit first,
so on finite logits no exp overflows and each row's largest probability is
at least 1/K.  Nothing bounds the small ones from below: a logit x under
its row's max gets at most e^-x, subnormal past x ~ 708 and 0 past x ~ 745
(the hedge game's scores reach both).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FeatureDataset, _all_finite, norm_bounds
from .errors import DataError, SelMixError, check_integers, check_reals


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, on a float64 copy of ``logits``."""
    p = np.array(logits, dtype=np.float64)
    softmax_rows_inplace(p, np.empty(p.shape[:-1] + (1,)))
    return p


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


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


@dataclass(eq=False)
class ArgmaxCarry:
    """What one caller's :func:`predict` calls on one dataset carry over to
    the next: the last decided call's weights W₀, its labels and per-row
    margin bounds (:func:`_screened_argmax`), and the dataset's
    :attr:`~FeatureDataset.screen_arrays` they were computed against.
    Empty until the first decided call; a call on any other dataset
    screens from scratch and refills it."""

    state: tuple | None = None      # (x32, W₀, labels, bounds)


def predict(model: LinearModel, data: FeatureDataset,
            carry: ArgmaxCarry | None = None) -> np.ndarray:
    """Argmax class per row of ``data``'s features; ties go to the smallest
    class index.  Exactly ``np.argmax(features @ weights, axis=1)``, which
    it computes outright when :func:`_screened_argmax` cannot decide.
    ``carry`` only saves work: the answer is the same without it.  Raises
    :class:`SelMixError` when the product overflows: finite features give a
    non-finite logit (the weights are finite), or when the model's class
    count is not the dataset's."""
    _check_classes(model, data)
    labels = _screened_argmax(model, data, carry)
    if labels is None:
        labels = np.argmax(checked_logits(model, data), axis=1)
    return labels


def _check_classes(model: LinearModel, data: FeatureDataset) -> None:
    if model.classes != data.num_classes:
        raise SelMixError(f"model has {model.classes} classes, data has {data.num_classes}")


def checked_logits(model: LinearModel, data: FeatureDataset) -> np.ndarray:
    """The logits of ``data``'s rows; raises :class:`SelMixError` when the
    product overflows: finite features give a non-finite logit (the weights
    are finite), or when the model's class count is not the dataset's."""
    _check_classes(model, data)
    with np.errstate(over="ignore", invalid="ignore"):
        logits = batch_logits(model, data.features)
    if not _all_finite(logits) and _all_finite(data.features):
        raise SelMixError("logits overflow: the model's products with the features are "
                          "not finite")
    return logits


# The float32 screen pays where each row holds enough logit work d*K for the
# halved matmul to outweigh its top-2 passes over the K float32 logits, and
# the float64 product n*d*K amortizes its fixed per-call work.  Screen time
# over plain float64 time per call, random clusters (2 cores, numpy 2.4.6,
# scipy-openblas 0.3.31, one BLAS thread), n=15000: d=16 K=10 2.69, K=200
# 0.87; d=64 K=10 1.56, K=50 1.13, K=100 0.79; d=128 K=10 1.08, K=20 0.90,
# K=100 0.65.  d=64 K=100: n=300 1.23, n=1000 0.96, n=3000 0.80.
_SCREEN_MIN_ROW_WORK = 4096          # d*K
_SCREEN_MIN_WORK = 8_000_000         # n*d*K
# Past this share of rechecked rows, take the full float64 product: subset
# time over full time by share, n=15000, d=128 K=100: 0.03 0.04, 0.125 0.17,
# 1 1.37.  A zero model rechecks every row (50 ms, plain 16 ms, before the
# cap); trained models on the benchmark's validation sets recheck 0.1%.
_SCREEN_MAX_RECHECK_SHARE = 1 / 32
# The screened rows are gathered, multiplied and reduced this many float32
# logits at a time (at least one row), so no (n, K) logits array is held.
# Fresh screen time per call, n=15000, blocks of 2^12 2^14 2^16 2^18 logits
# against one block of all rows: d=128 K=100 10.5 7.8 5.5 5.7 ms against
# 5.5 ms; d=64 K=1000 66.7 40.8 25.1 19.2 ms against 24.4 ms.
_SCREEN_BLOCK = 2 ** 16


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


def _drift_bounds(delta: np.ndarray) -> np.ndarray:
    """Per class c, an upper bound on maxₗ ‖δ_c − δ_l‖ over the columns of
    the exact difference δ of two float64 (d, K) weight matrices, given
    ``delta``, its float64 rounding.

    One Gram product gives ‖δ_c − δ_l‖² = g_cc + g_ll − 2g_cl.  Its
    cancellation is bounded by (d+4)·eps·(‖δ_c‖ + ‖δ_l‖)², twice the Gram
    product's and the sum's rounding, plus an underflow floor; eps·(‖δ_c‖ +
    max‖δ_l‖) covers the rounding of ``delta`` itself, and the factor
    1 + (d+4)·eps the square root, the row norms it is multiplied by and
    that product."""
    d = delta.shape[0]
    f = np.finfo(np.float64)
    gram = delta.T @ delta
    sq = gram.diagonal()
    cols = norm_bounds(delta, axis=0)
    pair = cols[:, None] + cols
    spread = sq[:, None] + sq - 2 * gram + (d + 4) * (f.eps * pair * pair + 16 * f.tiny)
    bound = np.sqrt(np.maximum(spread, 0.0).max(axis=1))
    bound += f.eps * (cols + cols.max())
    return bound * (1 + (d + 4) * f.eps)


def _top2(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(argmax per row, the row's max minus its runner-up); overwrites
    each row's max with -inf.  The runner-up is read at a second argmax,
    not reduced with ``max``: numpy reduces a short last axis row by row.
    It is the same value, and a row holding a NaN still gives a NaN
    margin, as argmax stops at the first NaN."""
    n, k = logits.shape
    rows = np.arange(0, n * k, k)
    labels = logits.argmax(axis=1)
    cells = labels + rows
    flat = logits.reshape(-1)
    top = flat[cells]
    flat[cells] = -np.inf
    return labels, top - flat[logits.argmax(axis=1) + rows]


def _screened_argmax(model: LinearModel, data: FeatureDataset,
                     carry: ArgmaxCarry | None = None) -> np.ndarray | None:
    """The exact float64 argmax through a float32 screen, or None where the
    screen cannot decide it.

    Rows whose float32 top-2 margin exceeds 2(e32 + e64) (:func:`_rounding_error`)
    keep their float32 argmax: the float64 logits differ from the float32
    ones by at most that much, so they have the same unique maximum.  The
    other rows, NaN margins included, are recomputed in float64.  That
    row-subset product may take another BLAS kernel than the full one (a
    few rows differ in the last bits), so any recomputed row whose margin
    is within 4·e64 sends the whole call to the full product, which also
    keeps exact ties on the smallest index, as does rechecking more than
    ``_SCREEN_MAX_RECHECK_SHARE`` of the rows.  The screen is skipped for
    shapes where it does not pay (``_SCREEN_MIN_ROW_WORK``,
    ``_SCREEN_MIN_WORK``) and where float32 could overflow.

    Each decided call leaves in ``carry``, if given, its weights W₀, the
    labels and, per row, a lower bound m on the exact margin of its label
    at W₀: m32 − 2·e32 or m64 − 2·e64 (the spare half of e covers the
    rounding of m).  The next call at W on the same dataset carries it
    over: with δ = W − W₀, the exact margin at W is at least m −
    ‖x‖·maxₗ‖δ_c − δ_l‖ (:func:`_drift_bounds`), so a row whose carried
    bound exceeds 2·e64 has the same unique maximum in any float64 product
    and keeps its label without a product.  Only the other rows take the
    screen above, gathered ``_SCREEN_BLOCK`` logits at a time.  Every kept
    label is the float64 argmax at W, so the answer never depends on the
    call history.
    A call that is not decided here empties ``carry``.
    """
    state = None
    if carry is not None:
        state, carry.state = carry.state, None
    x, w = data.features, model.weights
    n, d = x.shape
    row_work = d * model.classes
    if d != model.dim or row_work < _SCREEN_MIN_ROW_WORK or n * row_work < _SCREEN_MIN_WORK:
        return None
    x32, norms = data.screen_arrays
    wnorm = norm_bounds(w, axis=0).max()
    if not (norms.max() + 1) * (wnorm + 1) <= np.finfo(np.float32).max / 4:
        return None
    e64 = _rounding_error(norms, wnorm, d, np.float64)
    if state is not None and state[0] is x32 and state[1].shape == w.shape:
        _, w0, labels, bound = state
        bound -= norms * _drift_bounds(w - w0)[labels]
        rows = np.flatnonzero(~(bound > 2 * e64))
        bound *= 1 - np.finfo(np.float64).eps      # its own rounding, for the next carry
    else:
        labels, bound, rows = np.empty(n, dtype=np.intp), np.empty(n), np.arange(n)
    if rows.size:
        step = min(rows.size, max(1, _SCREEN_BLOCK // model.classes))
        w32, margin = w.astype(np.float32), np.empty(rows.size, dtype=np.float32)
        whole = rows.size == n              # every row, in order: x32 is read in place
        xb = None if whole else np.empty((step, d), np.float32)
        logits = np.empty((step, model.classes), np.float32)
        for start in range(0, rows.size, step):
            part = rows[start:start + step]
            ls = logits[:part.size]
            if whole:
                xs = x32[start:start + part.size]
            else:
                xs = np.take(x32, part, axis=0, out=xb[:part.size], mode="clip")
            np.matmul(xs, w32, out=ls)
            labels[part], margin[start:start + part.size] = _top2(ls)
        e32 = _rounding_error(norms[rows], wnorm, d, np.float32)
        bound[rows] = margin - 2 * e32
        rows = rows[~(margin > 2 * (e32 + e64[rows]))]
        if rows.size > _SCREEN_MAX_RECHECK_SHARE * n:
            return None
        if rows.size:
            sub_labels, margin = _top2(x[rows] @ w)
            if not (margin > 4 * e64[rows]).all():
                return None
            labels[rows] = sub_labels
            bound[rows] = margin - 2 * e64[rows]
    if carry is None:
        return labels
    carry.state = (x32, w.copy(), labels, bound)
    return labels.copy()


def mix_rows_inplace(feat_a: np.ndarray, feat_b: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Feature-space mixup per row, beta * feat_a + (1 - beta) * feat_b, into
    the float64 array ``feat_a``, with ``feat_b`` overwritten as scratch;
    returns ``feat_a``.  ``betas`` holds one weight per row, so a (steps,
    batch) array mixes a (steps, batch, d) block of rows at once.  Each
    entry is rounded as ``beta * a + (1 - beta) * b`` rounds it."""
    betas = np.asarray(betas, dtype=np.float64)
    if betas.size == 0:
        raise SelMixError("mixup needs a nonempty batch")
    # positive comparisons, so a NaN beta fails them
    if not (betas.min() >= 0.0 and betas.max() <= 1.0):
        valid = (betas >= 0.0) & (betas <= 1.0)
        raise SelMixError(f"beta must lie in [0, 1], got {betas[~valid][0]}")
    beta = betas[..., None]
    feat_a *= beta
    feat_b *= 1.0 - beta
    feat_a += feat_b
    return feat_a


def class_centroids(features: FeatureDataset) -> CentroidSet:
    """Mean feature vector per class (validation split in the training loop)."""
    cents = np.zeros((features.num_classes, features.dim))
    for k, idx in enumerate(features.class_layout().indices()):
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
    check_reals(locals(), "beta_bar")
    if not 0.0 < beta_bar <= 1.0:
        raise SelMixError("beta_bar must lie in (0, 1]")
    check_integers(locals(), i=0, j=0)
    z = centroids.centroids
    if z.shape != (model.classes, model.dim) or max(i, j) >= model.classes:
        raise SelMixError(f"need {model.classes} x {model.dim} centroids and i, j below "
                          f"{model.classes}")
    zeta = beta_bar * z[i] + (1.0 - beta_bar) * z[j]
    p = softmax(model.weights.T @ zeta)
    e_i = np.zeros(model.classes)
    e_i[i] = 1.0
    return np.outer(zeta, e_i - p)


def label_cells(labels: np.ndarray, k: int) -> np.ndarray:
    """Flat index of each row's label cell in a class-major (k, n) array,
    n = ``labels.shape[-1]``; raises :class:`SelMixError` for a label
    outside [0, k), whose index would land on another row's cell."""
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise SelMixError(f"labels must lie in [0, {k})")
    n = labels.shape[-1]
    return labels * n + np.arange(n)


def softmax_rows_inplace(p: np.ndarray, col: np.ndarray, axis: int = -1) -> None:
    """Softmax of the logits ``p`` over ``axis``, in place; ``col`` is a
    scratch buffer of ``p``'s shape with 1 on that axis.  The reductions take
    axis, dtype, out and keepdims positionally, which numpy parses faster
    than keywords."""
    np.maximum.reduce(p, axis, None, col, True)
    p -= col
    np.exp(p, out=p)
    np.add.reduce(p, axis, None, col, True)
    p /= col


# the largest product output that sgd_mixup_block forms with np.dot, not matmul
_DOT_MAX = 4096


def sgd_mixup_block(weights: np.ndarray, mixed: np.ndarray, labels: np.ndarray, lrs,
                    shift: np.ndarray | None = None) -> None:
    """SGD steps in place on the float64 (d, K) ``weights``: step s descends
    the batch-mean cross-entropy of the (n, d) mixed rows ``mixed[s]`` against
    ``labels[s]`` (each in [0, K)) at rate ``lrs[s]``, one rate per step.
    ``shift``, a per-class vector, is added to every row's logits inside the
    loss (the warm start's logit adjustment; -inf leaves a class without
    probability).  A step holds its logits class-major, Wᵀxᵀ of shape (K, n),
    as numpy reduces across a leading axis in length-n vector passes but
    along a short last axis row by row, and scales the gradient xᵀpᵀ once,
    by lr/n.  Each product is written into a preallocated buffer by
    ``np.dot`` if the buffer holds at most ``_DOT_MAX`` entries, else by
    ``matmul``: both reach the same dgemm, so the bits are the same, but
    ``np.dot`` costs 0.3–0.5 µs less per call and then more as its output
    grows (crossing over between 4096 and 6400 entries).  At batch 64 (min
    of 40 alternating blocks, 2 cores, numpy 2.4.6, OpenBLAS 0.3.31, one
    BLAS thread) a step took 11.3 µs at d×K = 16×10 against 12.7 µs with
    ``matmul`` alone; at 128×100 and 64×1000 both products take ``matmul``.

    ``mixed`` is converted to a C-contiguous float64 array once per block if
    it is not one, and refused if its dtype does not cast safely to float64.

    The block is atomic.  Its steps run with every floating-point event
    ignored, so the caller's errstate and warning filters change nothing and
    no warning is emitted.  If a weight ends non-finite, ``weights`` is
    restored to the block's start and :class:`SelMixError` is raised.  A
    non-finite weight stays non-finite under ``weights -= grad``, so this
    raises exactly when checking after every step would; the check runs once
    per block, where it cost 1.6 µs at d×K = 16×10 and 4.7 µs at 128×100
    (timeit, 2 cores, numpy 2.4.6).
    """
    if not np.can_cast(mixed.dtype, np.float64):
        raise SelMixError(f"mixed rows of dtype {mixed.dtype} do not cast safely to float64")
    mixed = np.ascontiguousarray(mixed, dtype=np.float64)
    n = mixed.shape[1]
    if n == 0:
        raise SelMixError("mixup needs a nonempty batch")
    if labels.shape != mixed.shape[:2]:
        raise SelMixError("need one label per mixed row")
    if mixed.shape[2] != weights.shape[0]:
        raise SelMixError(f"mixed rows have {mixed.shape[2]} features, weights {weights.shape[0]}")
    if len(lrs) != mixed.shape[0]:
        raise SelMixError(f"need one rate per step, got {len(lrs)} for {mixed.shape[0]} steps")
    cells = label_cells(labels, weights.shape[1])
    scales = (np.asarray(lrs, dtype=np.float64) / n).tolist()
    start = weights.copy()
    p, col, grad = np.empty((weights.shape[1], n)), np.empty((1, n)), np.empty_like(weights)
    flat, pt, wt = p.reshape(-1), p.T, weights.T
    mul_p, mul_grad = (np.dot if out.size <= _DOT_MAX else np.matmul for out in (p, grad))
    shift = None if shift is None else shift[:, None]     # one column: the logits are (K, n)
    with np.errstate(all="ignore"):
        for xt, c, scale in zip(mixed.transpose(0, 2, 1), cells, scales):
            mul_p(wt, xt, p)
            if shift is not None:
                p += shift
            softmax_rows_inplace(p, col, 0)
            flat[c] -= 1.0
            mul_grad(xt, pt, grad)
            grad *= scale
            weights -= grad
    if np.isfinite(weights).all():
        return
    weights[...] = start
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
    sgd_mixup_block(weights, np.asarray(mixed)[None], np.asarray(labels)[None], [lr])
    return LinearModel(weights)
