"""Confusion-matrix construction, objective evaluation, analytic gradients
through the softmax reparameterization, and Lagrange-multiplier schedules.

The confusion matrix C is K x K with C[i, j] the joint probability of true
class i and predicted class j, so row i sums to the class prior pi_i.  For
differentiation C is reparameterized row-wise as C_i = pi_i * softmax(Ct_i)
with an unconstrained matrix Ct; every objective here has a gradient w.r.t.
Ct that is expressible purely in terms of C:

    dC[i,l]/dCt[i,j] = C[i,j] - C[i,j]^2 / pi_i   (l == j)
                     = -C[i,l] C[i,j] / pi_i      (l != j)

(diagonal denominator pi_i, not pi_i^2 -- the chain rule through the row
softmax fixes it, and the finite-difference tests pin it down).  Lagrange
multipliers are treated as constants during differentiation and refreshed
once per validation cycle.

The nine metric kinds differ in three choices, and the table ``_KINDS``
alone records them: the base mean of the recalls (mean, G- or H-mean, or
none), the multiplier family (simplex weights on recalls, clamped penalties
on coverages, or none), and whether the multipliers act on each class or on
the head and tail group means.  Every objective, multiplier and gradient
function below reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import ceil
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .classifier import ArgmaxCarry, LinearModel, checked_logits, predict, softmax
from .data import FeatureDataset
from .errors import DataError, SelMixError, check_integers, check_reals

MEAN_RECALL = "mean_recall"
G_MEAN = "g_mean"
H_MEAN = "h_mean"
MIN_RECALL = "min_recall"
MIN_RECALL_HEAD_TAIL = "min_recall_head_tail"
MEAN_RECALL_COVERAGE = "mean_recall_coverage"
H_MEAN_COVERAGE = "h_mean_coverage"
MEAN_RECALL_COVERAGE_HEAD_TAIL = "mean_recall_coverage_head_tail"
H_MEAN_COVERAGE_HEAD_TAIL = "h_mean_coverage_head_tail"

_SIMPLEX = "simplex"
_COVERAGE = "coverage"


class _KindRule(NamedTuple):
    base: str | None  # MEAN_RECALL, G_MEAN or H_MEAN; None for min-recall kinds
    family: str | None  # _SIMPLEX, _COVERAGE, or None for unconstrained kinds
    grouped: bool  # multipliers act on the head and tail means, not on each class


_KINDS = {
    MEAN_RECALL: _KindRule(MEAN_RECALL, None, False),
    G_MEAN: _KindRule(G_MEAN, None, False),
    H_MEAN: _KindRule(H_MEAN, None, False),
    MIN_RECALL: _KindRule(None, _SIMPLEX, False),
    MIN_RECALL_HEAD_TAIL: _KindRule(None, _SIMPLEX, True),
    MEAN_RECALL_COVERAGE: _KindRule(MEAN_RECALL, _COVERAGE, False),
    H_MEAN_COVERAGE: _KindRule(H_MEAN, _COVERAGE, False),
    MEAN_RECALL_COVERAGE_HEAD_TAIL: _KindRule(MEAN_RECALL, _COVERAGE, True),
    H_MEAN_COVERAGE_HEAD_TAIL: _KindRule(H_MEAN, _COVERAGE, True),
}
METRIC_KINDS = tuple(_KINDS)


@dataclass(frozen=True)
class ConfusionMatrix:
    """Joint (true, predicted) probability matrix with its row priors."""

    entries: np.ndarray
    priors: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.entries, dtype=np.float64)
        pi = np.asarray(self.priors, dtype=np.float64)
        object.__setattr__(self, "entries", c)
        object.__setattr__(self, "priors", pi)
        k = pi.shape[0]
        if pi.ndim != 1 or c.shape != (k, k):
            raise SelMixError("entries must be K x K matching K priors")
        # positive comparisons on reductions, so a NaN entry or prior fails them
        if not (k and c.min() >= -1e-12 and pi.min() > 0):
            raise SelMixError("entries must be nonnegative and priors positive")
        if not abs(c.sum() - 1.0) <= 1e-9:
            raise SelMixError("confusion entries must sum to 1")
        if not np.abs(c.sum(axis=1) - pi).max() <= 1e-9:
            raise SelMixError("row sums must equal priors")
        if not abs(pi.sum() - 1.0) <= 1e-9:
            raise SelMixError("priors must sum to 1")

    @property
    def k(self) -> int:
        return self.priors.shape[0]

    def recalls(self) -> np.ndarray:
        return np.diag(self.entries) / self.priors

    def coverages(self) -> np.ndarray:
        return self.entries.sum(axis=0)

    def with_floor(self, eps: float) -> "ConfusionMatrix":
        """Copy with every entry floored at eps and rows rescaled back to
        their priors.

        The row softmax parameterization has a vanishing gradient wherever
        an entry is exactly zero, so a class whose prediction column
        collapses would otherwise stop producing any restoring signal.
        Flooring at a fraction of one count keeps that signal alive without
        visibly distorting the estimate."""
        if eps <= 0:
            return self
        c = np.maximum(self.entries, eps)
        c *= (self.priors / c.sum(axis=1))[:, None]
        return ConfusionMatrix(c, self.priors)


@dataclass(frozen=True)
class MetricSpec:
    """Which objective to optimize, with its relaxation constants.

    ``head_set`` (for the head/tail variants) defaults to all but the last
    ceil(K/10) classes; the complement is the tail.
    """

    kind: str
    omega: float = 40.0
    alpha: float = 0.95
    lambda_max: float = 100.0
    tau: float = 0.01
    head_set: tuple[int, ...] | None = None
    # head_tail's read-only results by K: the split depends on nothing else
    _head_tail: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SelMixError(f"unknown metric kind {self.kind!r}")
        check_reals(self, "omega", "alpha", "lambda_max", "tau")
        if not all(0 < v < np.inf for v in (self.omega, self.lambda_max, self.tau)):
            raise SelMixError("omega, lambda_max, tau must be positive and finite")
        if not 0.0 < self.alpha <= 1.0:
            raise SelMixError("alpha must lie in (0, 1]")
        if self.head_set is not None:
            if not all(isinstance(v, Integral) and v >= 0 for v in self.head_set):
                raise SelMixError(f"head_set must hold integers >= 0, got {self.head_set!r}")
            object.__setattr__(self, "head_set", tuple(sorted(set(self.head_set))))

    def head_tail(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(head, tail) read-only index arrays, built once per K; the default
        tail is the last ceil(K/10) classes (least frequent under the
        long-tailed ordering)."""
        if k in self._head_tail:
            return self._head_tail[k]
        if self.head_set is None:
            head = np.arange(k - ceil(k / 10))
        else:
            head = np.asarray(self.head_set, dtype=np.int64)
            if head.size and head.max() >= k:
                raise SelMixError("head_set indices out of range")
        tail = np.setdiff1d(np.arange(k), head)
        if _KINDS[self.kind].grouped and (head.size == 0 or tail.size == 0):
            raise SelMixError("head_set must be a nonempty proper subset for head/tail kinds")
        head.flags.writeable = tail.flags.writeable = False
        self._head_tail[k] = head, tail
        return head, tail


def _multiplier_count(rule: _KindRule, k: int) -> int:
    """One multiplier per head/tail group or per class; none without a family."""
    return 0 if rule.family is None else 2 if rule.grouped else k


def neutral_lagrange(spec: MetricSpec, k: int) -> np.ndarray:
    """Multipliers usable before the first update: uniform simplex for
    min-recall kinds, zeros for coverage kinds, empty for unconstrained
    kinds."""
    check_integers(locals(), k=1)
    rule = _KINDS[spec.kind]
    n = _multiplier_count(rule, k)
    return np.full(n, 1.0 / n) if rule.family == _SIMPLEX else np.zeros(n)


def validate_lagrange(spec: MetricSpec, lam: np.ndarray, k: int) -> np.ndarray:
    """The multiplier vector ``lam`` as float64: simplex weights for
    min-recall kinds, penalties in [0, lambda_max] for coverage kinds.
    Rejects multipliers of the wrong length or outside their family's set;
    unconstrained kinds ignore them.  The comparisons are positive, so a NaN
    or infinite multiplier fails them."""
    rule = _KINDS[spec.kind]
    lams = np.asarray(lam, dtype=np.float64)
    if rule.family is None:
        return lams
    ok = lams.shape == (_multiplier_count(rule, k),) and np.all(lams >= -1e-12)
    if rule.family == _SIMPLEX:
        if not (ok and abs(lams.sum() - 1.0) <= 1e-9):
            raise SelMixError("min-recall multipliers must lie on the simplex")
    elif not (ok and np.all(lams <= spec.lambda_max + 1e-9)):
        raise SelMixError("coverage multipliers must lie in [0, lambda_max]")
    return lams


def confusion_from_predictions(labels, predictions, num_classes: int) -> ConfusionMatrix:
    """Empirical hard confusion matrix: entries[i, j] = #\\{y=i, yhat=j\\} / N."""
    check_integers(locals(), DataError, num_classes=1)
    labels, predictions = np.asarray(labels), np.asarray(predictions)
    if labels.size == 0:
        raise DataError("empty evaluation set")
    if labels.ndim != 1 or labels.shape != predictions.shape:
        raise DataError("labels and predictions must be 1-D of the same length")
    if labels.dtype.kind not in "iu" or predictions.dtype.kind not in "iu":
        raise DataError("labels and predictions must be integer arrays")
    labels, predictions = (a.astype(np.int64, copy=False) for a in (labels, predictions))
    if labels.min() < 0 or labels.max() >= num_classes:
        raise DataError("label outside [0, K)")
    if predictions.min() < 0 or predictions.max() >= num_classes:
        raise DataError("prediction outside [0, K)")
    counts = np.bincount(labels * num_classes + predictions, minlength=num_classes**2)
    entries = counts.reshape(num_classes, num_classes) / labels.size
    priors = entries.sum(axis=1)
    if not priors.all():                 # the first zero prior is the first minimum
        raise DataError(f"class {int(priors.argmin())} absent from evaluation set")
    return ConfusionMatrix(entries, priors)


def model_confusion(model: LinearModel, features: FeatureDataset,
                    carry: ArgmaxCarry | None = None) -> ConfusionMatrix:
    """Hard confusion of the model's argmax predictions on a labeled set
    (``carry`` as in :func:`predict`)."""
    return confusion_from_predictions(
        features.labels, predict(model, features, carry), features.num_classes
    )


def soft_confusion(model: LinearModel, features: FeatureDataset) -> ConfusionMatrix:
    """Surrogate confusion with softmax probabilities replacing the argmax
    indicator; smooth in W, used by the finite-difference gain oracle."""
    if features.n == 0:
        raise DataError("empty evaluation set")
    probs = softmax(checked_logits(model, features))
    k = features.num_classes
    entries = np.zeros((k, k))
    for i, idx in enumerate(features.class_layout().indices()):
        if idx.size == 0:
            raise DataError(f"class {i} absent from evaluation set")
        entries[i] = probs[idx].sum(axis=0)
    entries /= features.n
    return ConfusionMatrix(entries, entries.sum(axis=1))


def unconstrained_to_confusion(c_tilde: np.ndarray, priors: np.ndarray) -> ConfusionMatrix:
    """Map an unconstrained matrix back through C_i = pi_i * softmax(Ct_i)."""
    c_tilde = np.asarray(c_tilde, dtype=np.float64)
    priors = np.asarray(priors, dtype=np.float64)
    if not np.all(np.isfinite(c_tilde)):
        raise SelMixError("unconstrained matrix must be finite")
    if priors.ndim != 1 or c_tilde.shape != (priors.size, priors.size):
        raise SelMixError("need K priors and a K x K unconstrained matrix")
    if np.any(priors <= 0) or abs(priors.sum() - 1.0) > 1e-9:
        raise SelMixError("priors must be positive and sum to 1")
    entries = priors[:, None] * softmax(c_tilde)
    return ConfusionMatrix(entries, priors)


def _groups(spec: MetricSpec, k: int) -> tuple[np.ndarray, ...] | None:
    """(head, tail) for grouped kinds, None when each class has its own multiplier."""
    return spec.head_tail(k) if _KINDS[spec.kind].grouped else None


def _per_group(values: np.ndarray, groups: tuple[np.ndarray, ...] | None) -> np.ndarray:
    """Per-class values, or their mean over each group."""
    return values if groups is None else np.array([values[g].mean() for g in groups])


def _base_mean(base: str, rec: np.ndarray) -> float:
    """Mean, G-mean or H-mean of the recalls; the last two give 0 at a zero recall."""
    if base == MEAN_RECALL:
        return float(rec.mean())
    if np.any(rec <= 0):
        return 0.0
    if base == G_MEAN:
        return float(np.exp(np.log(rec).mean()))
    return float(rec.size / np.sum(1.0 / rec))


def _base_mean_grad(base: str, c: ConfusionMatrix) -> np.ndarray:
    """d base / d C[i, i]; the base depends on no off-diagonal entry."""
    k = c.k
    if base == MEAN_RECALL:
        return 1.0 / (k * c.priors)
    diag = np.diag(c.entries)
    if np.any(diag <= 0):
        raise SelMixError("metric gradient undefined at zero recall")
    rec = c.recalls()
    if base == G_MEAN:
        return np.exp(np.log(rec).mean()) / (k * diag)
    psi = k / np.sum(1.0 / rec)
    return psi**2 * c.priors / (k * diag**2)


def evaluate_metric(spec: MetricSpec, c: ConfusionMatrix, lam: np.ndarray) -> float:
    """psi(C) with the current multipliers plugged in: lambda . recall for
    min-recall kinds, the base mean plus lambda . (coverage - alpha/K) for
    coverage kinds, with head and tail means in place of per-class values
    for grouped kinds.  G-mean and H-mean give their limit 0 at a zero
    recall instead of dividing by zero."""
    lam = validate_lagrange(spec, lam, c.k)
    rule = _KINDS[spec.kind]
    rec = c.recalls()
    if rule.family is None:
        return _base_mean(rule.base, rec)
    groups = _groups(spec, c.k)
    if rule.family == _SIMPLEX:
        return float(lam @ _per_group(rec, groups))
    slack = _per_group(c.coverages(), groups) - spec.alpha / c.k
    return _base_mean(rule.base, rec) + float(lam @ slack)


def _dpsi_dc(spec: MetricSpec, c: ConfusionMatrix, lam: np.ndarray) -> np.ndarray:
    """Partial derivatives of psi w.r.t. the confusion entries themselves
    (multipliers held constant)."""
    rule = _KINDS[spec.kind]
    k = c.k
    out = np.zeros((k, k))
    idx = np.arange(k)
    if rule.base is not None:
        out[idx, idx] += _base_mean_grad(rule.base, c)
    if rule.family is None:
        return out
    # each class's multiplier, and the size of the group whose mean it weights
    weight, size = lam, 1
    groups = _groups(spec, k)
    if groups is not None:
        weight, size = np.empty(k), np.empty(k)
        for lam_g, g in zip(lam, groups):
            weight[g], size[g] = lam_g, g.size
    if rule.family == _SIMPLEX:
        out[idx, idx] += weight / (size * c.priors)
    else:
        out += (weight / size)[None, :]
    return out


def metric_grad_unconstrained(
    spec: MetricSpec, c: ConfusionMatrix, lam: np.ndarray
) -> np.ndarray:
    """d psi / d Ct through the row-softmax reparameterization.

    Every row of the result sums to 0 (psi is invariant to constant shifts
    of a Ct row).
    """
    p = _dpsi_dc(spec, c, validate_lagrange(spec, lam, c.k))
    # row-wise: Ct_ij gradient = C_ij * (P_ij - sum_l P_il C_il / pi_i)
    weighted = (p * c.entries).sum(axis=1) / c.priors
    return c.entries * (p - weighted[:, None])


def update_lagrange(spec: MetricSpec, c: ConfusionMatrix) -> np.ndarray:
    """Momentum-free multiplier refresh, on per-class or group-mean values.

    Min-recall kinds: softmax(-omega * recall), concentrating on the worst
    classes.  Coverage kinds: lambda_j = max(0, lambda_max * (1 -
    exp((cov_j - alpha/K) / tau))), clamped at zero exactly when the
    constraint is met.  A slack that overflows (a tiny ``tau``) is ±inf,
    whose limits are 0 and ``lambda_max``.
    """
    family = _KINDS[spec.kind].family
    if family is None:
        return np.zeros(0)
    groups = _groups(spec, c.k)
    if family == _SIMPLEX:
        return softmax(-spec.omega * _per_group(c.recalls(), groups))
    with np.errstate(over="ignore"):
        slack = (_per_group(c.coverages(), groups) - spec.alpha / c.k) / spec.tau
    lam = spec.lambda_max * (1.0 - np.exp(np.minimum(slack, 0.0)))
    return np.where(slack >= 0.0, 0.0, lam)
