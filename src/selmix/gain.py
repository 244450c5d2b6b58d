"""Approximate per-pair metric gains and the finite-difference oracle.

The gain of the (i, j) mixup is the directional derivative of the objective
along the weight update V_ij the mixup would induce.  It is approximated as

    G_ij = sum_{k,l} dpsi/dCt[k,l] * (V_ij column l . z_k)

which, with V_ij = zeta_ij (e_i - p_ij)^T, needs only the K x K products
Z W and Z (Z^T dpsi/dCt): the pair softmaxes factorise into two K x K
exponential tables, so all K^2 pairs cost O(K^2 d + K^3) time (three
K x K matrix products), O(K^2) exps and O(K^2) memory; a guard
recomputes pair by pair the few whose shared shift underflows.  The
oracle instead perturbs W by +-eta V_ij and differences the objective of
the smooth surrogate confusion; the hard argmax confusion is never
differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import CentroidSet, LinearModel, class_centroids, direction_matrix
from .data import FeatureDataset, LTSpec, generate_longtail
from .errors import SelMixError, check_reals
from .metrics import (
    MEAN_RECALL,
    ConfusionMatrix,
    MetricSpec,
    evaluate_metric,
    metric_grad_unconstrained,
    neutral_lagrange,
    soft_confusion,
)


@dataclass(frozen=True)
class GainMatrix:
    """K x K matrix of approximate objective-change rates per class pair."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise SelMixError("gain matrix must be square")
        if not np.all(np.isfinite(v)):
            raise SelMixError("gain matrix must be finite")


# Logits recomputed at once by the underflow guard; bounds its peak memory.
_GUARD_ELEMENTS = 1 << 18
# Smallest trusted normaliser of the factorised form: the terms it loses to
# underflow, each below e^-708, stay under e^-108 of it.
_MIN_NORMALISER = float(np.exp(-600.0))


def gain_from_metric_grad(
    model: LinearModel,
    centroids: CentroidSet,
    dgrad: np.ndarray,
    beta_bar: float,
) -> np.ndarray:
    """Contract a metric gradient dpsi/dCt with every pair direction.

    Bilinear in ``dgrad`` and equal to per-pair evaluation with
    :func:`selmix.classifier.direction_matrix`.  The mixed centroid
    zeta_ij = beta_bar z_i + (1 - beta_bar) z_j is linear, so its logits and
    its projection M_ij = zeta_ij Z^T dgrad are the same mix of rows i and j
    of the K x K products A = Z W and B = Z Z^T dgrad, and

        G_ij = M_ij[i] - sum_l M_ij[l] p_ij[l],   p_ij = softmax(zeta_ij W).

    With each row of A shifted by its own max, the unnormalised softmax
    factorises as e_ij[l] = U[i, l] V[j, l], U = exp(beta_bar A),
    V = exp((1 - beta_bar) A), so its sum and both halves of the M-weighted
    sum are the K x K products U V^T, (B o U) V^T and U (B o V)^T.  That is
    O(K^2 d + K^3) time, O(K^2) exps and O(K^2) memory.  The shared shift
    can overshoot a pair's own max logit until its normaliser underflows;
    every pair whose normaliser is not >= ``_MIN_NORMALISER`` (0 and NaN
    included) is recomputed with its own max subtracted, in chunks of about
    ``_GUARD_ELEMENTS / K`` pairs.
    """
    check_reals(locals(), "beta_bar")
    if not 0.0 < beta_bar <= 1.0:
        raise SelMixError("beta_bar must lie in (0, 1]")
    z = centroids.centroids                       # (K, d)
    alpha = 1.0 - beta_bar
    zb = z @ (z.T @ dgrad)                        # zb[i, l] = sum_k (z_i . z_k) dgrad[k, l]
    v = z @ model.weights                         # logits at each centroid
    v -= v.max(axis=1, keepdims=True)
    u = np.exp(beta_bar * v)
    v *= alpha
    np.exp(v, out=v)
    norm = u @ v.T                                # sum_l e_ij[l]
    buf = zb * v
    out = u @ buf.T                               # sum_l zb[j, l] e_ij[l]
    out *= alpha
    np.multiply(zb, u, out=buf)
    np.matmul(buf, v.T, out=u)                    # sum_l zb[i, l] e_ij[l]
    u *= beta_bar
    out += u
    trusted = norm >= _MIN_NORMALISER
    np.divide(out, norm, out=out, where=trusted)
    own = np.multiply(zb.T, alpha, out=buf)       # M_ij[i]
    own += beta_bar * np.diag(zb)[:, None]
    np.subtract(own, out, out=out)
    rows, cols = np.nonzero(~trusted)             # recomputed pair by pair
    if rows.size:
        zw = z @ model.weights
        step = max(1, _GUARD_ELEMENTS // zw.shape[1])
        for lo in range(0, rows.size, step):
            i, j = rows[lo:lo + step], cols[lo:lo + step]
            e = beta_bar * zw[i] + alpha * zw[j]
            e -= e.max(axis=1, keepdims=True)
            np.exp(e, out=e)
            mixed = np.einsum("pl,pl->p", e, beta_bar * zb[i] + alpha * zb[j])
            out[i, j] = own[i, j] - mixed / e.sum(axis=1)
    return out


def gain_matrix(
    model: LinearModel,
    centroids: CentroidSet,
    c: ConfusionMatrix,
    spec: MetricSpec,
    lam: np.ndarray,
    beta_bar: float,
) -> GainMatrix:
    """Evaluate the gain of every (i, j) mixup at the current model.

    ``c`` and ``centroids`` must come from the same validation pass.  A
    product that overflows emits no warning: :class:`GainMatrix` refuses the
    non-finite result.
    """
    if centroids.centroids.shape != (c.k, model.dim) or model.classes != c.k:
        raise SelMixError(f"need a {c.k}-class model and {c.k} x {model.dim} centroids for a "
                          f"{c.k}-class confusion")
    dgrad = metric_grad_unconstrained(spec, c, lam)
    with np.errstate(all="ignore"):
        values = gain_from_metric_grad(model, centroids, dgrad, beta_bar)
    return GainMatrix(values)


def gain_fd_oracle(
    model: LinearModel,
    features: FeatureDataset,
    spec: MetricSpec,
    lam: np.ndarray,
    centroids: CentroidSet,
    i: int,
    j: int,
    beta_bar: float,
    eta: float = 1e-4,
) -> float:
    """Central-difference directional derivative of psi(soft confusion)
    along V_ij, with the multipliers held fixed.

    This is the ground truth the gain formula approximates; agreement
    tightens as the within-class feature spread shrinks.
    """
    check_reals(locals(), "eta")
    if not eta > 0:
        raise SelMixError("eta must be positive")
    v = direction_matrix(model, centroids, i, j, beta_bar)
    plus = evaluate_metric(spec, soft_confusion(LinearModel(model.weights + eta * v), features), lam)
    minus = evaluate_metric(spec, soft_confusion(LinearModel(model.weights - eta * v), features), lam)
    return (plus - minus) / (2.0 * eta)


def gain_oracle_median_error(k: int, d: int, within_std: float, seeds) -> float:
    """Median relative error of mean-recall gains (beta_bar = 0.75) against
    the oracle over every pair and seed: per seed, a rho = 4 cluster pool at
    ``within_std`` and a model near its means.  Shrinks with ``within_std``."""
    spec = MetricSpec(MEAN_RECALL)
    lam = neutral_lagrange(spec, k)
    errors = []
    for seed in seeds:
        lt = LTSpec(K=k, d=d, N1=60, rho=4.0, within_std=within_std, seed=seed)
        val = generate_longtail(lt)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA11)))
        model = LinearModel(lt.class_means().T + 0.3 * rng.standard_normal((d, k)))
        cents = class_centroids(val)
        gains = gain_matrix(model, cents, soft_confusion(model, val), spec, lam, 0.75)
        for i in range(k):
            for j in range(k):
                oracle = gain_fd_oracle(model, val, spec, lam, cents, i, j, 0.75)
                errors.append(abs(gains.values[i, j] - oracle) / (abs(oracle) + 1e-8))
    return float(np.median(errors))
