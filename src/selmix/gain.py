"""Approximate per-pair metric gains and the finite-difference oracle.

The gain of the (i, j) mixup is the directional derivative of the objective
along the weight update V_ij the mixup would induce.  It is approximated as

    G_ij = sum_{k,l} dpsi/dCt[k,l] * (V_ij column l . z_k)

which collapses, with V_ij = zeta_ij (e_i - p_ij)^T, to an O(K^3 d) batch of
matrix products over all pairs at once.  The oracle instead perturbs W by
+-eta V_ij and differences the objective of the smooth surrogate confusion;
the hard argmax confusion is never differentiated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import CentroidSet, LinearModel, class_centroids, direction_matrix, softmax
from .data import FeatureDataset, LTSpec, generate_longtail
from .errors import SelMixError
from .metrics import (
    MEAN_RECALL,
    ConfusionMatrix,
    LagrangeState,
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


def gain_from_metric_grad(
    model: LinearModel,
    centroids: CentroidSet,
    dgrad: np.ndarray,
    beta_bar: float,
) -> np.ndarray:
    """Contract a metric gradient dpsi/dCt with every pair direction.

    Bilinear in ``dgrad``; all K^2 pairs are evaluated in one vectorized
    sweep, identical to per-pair evaluation with
    :func:`selmix.classifier.direction_matrix`.
    """
    if not 0.0 < beta_bar <= 1.0:
        raise SelMixError("beta_bar must lie in (0, 1]")
    z = centroids.centroids                       # (K, d)
    zeta = beta_bar * z[:, None, :] + (1.0 - beta_bar) * z[None, :, :]   # (K, K, d)
    p = softmax(zeta @ model.weights, axis=-1)    # (K, K, K) softmax at mixed centroid
    a = zeta @ z.T                                # a[i, j, k] = zeta_ij . z_k
    # G_ij = sum_k a[i,j,k] * (dgrad[k,i] - sum_l dgrad[k,l] p[i,j,l])
    term1 = np.einsum("ijk,ki->ij", a, dgrad)
    term2 = np.einsum("ijk,kl,ijl->ij", a, dgrad, p, optimize=True)
    return term1 - term2


def gain_matrix(
    model: LinearModel,
    centroids: CentroidSet,
    c: ConfusionMatrix,
    spec: MetricSpec,
    lam: LagrangeState,
    beta_bar: float,
) -> GainMatrix:
    """Evaluate the gain of every (i, j) mixup at the current model.

    ``c`` and ``centroids`` must come from the same validation pass.
    """
    dgrad = metric_grad_unconstrained(spec, c, lam)
    return GainMatrix(gain_from_metric_grad(model, centroids, dgrad, beta_bar))


def gain_fd_oracle(
    model: LinearModel,
    features: FeatureDataset,
    spec: MetricSpec,
    lam: LagrangeState,
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
    if eta <= 0:
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
