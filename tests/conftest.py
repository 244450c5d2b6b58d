"""Shared helpers: random valid confusion matrices, random multiplier
states, and the central finite-difference oracle for the reparameterized
metric gradients."""

import numpy as np

from selmix.metrics import (
    ConfusionMatrix,
    LagrangeState,
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


def random_lagrange(rng: np.random.Generator, spec: MetricSpec, k: int) -> LagrangeState:
    """Random multipliers shaped like ``neutral_lagrange``: a Dirichlet draw
    where the neutral state is a uniform simplex, uniform in [0, lambda_max]
    where it is zeros, and the empty state for unconstrained kinds."""
    neutral = neutral_lagrange(spec, k)
    size = neutral.lambdas.size
    if neutral.lambdas.any():
        return LagrangeState(rng.dirichlet(np.ones(size)))
    if size:
        return LagrangeState(rng.uniform(0.0, spec.lambda_max, size=size))
    return neutral


def fd_metric_grad(
    spec: MetricSpec, c: ConfusionMatrix, lam: LagrangeState, step: float = 1e-5
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
