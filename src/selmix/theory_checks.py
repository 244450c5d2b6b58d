"""Numerical verification of the convergence-rate claim and the mixup
regularization approximation.

``convergence_check`` runs stochastic ascent on a concave quadratic with
update directions that only align with the gradient in expectation, and
tests the measured suboptimality against the 4 gamma R0^2 / (c^2 (t-1))
envelope.  ``mixup_regularization_check`` compares a Monte-Carlo estimate
of the pairwise mixup loss against the standard loss plus the quadratic
regularizer

    E[(1-lam)^2 / (2 lam^2)] * Tr(H_bar  Th  Sigma  Th^T),

where the expectation is over the reweighted mixture
alpha/(alpha+beta) * Beta(alpha+1, beta) + beta/(alpha+beta) * Beta(beta+1,
alpha), H_bar is the per-sample average of the weighted log-sum-exp
Hessians, Sigma the empirical feature covariance, and Th the first K-1
weight rows (the last row is pinned to zero).  The Hessian factor is
normalized per sample so both sides of the comparison are sample averages.
"""

from __future__ import annotations

import math

import numpy as np

from .classifier import log_softmax, softmax
from .errors import SelMixError


def _norm(a: np.ndarray) -> float:
    """``np.linalg.norm(a)`` by its own formula, without its dispatch."""
    x = a.ravel()
    return math.sqrt(x @ x)


def _fit_loglog_slope(ts: np.ndarray, values: np.ndarray, floor: float) -> float:
    """Log-log slope over the points still above the numerical floor.

    Once the iterate reaches W* up to float64 resolution the suboptimality
    plateaus near (eps * ||W||)^2; those samples carry no rate information.
    If fewer than three informative points remain the decay outran the
    window entirely and the slope is reported as -inf.
    """
    keep = values > floor
    if keep.sum() < 3:
        return float("-inf")
    slope = np.polyfit(np.log(ts[keep]), np.log(values[keep]), 1)[0]
    return float(slope)


def convergence_check(
    K: int,
    d: int,
    alignment_c: float,
    T: int,
    seed: int,
) -> dict:
    """Stochastic ascent on psi(W) = -||W - W*||_F^2 with c-aligned directions.

    Each step moves along the exact gradient direction with probability
    ``alignment_c`` and along a random unit direction otherwise, with step
    size (c / 2 gamma) ||grad psi(W_t)|| as in the rate proof (gamma = 2
    for this quadratic).  Reports the fitted log-log decay exponent of the
    suboptimality over the last half of the horizon and whether every
    t > 10 stayed under 4 gamma R0^2 / (c^2 (t-1)), with R0 measured from
    the trajectory.
    """
    if not 0.0 < alignment_c <= 1.0:
        raise SelMixError("alignment_c must lie in (0, 1]")
    if T < 100:
        raise SelMixError("T must be >= 100")
    if K < 1 or d < 1:
        raise SelMixError("need K >= 1, d >= 1")
    if seed < 0:
        raise SelMixError("seed must be >= 0")
    gamma = 2.0
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0)))
    w_star = rng.standard_normal((d, K))
    w = rng.standard_normal((d, K))

    subopt = np.empty(T + 1)
    max_norm = _norm(w)
    subopt[0] = np.sum((w - w_star) ** 2)
    for t in range(1, T + 1):
        grad = -2.0 * (w - w_star)
        gnorm = _norm(grad)
        if gnorm > 0:
            if rng.random() < alignment_c:
                v = grad / gnorm
            else:
                raw = rng.standard_normal((d, K))
                v = raw / _norm(raw)
            w = w + (alignment_c / (2.0 * gamma)) * gnorm * v
        max_norm = max(max_norm, _norm(w))
        subopt[t] = np.sum((w - w_star) ** 2)

    r0 = _norm(w_star) + max_norm
    ts = np.arange(1, T + 1)
    bound = 4.0 * gamma * r0**2 / (alignment_c**2 * np.maximum(ts - 1, 1))
    late = ts > 10
    bound_ok = bool(np.all(subopt[1:][late] <= bound[late]))
    half = ts >= T // 2
    numerical_floor = (1e-13 * r0) ** 2
    exponent = _fit_loglog_slope(ts[half], subopt[1:][half], numerical_floor)
    decades = {str(t): float(subopt[t]) for t in (1, 10, 100, 1000, 10_000) if t <= T}
    return {
        "K": K,
        "d": d,
        "alignment_c": alignment_c,
        "T": T,
        "seed": seed,
        "fitted_rate_exponent": exponent,
        "bound_satisfied": bound_ok,
        "final_suboptimality": float(subopt[-1]),
        "suboptimality_decades": decades,
        "measured_R0": float(r0),
    }


def _weighted_ce(logits: np.ndarray, labels: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-sample loss -sum_i w[y, i] log softmax_i(logits)."""
    return -(w[labels] * log_softmax(logits)).sum(axis=1)


def _lse_hessians(xi: np.ndarray) -> np.ndarray:
    """Hessian of xi -> log(1 + sum exp(xi_i)) at each row of xi,
    shape (N, K-1, K-1)."""
    n, km1 = xi.shape
    full = np.concatenate([xi, np.zeros((n, 1))], axis=1)
    sigma = softmax(full)[:, :km1]
    h = -sigma[:, :, None] * sigma[:, None, :]
    idx = np.arange(km1)
    h[:, idx, idx] += sigma
    return h


def reweighted_lambda_moment(
    alpha: float, beta: float, draws: int, rng: np.random.Generator
) -> tuple[float, float]:
    """Monte-Carlo (E[(1-lam)^2 / (2 lam^2)], E[lam]) under the reweighted
    Beta mixture; the second moment requires alpha > 1 to be finite."""
    pick_first = rng.random(draws) < alpha / (alpha + beta)
    lam = np.where(
        pick_first,
        rng.beta(alpha + 1.0, beta, size=draws),
        rng.beta(beta + 1.0, alpha, size=draws),
    )
    return float(np.mean((1.0 - lam) ** 2 / (2.0 * lam**2))), float(lam.mean())


def mixup_regularization_check(
    K: int,
    d: int,
    alpha_beta: tuple[float, float],
    theta_scale: float,
    N: int,
    mc_pairs: int,
    seed: int,
    w: np.ndarray | None = None,
    moment_draws: int = 200_000,
) -> dict:
    """Compare Monte-Carlo mixup loss against its second-order Taylor form.

    Draws N centralized Gaussian samples with uniform labels and a random
    weight matrix of Frobenius scale ``theta_scale`` (last row zero), then
    estimates the pairwise mixup loss over ``mc_pairs`` (n, m, lam) draws
    with lam ~ Beta(alpha, beta).  The reported relative error shrinks as
    theta_scale does; at theta = 0 both sides equal log K exactly.  The
    random draws do not depend on theta_scale, so calls sharing a seed use
    common random numbers across scales.
    """
    alpha, beta = alpha_beta
    if not (1.0 < alpha < np.inf and 1.0 < beta < np.inf):
        raise SelMixError("regularizer moment diverges: need finite alpha, beta > 1")
    if not np.isfinite(theta_scale):
        raise SelMixError("theta_scale must be finite")
    if K < 2 or d < 1 or N < 2 or mc_pairs < 1:
        raise SelMixError("need K >= 2, d >= 1, N >= 2, mc_pairs >= 1")
    if seed < 0:
        raise SelMixError("seed must be >= 0")
    if w is None:
        w = np.eye(K)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (K, K) or np.any(w < 0):
        raise SelMixError("gain-weight matrix must be nonnegative K x K")

    ss = np.random.SeedSequence((seed, 0x317))
    data_rng, pair_rng, moment_rng = (np.random.default_rng(s) for s in ss.spawn(3))

    x = data_rng.standard_normal((N, d))
    x -= x.mean(axis=0)          # Taylor form assumes centralized samples
    y = data_rng.integers(0, K, size=N)
    theta = theta_scale * data_rng.standard_normal((K, d))
    theta[K - 1] = 0.0

    std_loss = float(_weighted_ce(x @ theta.T, y, w).mean())

    n_idx = pair_rng.integers(0, N, size=mc_pairs)
    m_idx = pair_rng.integers(0, N, size=mc_pairs)
    lam = pair_rng.beta(alpha, beta, size=mc_pairs)
    mixed = lam[:, None] * x[n_idx] + (1.0 - lam)[:, None] * x[m_idx]
    logits = mixed @ theta.T
    loss_first = _weighted_ce(logits, y[n_idx], w)
    loss_second = _weighted_ce(logits, y[m_idx], w)
    mixup_mc = float(np.mean(lam * loss_first + (1.0 - lam) * loss_second))

    theta_tilde = theta[: K - 1]
    sigma_x = x.T @ x / N
    hess = _lse_hessians(x @ theta_tilde.T)
    weights = w[y].sum(axis=1)
    h_bar = np.einsum("n,nij->ij", weights, hess) / N
    moment, lam_mean = reweighted_lambda_moment(alpha, beta, moment_draws, moment_rng)
    regularizer = float(moment * np.trace(h_bar @ theta_tilde @ sigma_x @ theta_tilde.T))
    taylor = std_loss + regularizer

    rel_error = abs(mixup_mc - taylor) / max(abs(mixup_mc), 1e-300)
    return {
        "K": K,
        "d": d,
        "alpha": alpha,
        "beta": beta,
        "theta_scale": theta_scale,
        "N": N,
        "mc_pairs": mc_pairs,
        "seed": seed,
        "mixup_loss_mc": mixup_mc,
        "std_loss": std_loss,
        "regularizer": regularizer,
        "taylor_approx": taylor,
        "rel_error": float(rel_error),
        "lambda_moment": moment,
        "lambda_mean": lam_mean,
    }
