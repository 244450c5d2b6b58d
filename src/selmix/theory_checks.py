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

The moments are exact; with a = alpha, b = beta they are finite iff a, b > 1:

    E[(1-lam)^2 / (2 lam^2)] = [b(b+1) / (a-1) + a(a+1) / (b-1)] / (2 (a+b)),
    E[lam] = (a(a+1) + b(b+1)) / ((a+b)(a+b+1)).
"""

from __future__ import annotations

import math

import numpy as np

from .classifier import log_softmax, softmax
from .errors import SelMixError, check_integers, check_reals


def _norm(x: np.ndarray) -> float:
    """``np.linalg.norm(x)`` of a vector by its own formula, without its
    dispatch."""
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
    check_reals(locals(), "alignment_c")
    if not 0.0 < alignment_c <= 1.0:
        raise SelMixError("alignment_c must lie in (0, 1]")
    check_integers(locals(), K=1, d=1, T=100, seed=0)
    gamma = 2.0
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0)))
    # W* and W as flat d·K vectors: the same draws in C order, and only
    # their norms and sums are read
    n = d * K
    w_star = rng.standard_normal(n)
    w = rng.standard_normal(n)
    diff, sq, move = w - w_star, np.empty(n), np.empty(n)  # diff: W - W*, kept current

    subopt = np.empty(T + 1)
    max_norm = _norm(w)
    subopt[0] = np.add.reduce(np.multiply(diff, diff, out=sq), None)
    for t in range(1, T + 1):
        gnorm = _norm(np.multiply(diff, -2.0, out=move))     # the gradient
        if gnorm > 0:
            if rng.random() < alignment_c:
                move /= gnorm
            else:
                rng.standard_normal(out=move)
                move /= _norm(move)
            move *= (alignment_c / (2.0 * gamma)) * gnorm
            w += move
            np.subtract(w, w_star, out=diff)
        max_norm = max(max_norm, _norm(w))
        subopt[t] = np.add.reduce(np.multiply(diff, diff, out=sq), None)

    r0 = _norm(w_star) + max_norm
    ts = np.arange(1, T + 1)
    # the envelope times c^2 (t-1): a c^2 that underflows to 0 makes it vacuous
    late = ts > 10
    scaled = subopt[1:][late] * (alignment_c**2 * (ts[late] - 1))
    bound_ok = bool(np.all(scaled <= 4.0 * gamma * r0**2))
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


# pairs per block of the Monte-Carlo mixup loss; the remainder joins the last
# block, since a shorter matrix product may take another BLAS kernel and round
# its rows differently
_MC_BLOCK = 4096


def _weighted_ce(log_probs: np.ndarray, labels: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Per-sample loss -sum_i w[y, i] log_probs_i, from ``log_softmax(logits)``."""
    return -(w[labels] * log_probs).sum(axis=1)


def _mean_lse_hessian(logits: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """sum_n weights[n] (diag(s_n) - s_n s_n^T) / N, the mean log-sum-exp Hessian,
    with s_n the softmax of row n less its last logit, which must be 0."""
    sigma = softmax(logits)[:, :-1]
    weighted = weights[:, None] * sigma
    return (np.diag(weighted.sum(axis=0)) - weighted.T @ sigma) / len(sigma)


def mixup_regularization_check(
    K: int,
    d: int,
    alpha_beta: tuple[float, float],
    theta_scale: float,
    N: int,
    mc_pairs: int,
    seed: int,
    w: np.ndarray | None = None,
) -> dict:
    """Compare Monte-Carlo mixup loss against its second-order Taylor form.

    Draws N centralized Gaussian samples with uniform labels and a random
    weight matrix of Frobenius scale ``theta_scale`` (last row zero), then
    estimates the pairwise mixup loss over ``mc_pairs`` (n, m, lam) draws
    with lam ~ Beta(alpha, beta).  The reported relative error shrinks as
    theta_scale does; at theta = 0 both sides equal log K exactly.  The
    random draws do not depend on theta_scale, so calls sharing a seed use
    common random numbers across scales.  Raises :class:`SelMixError` when
    a finite but huge ``theta_scale`` overflows the weights or the losses.

    The pairs are drawn whole-length, then mixed and scored ``_MC_BLOCK`` at
    a time, so the working set is four arrays of 8 B per pair (the two
    index arrays, lam and the per-pair losses) plus one block's mixed rows,
    logits and log-softmax terms.
    """
    try:
        alpha, beta = alpha_beta
    except (TypeError, ValueError):
        raise SelMixError(f"alpha_beta must be two values, got {alpha_beta!r}") from None
    check_reals(locals(), "alpha", "beta", "theta_scale")
    alpha, beta = float(alpha), float(beta)
    if not (1.0 < alpha < np.inf and 1.0 < beta < np.inf):
        raise SelMixError("regularizer moment diverges: need finite alpha, beta > 1")
    if not np.isfinite(theta_scale):
        raise SelMixError("theta_scale must be finite")
    check_integers(locals(), K=2, d=1, N=2, mc_pairs=1, seed=0)
    if w is None:
        w = np.eye(K)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (K, K) or not (w >= 0).all():
        raise SelMixError("gain-weight matrix must be nonnegative K x K")

    # the module docstring's moments, scaled by top = max(a, b) and each
    # term divided last, so no step overflows while the result is finite
    top = max(alpha, beta)
    p, q, u = alpha / top, beta / top, 1.0 / top
    half = 0.5 / (p + q)
    moment = q * half * (beta + 1.0) / (alpha - 1.0) + p * half * (alpha + 1.0) / (beta - 1.0)
    lam_mean = (p * (p + u) + q * (q + u)) / ((p + q) * (p + q + u))

    ss = np.random.SeedSequence((seed, 0x317))
    data_rng, pair_rng = (np.random.default_rng(s) for s in ss.spawn(2))

    x = data_rng.standard_normal((N, d))
    x -= x.mean(axis=0)          # Taylor form assumes centralized samples
    y = data_rng.integers(0, K, size=N)
    with np.errstate(over="ignore", invalid="ignore"):
        theta = theta_scale * data_rng.standard_normal((K, d))
        theta[K - 1] = 0.0
        logits = x @ theta.T
        std_loss = float(_weighted_ce(log_softmax(logits), y, w).mean())

        n_idx = pair_rng.integers(0, N, size=mc_pairs)
        m_idx = pair_rng.integers(0, N, size=mc_pairs)
        lam = pair_rng.beta(alpha, beta, size=mc_pairs)
        losses = np.empty(mc_pairs)
        edges = [*range(0, max(mc_pairs // _MC_BLOCK, 1) * _MC_BLOCK, _MC_BLOCK), mc_pairs]
        for lo, hi in zip(edges, edges[1:]):
            n, m, lm = n_idx[lo:hi], m_idx[lo:hi], lam[lo:hi]
            log_probs = log_softmax((lm[:, None] * x[n] + (1.0 - lm)[:, None] * x[m]) @ theta.T)
            losses[lo:hi] = (lm * _weighted_ce(log_probs, y[n], w)
                             + (1.0 - lm) * _weighted_ce(log_probs, y[m], w))
        mixup_mc = float(np.mean(losses))
        if not math.isfinite(mixup_mc) and np.isfinite(losses).all():
            # the sum of finite losses overflowed; their mean is representable
            mixup_mc = float(np.sum(losses / mc_pairs))

        theta_tilde = theta[: K - 1]
        sigma_x = x.T @ x / N
        h_bar = _mean_lse_hessian(logits, w[y].sum(axis=1))
        regularizer = float(moment * np.trace(h_bar @ theta_tilde @ sigma_x @ theta_tilde.T))
    taylor = std_loss + regularizer
    if not (math.isfinite(mixup_mc) and math.isfinite(taylor)):
        raise SelMixError(f"theta_scale={theta_scale!r} overflows the weights or the losses")

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
