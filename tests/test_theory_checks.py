import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selmix import theory_checks
from selmix.classifier import log_softmax, softmax
from selmix.errors import SelMixError
from selmix.theory_checks import (
    _MC_BLOCK,
    _mean_lse_hessian,
    convergence_check,
    mixup_regularization_check,
)


def whole_array_check(K, d, alpha_beta, theta_scale, N, mc_pairs, seed):
    """The mixup check with its Monte-Carlo loss over every pair at once, and
    its cross-entropy and Hessian in their gain-weighted form at identity
    weights: the reference the blocked estimate must equal bit for bit."""
    alpha, beta = map(float, alpha_beta)
    w = np.eye(K)
    top = max(alpha, beta)
    p, q, u = alpha / top, beta / top, 1.0 / top
    half = 0.5 / (p + q)
    moment = q * half * (beta + 1.0) / (alpha - 1.0) + p * half * (alpha + 1.0) / (beta - 1.0)
    lam_mean = (p * (p + u) + q * (q + u)) / ((p + q) * (p + q + u))

    def weighted_ce(logits, labels):
        return -(w[labels] * log_softmax(logits)).sum(axis=1)

    data_rng, pair_rng = (np.random.default_rng(s)
                          for s in np.random.SeedSequence((seed, 0x317)).spawn(2))
    x = data_rng.standard_normal((N, d))
    x -= x.mean(axis=0)
    y = data_rng.integers(0, K, size=N)
    theta = theta_scale * data_rng.standard_normal((K, d))
    theta[K - 1] = 0.0
    logits = x @ theta.T
    std_loss = float(weighted_ce(logits, y).mean())

    n_idx = pair_rng.integers(0, N, size=mc_pairs)
    m_idx = pair_rng.integers(0, N, size=mc_pairs)
    lam = pair_rng.beta(alpha, beta, size=mc_pairs)
    mixed = lam[:, None] * x[n_idx] + (1.0 - lam)[:, None] * x[m_idx]
    mixed_logits = mixed @ theta.T
    loss_first = weighted_ce(mixed_logits, y[n_idx])
    loss_second = weighted_ce(mixed_logits, y[m_idx])
    mixup_mc = float(np.mean(lam * loss_first + (1.0 - lam) * loss_second))

    theta_tilde = theta[: K - 1]
    sigma_x = x.T @ x / N
    sigma = softmax(logits)[:, :-1]
    weighted = w[y].sum(axis=1)[:, None] * sigma
    h_bar = (np.diag(weighted.sum(axis=0)) - weighted.T @ sigma) / N
    regularizer = float(moment * np.trace(h_bar @ theta_tilde @ sigma_x @ theta_tilde.T))
    taylor = std_loss + regularizer
    return {
        "K": K, "d": d, "alpha": alpha, "beta": beta, "theta_scale": theta_scale, "N": N,
        "mc_pairs": mc_pairs, "seed": seed, "mixup_loss_mc": mixup_mc, "std_loss": std_loss,
        "regularizer": regularizer, "taylor_approx": taylor,
        "rel_error": float(abs(mixup_mc - taylor) / max(abs(mixup_mc), 1e-300)),
        "lambda_moment": moment, "lambda_mean": lam_mean,
    }


def assert_same_report(args):
    blocked = mixup_regularization_check(*args)
    reference = whole_array_check(*args)
    assert list(blocked) == list(reference)
    for key, value in reference.items():
        assert type(blocked[key]) is type(value), key
        assert blocked[key] == value, (key, blocked[key], value)


def reference_convergence_check(K, d, alignment_c, T, seed):
    """The convergence check on (d, K) matrices, with fresh arrays each
    step: the reference the flat-vector loop must equal bit for bit."""
    def norm(a):
        x = a.ravel()
        return math.sqrt(x @ x)

    gamma = 2.0
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC0)))
    w_star = rng.standard_normal((d, K))
    w = rng.standard_normal((d, K))

    subopt = np.empty(T + 1)
    max_norm = norm(w)
    subopt[0] = np.sum((w - w_star) ** 2)
    for t in range(1, T + 1):
        grad = -2.0 * (w - w_star)
        gnorm = norm(grad)
        if gnorm > 0:
            if rng.random() < alignment_c:
                v = grad / gnorm
            else:
                raw = rng.standard_normal((d, K))
                v = raw / norm(raw)
            w = w + (alignment_c / (2.0 * gamma)) * gnorm * v
        max_norm = max(max_norm, norm(w))
        subopt[t] = np.sum((w - w_star) ** 2)

    r0 = norm(w_star) + max_norm
    ts = np.arange(1, T + 1)
    late = ts > 10
    scaled = subopt[1:][late] * (alignment_c**2 * (ts[late] - 1))
    bound_ok = bool(np.all(scaled <= 4.0 * gamma * r0**2))
    half = ts >= T // 2
    numerical_floor = (1e-13 * r0) ** 2
    exponent = theory_checks._fit_loglog_slope(ts[half], subopt[1:][half], numerical_floor)
    decades = {str(t): float(subopt[t]) for t in (1, 10, 100, 1000, 10_000) if t <= T}
    return {
        "K": K, "d": d, "alignment_c": alignment_c, "T": T, "seed": seed,
        "fitted_rate_exponent": exponent, "bound_satisfied": bound_ok,
        "final_suboptimality": float(subopt[-1]), "suboptimality_decades": decades,
        "measured_R0": float(r0),
    }


class TestConvergenceCheck:
    @pytest.mark.parametrize("K, d", [(1, 1), (5, 8), (3, 17)])
    @pytest.mark.parametrize("c", [0.25, 0.5, 1.0])
    def test_flat_vectors_equal_the_matrix_loop(self, K, d, c):
        for seed in range(6):
            for T in (100, 2000):
                got = convergence_check(K, d, alignment_c=c, T=T, seed=seed)
                assert json.dumps(got) == json.dumps(reference_convergence_check(K, d, c, T, seed))

    def test_exact_gradient_direction_beats_rate_bound(self):
        r = convergence_check(4, 6, alignment_c=1.0, T=300, seed=0)
        assert r["bound_satisfied"]
        assert r["fitted_rate_exponent"] <= -0.9

    def test_partial_alignment_still_within_envelope(self):
        satisfied = sum(
            convergence_check(4, 6, alignment_c=0.5, T=300, seed=s)["bound_satisfied"]
            for s in range(20)
        )
        assert satisfied >= 19

    def test_suboptimality_decreases_in_expectation_by_decade(self):
        decades = {"1": [], "10": [], "100": []}
        for seed in range(20):
            r = convergence_check(3, 5, alignment_c=0.5, T=150, seed=seed)
            for key in decades:
                decades[key].append(r["suboptimality_decades"][key])
        means = [np.mean(decades[k]) for k in ("1", "10", "100")]
        assert means[0] > means[1] > means[2]

    @pytest.mark.parametrize("c", [1e-160, 1e-200])
    def test_underflowing_alignment_gives_a_vacuous_bound(self, c):
        # c^2 is subnormal or 0: the envelope exceeds every float, with no
        # overflow or divide-by-zero warning on the way
        assert convergence_check(3, 3, alignment_c=c, T=100, seed=0)["bound_satisfied"]

    def test_validates_inputs(self):
        with pytest.raises(SelMixError):
            convergence_check(3, 3, alignment_c=0.0, T=200, seed=0)
        with pytest.raises(SelMixError):
            convergence_check(3, 3, alignment_c=0.5, T=50, seed=0)
        for k, d, seed in ((0, 3, 0), (3, 0, 0), (-1, 3, 0), (3, 3, -1)):
            with pytest.raises(SelMixError):
                convergence_check(k, d, alignment_c=1.0, T=100, seed=seed)


class TestMixupRegularizationCheck:
    def test_zero_weights_are_exact(self):
        r = mixup_regularization_check(5, 8, (2.0, 2.0), theta_scale=0.0,
                                       N=50, mc_pairs=2000, seed=0)
        assert r["mixup_loss_mc"] == pytest.approx(np.log(5.0), abs=1e-12)
        assert r["taylor_approx"] == pytest.approx(np.log(5.0), abs=1e-12)
        assert r["rel_error"] <= 1e-10

    def test_relative_error_shrinks_with_theta_scale(self):
        errs = [
            mixup_regularization_check(5, 8, (2.0, 2.0), scale, N=400,
                                       mc_pairs=100_000, seed=3)["rel_error"]
            for scale in (0.1, 0.05, 0.025)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_lambda_moments_match_monte_carlo(self):
        # alpha, beta > 3 gives (1-lam)^2 / lam^2 a finite variance under the
        # reweighted mixture, so each sample mean has a standard error
        alpha, beta, draws = 4.0, 5.0, 1_000_000
        r = mixup_regularization_check(4, 6, (alpha, beta), 0.1, N=20, mc_pairs=10, seed=0)
        rng = np.random.default_rng(0)
        lam = np.where(rng.random(draws) < alpha / (alpha + beta),
                       rng.beta(alpha + 1.0, beta, size=draws),
                       rng.beta(beta + 1.0, alpha, size=draws))
        for exact, sample in ((r["lambda_moment"], (1.0 - lam) ** 2 / (2.0 * lam**2)),
                              (r["lambda_mean"], lam)):
            assert abs(exact - sample.mean()) <= 5.0 * sample.std() / math.sqrt(draws)

    def test_lambda_moments_hand_values(self):
        # alpha = beta = 2: both mixture components are Beta(3, 2), with
        # E[(1-lam)^2 / lam^2] = 2 * 3 / (2 * 1) = 3 and E[lam] = 3/5
        r = mixup_regularization_check(4, 6, (2.0, 2.0), 0.1, N=20, mc_pairs=10, seed=0)
        assert abs(r["lambda_moment"] - 1.5) <= math.ulp(1.5)
        assert abs(r["lambda_mean"] - 0.6) <= math.ulp(0.6)

    @pytest.mark.filterwarnings("error")
    def test_lambda_moments_at_huge_shapes(self):
        # the mixture tends to a point mass at 1/2; alpha + beta overflows
        r = mixup_regularization_check(4, 6, (1e308, 1e308), 0.1, N=20, mc_pairs=10, seed=0)
        assert r["lambda_moment"] == pytest.approx(0.5, rel=1e-15)
        assert r["lambda_mean"] == pytest.approx(0.5, rel=1e-15)

    def test_mean_hessian_matches_stacked_reference(self):
        rng = np.random.default_rng(1)
        xi = rng.normal(size=(40, 6)) * 3.0
        logits = np.concatenate([xi, np.zeros((40, 1))], axis=1)
        # reference: one (K-1, K-1) Hessian diag(s) - s s^T per sample
        sigma = softmax(logits)[:, :6]
        stacked = -sigma[:, :, None] * sigma[:, None, :]
        stacked[:, np.arange(6), np.arange(6)] += sigma
        for h in stacked:
            assert np.all(np.linalg.eigvalsh(h) >= -1e-10)
        h_bar = _mean_lse_hessian(logits)
        np.testing.assert_allclose(h_bar, stacked.sum(axis=0) / 40,
                                   rtol=0.0, atol=1e-15)
        assert np.all(np.linalg.eigvalsh(h_bar) >= -1e-10)

    def test_regularizer_nonnegative(self):
        for seed in range(5):
            r = mixup_regularization_check(4, 6, (2.0, 3.0), 0.3, N=60,
                                           mc_pairs=5000, seed=seed)
            assert r["regularizer"] >= 0.0

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(SelMixError, match="moment diverges"):
            mixup_regularization_check(4, 6, (1.0, 2.0), 0.1, N=50, mc_pairs=100, seed=0)

    @pytest.mark.parametrize("scale, mc_pairs, seed", [
        (0.05, 50_000, 0), (0.05, 50_000, 3),           # the sims benchmark
        (0.1, 100_000, 7), (0.025, 100_000, 19),        # C7
        (0.0, 100_000, 0),
        (0.05, 100_000, 0),                             # check-theory defaults
        (0.2, 200_000, 1), (0.0, 200_000, 1),           # demo 05
    ])
    def test_blocked_estimate_equals_whole_array_at_fixed_settings(self, scale, mc_pairs, seed):
        assert_same_report((5, 8, (2.0, 2.0), scale, 400, mc_pairs, seed))

    @settings(max_examples=60, deadline=None)
    @given(
        K=st.integers(2, 8),
        d=st.integers(1, 33),
        N=st.integers(2, 1000),
        mc_pairs=st.sampled_from([1, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1,
                                  2 * _MC_BLOCK - 1, 2 * _MC_BLOCK, 2 * _MC_BLOCK + 1])
        | st.integers(1, 5 * _MC_BLOCK),
        alpha_beta=st.sampled_from([(2.0, 2.0), (2.0, 3.0), (1.5, 6.0)]),
        scale=st.sampled_from([0.0, 1e-3, 0.05, 0.5, 5.0, 100.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_blocked_estimate_equals_whole_array(self, K, d, N, mc_pairs, alpha_beta,
                                                 scale, seed):
        assert_same_report((K, d, alpha_beta, scale, N, mc_pairs, seed))

    @pytest.mark.parametrize("mc_pairs", [1, 7, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1,
                                          2 * _MC_BLOCK - 1, 2 * _MC_BLOCK, 5 * _MC_BLOCK + 3])
    def test_no_block_is_shorter_than_the_block_size(self, monkeypatch, mc_pairs):
        # a short matrix product may take another BLAS kernel and round
        # differently, so the remainder joins the last block
        rows = []

        def spy(logits):
            rows.append(len(logits))
            return log_softmax(logits)

        monkeypatch.setattr(theory_checks, "log_softmax", spy)
        mixup_regularization_check(3, 4, (2.0, 2.0), 0.1, N=50, mc_pairs=mc_pairs, seed=0)
        std_rows, *blocks = rows
        assert std_rows == 50 and sum(blocks) == mc_pairs
        if mc_pairs < _MC_BLOCK:
            assert blocks == [mc_pairs]
        else:
            assert min(blocks) >= _MC_BLOCK and max(blocks) < 2 * _MC_BLOCK

    def test_monte_carlo_memory_is_linear_in_pairs_plus_one_block(self):
        # four whole-length arrays of 8 B per pair (two index arrays, lam and
        # the losses), plus one block of at most 2 * _MC_BLOCK - 1 pairs, each
        # under 400 B at d=8, K=5; the whole-array estimate peaked at 52 MiB
        pairs = 200_000
        bound = 32 * pairs + 400 * (2 * _MC_BLOCK - 1)
        mixup_regularization_check(5, 8, (2.0, 2.0), 0.05, N=400, mc_pairs=10, seed=0)
        tracemalloc.start()
        try:
            mixup_regularization_check(5, 8, (2.0, 2.0), 0.05, N=400, mc_pairs=pairs, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
