import math

import numpy as np
import pytest

from selmix.classifier import softmax
from selmix.errors import SelMixError
from selmix.theory_checks import (
    _mean_lse_hessian,
    convergence_check,
    mixup_regularization_check,
)


class TestConvergenceCheck:
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
        weights = rng.uniform(0.0, 3.0, size=40)
        logits = np.concatenate([xi, np.zeros((40, 1))], axis=1)
        # reference: one (K-1, K-1) Hessian diag(s) - s s^T per sample
        sigma = softmax(logits)[:, :6]
        stacked = -sigma[:, :, None] * sigma[:, None, :]
        stacked[:, np.arange(6), np.arange(6)] += sigma
        for h in stacked:
            assert np.all(np.linalg.eigvalsh(h) >= -1e-10)
        h_bar = _mean_lse_hessian(logits, weights)
        np.testing.assert_allclose(h_bar, np.einsum("n,nij->ij", weights, stacked) / 40,
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

    def test_diagonal_weight_matrix_path(self):
        w = np.diag([1.0, 2.0, 0.5, 1.5])
        r = mixup_regularization_check(4, 6, (2.0, 2.0), 0.05, N=100,
                                       mc_pairs=20_000, seed=2, w=w)
        assert np.isfinite(r["taylor_approx"])
        assert r["regularizer"] >= 0.0
