import time
import tracemalloc

import numpy as np
import pytest

from conftest import random_confusion
from selmix import gain
from selmix.classifier import (
    CentroidSet,
    LinearModel,
    class_centroids,
    direction_matrix,
    softmax,
)
from selmix.data import LTSpec, generate_longtail
from selmix.errors import SelMixError
from selmix.gain import GainMatrix, gain_fd_oracle, gain_from_metric_grad, gain_matrix
from selmix.metrics import (
    G_MEAN,
    MEAN_RECALL,
    MIN_RECALL,
    MetricSpec,
    metric_grad_unconstrained,
    neutral_lagrange,
    soft_confusion,
    update_lagrange,
)


def reference_gains(model, centroids, dgrad, beta_bar):
    """Literal quadruple sum over (i, j, k, l) using per-pair directions."""
    k = centroids.centroids.shape[0]
    out = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            v = direction_matrix(model, centroids, i, j, beta_bar)
            total = 0.0
            for kk in range(k):
                for ll in range(k):
                    total += dgrad[kk, ll] * (v[:, ll] @ centroids.centroids[kk])
            out[i, j] = total
    return out


def dense_gains(model, centroids, dgrad, beta_bar):
    """One-shot dense form: the K^2 x d mixed centroids zeta, the K^3 arrays
    a[i, j, k] = zeta_ij . z_k and p_ij, and a K^4 contraction."""
    z = centroids.centroids
    zeta = beta_bar * z[:, None, :] + (1.0 - beta_bar) * z[None, :, :]
    p = softmax(zeta @ model.weights, axis=-1)
    a = zeta @ z.T
    term1 = np.einsum("ijk,ki->ij", a, dgrad)
    term2 = np.einsum("ijk,kl,ijl->ij", a, dgrad, p, optimize=True)
    return term1 - term2


def tuned_model(lt: LTSpec, seed: int, noise: float = 0.3) -> LinearModel:
    """Partially-trained classifier: class means as weights plus noise."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA11)))
    return LinearModel(lt.class_means().T + noise * rng.standard_normal((lt.d, lt.K)))


class TestGainMatrix:
    def test_zero_metric_gradient_kills_all_gains(self):
        rng = np.random.default_rng(0)
        model = LinearModel(rng.normal(size=(4, 3)))
        cents = CentroidSet(rng.normal(size=(3, 4)))
        g = gain_from_metric_grad(model, cents, np.zeros((3, 3)), 0.75)
        np.testing.assert_array_equal(g, np.zeros((3, 3)))

    def test_confident_model_has_zero_gains(self):
        # margins >= 200 at every mixed centroid: all V_ij vanish
        cents = CentroidSet(100.0 * np.eye(3))
        model = LinearModel(10.0 * np.eye(3))
        c = random_confusion(np.random.default_rng(1), 3)
        spec = MetricSpec(MEAN_RECALL)
        g = gain_matrix(model, cents, c, spec, neutral_lagrange(spec, 3), 0.6)
        np.testing.assert_allclose(g.values, 0.0, atol=1e-12)

    def test_two_class_hand_case(self):
        # value frozen from the quadruple-sum reference evaluation
        from selmix.metrics import ConfusionMatrix

        model = LinearModel(np.zeros((1, 2)))
        cents = CentroidSet(np.array([[1.0], [1.0]]))
        c = ConfusionMatrix(np.array([[0.4, 0.1], [0.2, 0.3]]), np.array([0.5, 0.5]))
        spec = MetricSpec(MEAN_RECALL)
        g = gain_matrix(model, cents, c, spec, neutral_lagrange(spec, 2), 0.75)
        dgrad = metric_grad_unconstrained(spec, c, neutral_lagrange(spec, 2))
        np.testing.assert_allclose(g.values, reference_gains(model, cents, dgrad, 0.75), atol=1e-12)
        assert g.values[0, 0] == pytest.approx(-0.04)

    def test_vectorized_matches_reference_loop(self):
        rng = np.random.default_rng(2)
        for kind in (MEAN_RECALL, G_MEAN, MIN_RECALL):
            k, d = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            model = LinearModel(rng.normal(size=(d, k)))
            cents = CentroidSet(rng.normal(size=(k, d)))
            c = random_confusion(rng, k)
            spec = MetricSpec(kind)
            lam = update_lagrange(spec, c)
            dgrad = metric_grad_unconstrained(spec, c, lam)
            fast = gain_matrix(model, cents, c, spec, lam, 0.75).values
            np.testing.assert_allclose(fast, reference_gains(model, cents, dgrad, 0.75),
                                       atol=1e-12)

    @staticmethod
    def _random_case(k, d_minus_k, scale=1.0):
        rng = np.random.default_rng(k + d_minus_k)
        d = k + d_minus_k
        model = LinearModel(scale * rng.normal(size=(d, k)) / np.sqrt(d))
        cents = CentroidSet(rng.normal(size=(k, d)))
        return model, cents, rng.normal(size=(k, k))

    @pytest.mark.parametrize("k", [17, 40, 64])
    @pytest.mark.parametrize("d_minus_k", [-9, 9])
    @pytest.mark.parametrize("beta_bar", [0.5, 1.0])
    def test_factorised_form_matches_dense_reference(self, k, d_minus_k, beta_bar):
        model, cents, dgrad = self._random_case(k, d_minus_k)
        dense = dense_gains(model, cents, dgrad, beta_bar)
        fast = gain_from_metric_grad(model, cents, dgrad, beta_bar)
        assert np.abs(fast - dense).max() <= 1e-13 * np.abs(dense).max()

    @pytest.mark.parametrize("k", [17, 40, 64])
    @pytest.mark.parametrize("d_minus_k", [-9, 9])
    @pytest.mark.parametrize("beta_bar", [0.5, 1.0])
    @pytest.mark.parametrize("scale", [1e3, 1e4])
    @pytest.mark.parametrize("pairs", [1, 3, None])
    def test_underflowing_pairs_match_dense_reference(self, monkeypatch, k, d_minus_k,
                                                      beta_bar, scale, pairs):
        # Logit ranges in the thousands: at beta_bar = 0.5 the shared shift
        # underflows the factorised normaliser of some pairs, and the guard
        # recomputes them, 1 or 3 pairs per chunk or the default budget.
        if pairs is not None:
            monkeypatch.setattr(gain, "_GUARD_ELEMENTS", pairs * k)
        model, cents, dgrad = self._random_case(k, d_minus_k, scale)
        logits = cents.centroids @ model.weights
        shifted = logits - logits.max(axis=1, keepdims=True)
        norm = np.exp(beta_bar * shifted) @ np.exp((1.0 - beta_bar) * shifted).T
        assert (norm < gain._MIN_NORMALISER).any() == (beta_bar < 1.0)
        dense = dense_gains(model, cents, dgrad, beta_bar)
        fast = gain_from_metric_grad(model, cents, dgrad, beta_bar)
        # Rounding a logit moves G by up to about eps |logit| max|M|, which
        # exceeds 1e-13 max|G| at a few of these points for the dense form
        # and the per-pair form alike, so that term is added to the bound.
        zb = cents.centroids @ (cents.centroids.T @ dgrad)
        rounding = np.finfo(float).eps * np.abs(logits).max() * np.abs(zb).max()
        assert np.abs(fast - dense).max() <= 1e-13 * np.abs(dense).max() + rounding

    def test_bilinearity_in_metric_gradient(self):
        rng = np.random.default_rng(3)
        model = LinearModel(rng.normal(size=(5, 4)))
        cents = CentroidSet(rng.normal(size=(4, 5)))
        d1, d2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        a, b = 2.5, -1.25
        combo = gain_from_metric_grad(model, cents, a * d1 + b * d2, 0.6)
        parts = a * gain_from_metric_grad(model, cents, d1, 0.6) + b * gain_from_metric_grad(
            model, cents, d2, 0.6
        )
        np.testing.assert_allclose(combo, parts, atol=1e-10)

    def test_gain_matrix_validates_inputs(self):
        with pytest.raises(SelMixError):
            GainMatrix(np.array([np.nan]).reshape(1, 1))


class TestOracleAgreement:
    def test_oracle_zero_for_zero_direction(self):
        # confident model: V = 0 so the difference quotient vanishes
        lt = LTSpec(K=3, d=4, N1=20, rho=2.0, within_std=0.05, seed=0)
        val = generate_longtail(lt)
        model = LinearModel(40.0 * lt.class_means().T)
        spec = MetricSpec(MEAN_RECALL)
        lam = neutral_lagrange(spec, 3)
        cents = class_centroids(val)
        got = gain_fd_oracle(model, val, spec, lam, cents, 0, 1, 0.75)
        assert got == pytest.approx(0.0, abs=1e-10)

    def test_relative_error_shrinks_with_cluster_tightness(self):
        spec = MetricSpec(MEAN_RECALL)
        medians = []
        for std in (0.5, 0.1, 0.02):
            errs = []
            for seed in range(3):
                lt = LTSpec(K=5, d=8, N1=40, rho=4.0, within_std=std, seed=seed)
                val = generate_longtail(lt)
                model = tuned_model(lt, seed)
                c = soft_confusion(model, val)
                cents = class_centroids(val)
                lam = neutral_lagrange(spec, lt.K)
                gains = gain_matrix(model, cents, c, spec, lam, 0.75)
                for i in range(lt.K):
                    for j in range(lt.K):
                        oracle = gain_fd_oracle(model, val, spec, lam, cents, i, j, 0.75)
                        errs.append(abs(gains.values[i, j] - oracle) / (abs(oracle) + 1e-8))
            medians.append(np.median(errs))
        assert medians[0] >= medians[1] >= medians[2]
        assert medians[-1] <= 0.15


class TestComplexity:
    def test_doubling_k_stays_within_cubic_budget(self):
        d = 16
        rng = np.random.default_rng(11)
        times = {}
        for k in (8, 16, 32):
            model = LinearModel(rng.normal(size=(d, k)))
            cents = CentroidSet(rng.normal(size=(k, d)))
            c = random_confusion(rng, k)
            spec = MetricSpec(MEAN_RECALL)
            lam = neutral_lagrange(spec, k)
            gain_matrix(model, cents, c, spec, lam, 0.75)   # warm up
            best = np.inf
            for _ in range(5):
                start = time.perf_counter()
                for _ in range(20):
                    gain_matrix(model, cents, c, spec, lam, 0.75)
                best = min(best, (time.perf_counter() - start) / 20)
            times[k] = best
        assert times[16] / times[8] <= 10.0
        assert times[32] / times[16] <= 10.0


class TestMemory:
    @pytest.mark.parametrize("k, limit", [
        (300, 32 * 2**20),        # the dense form peaked at 869 MB here
        # 7.25 K x K float64 arrays: six in the gain, the metric gradient and
        # a boolean mask; the row-block form held 8.0
        (1000, 7.5 * 1000**2 * 8),
    ])
    def test_call_peaks_under_budget(self, k, limit):
        d = 64
        rng = np.random.default_rng(12)
        model = LinearModel(rng.normal(size=(d, k)))
        cents = CentroidSet(rng.normal(size=(k, d)))
        c = random_confusion(rng, k)
        spec = MetricSpec(MEAN_RECALL)
        lam = neutral_lagrange(spec, k)
        tracemalloc.start()
        try:
            gain_matrix(model, cents, c, spec, lam, 0.75)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= limit
