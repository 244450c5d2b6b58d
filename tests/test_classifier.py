import numpy as np
import pytest

from selmix.classifier import (
    CentroidSet,
    LinearModel,
    batch_logits,
    class_centroids,
    direction_matrix,
    log_softmax,
    mix_features,
    sgd_mixup_step,
    softmax,
)
from selmix.data import FeatureDataset
from selmix.errors import DataError, SelMixError


def mixup_loss(model, feat_a, feat_b, labels, betas):
    """Per-row softmax cross-entropy of the mixed features against labels
    (each mixup is labeled with its first sample's class): the loss whose
    gradient the SGD step and the update directions follow."""
    log_p = log_softmax(batch_logits(model, mix_features(feat_a, feat_b, betas)), axis=1)
    return -log_p[np.arange(log_p.shape[0]), labels]


def _loss_of_weights(w, a, b, label, beta):
    return mixup_loss(LinearModel(w), a[None], b[None], [label], [beta])[0]


class TestLogits:
    def test_zero_map(self):
        model = LinearModel(np.zeros((3, 2)))
        np.testing.assert_array_equal(batch_logits(model, np.ones((1, 3))), np.zeros((1, 2)))

    def test_hand_case(self):
        model = LinearModel(np.array([[1.0, -1.0]]))
        np.testing.assert_allclose(batch_logits(model, np.array([[2.0]])), [[2.0, -2.0]])

    def test_linearity(self):
        rng = np.random.default_rng(0)
        model = LinearModel(rng.normal(size=(4, 3)))
        x = rng.normal(size=(1, 4))
        np.testing.assert_allclose(batch_logits(model, 3.5 * x), 3.5 * batch_logits(model, x))

    def test_dimension_mismatch(self):
        with pytest.raises(SelMixError):
            batch_logits(LinearModel(np.zeros((3, 2))), np.ones((1, 4)))
        with pytest.raises(SelMixError):
            batch_logits(LinearModel(np.zeros((3, 2))), np.ones(3))


class TestMixupLoss:
    def test_zero_weights_give_log_k(self):
        model = LinearModel(np.zeros((2, 5)))
        loss = mixup_loss(model, np.ones((1, 2)), np.zeros((1, 2)), [3], [0.7])
        assert loss[0] == pytest.approx(np.log(5.0), abs=1e-12)

    def test_beta_one_is_plain_cross_entropy(self):
        rng = np.random.default_rng(1)
        model = LinearModel(rng.normal(size=(3, 4)))
        a, b = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
        full = mixup_loss(model, a, b, [2], [1.0])
        plain = mixup_loss(model, a, a, [2], [0.5])
        assert full[0] == pytest.approx(plain[0], rel=1e-12)

    def test_two_class_margin_value(self):
        # logits (1, -1) at the mixed feature, label 0: loss = ln(1 + e^{-2})
        model = LinearModel(np.array([[1.0, -1.0]]))
        loss = mixup_loss(model, np.array([[1.0]]), np.array([[1.0]]), [0], [0.5])
        assert loss[0] == pytest.approx(np.log(1.0 + np.exp(-2.0)))

    def test_stable_at_huge_logits(self):
        model = LinearModel(np.array([[1000.0, -1000.0]]))
        loss = mixup_loss(model, np.array([[1.0]]), np.array([[1.0]]), [0], [1.0])
        assert loss[0] == pytest.approx(0.0, abs=1e-12)

    def test_common_logit_shift_leaves_loss_unchanged(self):
        # bias coordinate with equal weights adds the same value to all K logits
        rng = np.random.default_rng(2)
        w = rng.normal(size=(3, 4))
        a, b = rng.normal(size=3), rng.normal(size=3)
        base = _loss_of_weights(w, a, b, 1, 0.6)
        for shift in (-7.0, 3.25):
            w_aug = np.vstack([w, np.full(4, shift)])
            shifted = _loss_of_weights(w_aug, np.append(a, 1.0), np.append(b, 1.0), 1, 0.6)
            assert shifted == pytest.approx(base, abs=1e-12)

    def test_invalid_beta_rejected(self):
        model = LinearModel(np.zeros((2, 2)))
        a = np.ones((2, 2))
        with pytest.raises(SelMixError, match="beta must lie in"):
            mixup_loss(model, a, a, [0, 1], [0.5, 1.2])
        with pytest.raises(SelMixError, match="beta must lie in"):
            sgd_mixup_step(model, mix_features(a, a, [1.2, 0.5]), [0, 1], lr=0.1)


class TestClassCentroids:
    def test_single_sample_per_class(self):
        ds = FeatureDataset(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 1]), 2)
        cents = class_centroids(ds)
        np.testing.assert_array_equal(cents.centroids, ds.features)

    def test_one_dim_mean(self):
        ds = FeatureDataset(np.array([[0.0], [2.0], [5.0]]), np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(class_centroids(ds).centroids[:, 0], [1.0, 5.0])

    def test_matches_compensated_summation(self):
        import math

        rng = np.random.default_rng(3)
        feats = rng.normal(size=(100, 6)) * 100.0
        ds = FeatureDataset(feats, np.zeros(100, dtype=int), 1)
        got = class_centroids(ds).centroids[0]
        want = np.array([math.fsum(feats[:, j]) / 100.0 for j in range(6)])
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_empty_class_rejected(self):
        ds = FeatureDataset(np.ones((2, 2)), np.array([0, 0]), num_classes=2)
        with pytest.raises(DataError, match="no validation samples for class 1"):
            class_centroids(ds)


class TestDirectionMatrix:
    def test_confident_model_has_vanishing_direction(self):
        cents = CentroidSet(30.0 * np.eye(3))
        model = LinearModel(np.eye(3))          # margin 30 at each centroid
        v = direction_matrix(model, cents, 0, 0, beta_bar=1.0)
        np.testing.assert_allclose(v, 0.0, atol=1e-10)

    def test_hand_case_zero_weights(self):
        model = LinearModel(np.zeros((1, 2)))
        cents = CentroidSet(np.array([[1.0], [1.0]]))
        v = direction_matrix(model, cents, 0, 1, beta_bar=0.75)
        np.testing.assert_allclose(v, [[0.5, -0.5]])

    def test_matches_negative_loss_gradient(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(100):
            d, k = int(rng.integers(1, 5)), int(rng.integers(2, 6))
            w = rng.normal(size=(d, k))
            z = rng.normal(size=(k, d))
            i, j = int(rng.integers(k)), int(rng.integers(k))
            beta = float(rng.uniform(0.1, 1.0))
            v = direction_matrix(LinearModel(w), CentroidSet(z), i, j, beta)
            fd = np.zeros_like(w)
            for a in range(d):
                for b in range(k):
                    wp, wm = w.copy(), w.copy()
                    wp[a, b] += h
                    wm[a, b] -= h
                    fd[a, b] = (_loss_of_weights(wp, z[i], z[j], i, beta)
                                - _loss_of_weights(wm, z[i], z[j], i, beta)) / (2 * h)
            np.testing.assert_allclose(v, -fd, rtol=1e-6, atol=1e-8)

    def test_beta_bar_validated(self):
        with pytest.raises(SelMixError):
            direction_matrix(LinearModel(np.zeros((2, 2))), CentroidSet(np.eye(2)), 0, 1, 0.0)


class TestSgdMixupStep:
    def test_zero_lr_keeps_model(self):
        rng = np.random.default_rng(5)
        model = LinearModel(rng.normal(size=(3, 3)))
        a, b = rng.normal(size=(1, 3)), rng.normal(size=(1, 3))
        out = sgd_mixup_step(model, mix_features(a, b, [0.8]), [1], lr=0.0)
        np.testing.assert_array_equal(out.weights, model.weights)

    def test_confident_correct_sample_barely_moves(self):
        model = LinearModel(40.0 * np.eye(2))
        x = np.array([[1.0, 0.0]])
        out = sgd_mixup_step(model, mix_features(x, x, [1.0]), [0], lr=0.1)
        np.testing.assert_allclose(out.weights, model.weights, atol=1e-12)

    def test_single_sample_matches_closed_form(self):
        rng = np.random.default_rng(6)
        w = rng.normal(size=(2, 3))
        a, b, beta, lr = rng.normal(size=2), rng.normal(size=2), 0.6, 0.05
        # one sample: update is +lr * V evaluated at the sample's mixed feature
        mixed = beta * a + (1.0 - beta) * b
        v = direction_matrix(LinearModel(w), CentroidSet(np.stack([mixed] * 3)), 2, 2, 1.0)
        out = sgd_mixup_step(LinearModel(w), mix_features(a[None], b[None], [beta]), [2], lr)
        np.testing.assert_allclose(out.weights, w + lr * v, atol=1e-12)

    def test_batch_step_is_mean_of_single_sample_steps(self):
        # the batch update equals the average of the per-row closed-form updates
        rng = np.random.default_rng(8)
        w = rng.normal(size=(3, 4))
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        labels, betas, lr = rng.integers(4, size=5), rng.uniform(0.5, 1.0, size=5), 0.3
        singles = [sgd_mixup_step(LinearModel(w), mix_features(a[[n]], b[[n]], betas[[n]]),
                                  labels[[n]], lr)
                   for n in range(5)]
        out = sgd_mixup_step(LinearModel(w), mix_features(a, b, betas), labels, lr)
        np.testing.assert_allclose(out.weights, np.mean([m.weights for m in singles], axis=0),
                                   rtol=0, atol=1e-12)

    def test_matches_row_indexed_gradient_bit_for_bit(self):
        # for labels in [0, K) the flat-index subtraction is p[n, labels[n]] -= 1
        rng = np.random.default_rng(9)
        w, mixed = rng.normal(size=(6, 5)), rng.normal(size=(40, 6))
        labels, lr = rng.integers(5, size=40), 0.2
        p = softmax(mixed @ w, axis=1)
        p[np.arange(40), labels] -= 1.0
        step = mixed.T @ p
        step /= 40
        step *= lr
        out = sgd_mixup_step(LinearModel(w), mixed, labels, lr)
        assert out.weights.tobytes() == (w - step).tobytes()

    def test_small_lr_decreases_batch_loss(self):
        rng = np.random.default_rng(7)
        model = LinearModel(rng.normal(size=(4, 3)))
        draws = [(rng.normal(size=4), rng.normal(size=4), int(rng.integers(3)),
                  float(rng.uniform(0.5, 1.0))) for _ in range(8)]
        a, b, labels, betas = (np.array(column) for column in zip(*draws))
        base = np.mean(mixup_loss(model, a, b, labels, betas))
        for lr in (1e-3, 1e-4):
            stepped = sgd_mixup_step(model, mix_features(a, b, betas), labels, lr)
            new = np.mean(mixup_loss(stepped, a, b, labels, betas))
            assert new < base

    def test_empty_batch_rejected(self):
        with pytest.raises(SelMixError):
            sgd_mixup_step(LinearModel(np.zeros((2, 2))), np.zeros((0, 2)),
                           np.zeros(0, dtype=int), 0.1)
