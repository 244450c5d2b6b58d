import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fd_metric_grad, random_confusion, random_lagrange
from selmix.classifier import LinearModel
from selmix.data import FeatureDataset
from selmix.errors import DataError, SelMixError
from selmix.metrics import (
    G_MEAN,
    H_MEAN,
    H_MEAN_COVERAGE,
    H_MEAN_COVERAGE_HEAD_TAIL,
    MEAN_RECALL,
    MEAN_RECALL_COVERAGE,
    MEAN_RECALL_COVERAGE_HEAD_TAIL,
    METRIC_KINDS,
    MIN_RECALL,
    MIN_RECALL_HEAD_TAIL,
    ConfusionMatrix,
    MetricSpec,
    confusion_from_predictions,
    evaluate_metric,
    metric_grad_unconstrained,
    neutral_lagrange,
    soft_confusion,
    unconstrained_to_confusion,
    update_lagrange,
    validate_lagrange,
)


class TestConfusionFromPredictions:
    def test_perfect_classifier_puts_priors_on_diagonal(self):
        c = confusion_from_predictions([0, 1], [0, 1], 2)
        np.testing.assert_allclose(c.entries, [[0.5, 0.0], [0.0, 0.5]])
        np.testing.assert_allclose(c.priors, [0.5, 0.5])

    def test_constant_predictor_fills_one_column(self):
        c = confusion_from_predictions([0, 0, 1, 1], [1, 1, 1, 1], 2)
        np.testing.assert_allclose(c.entries, [[0.0, 0.5], [0.0, 0.5]])

    def test_three_class_counts(self):
        c = confusion_from_predictions([0, 0, 1, 2], [0, 1, 1, 2], 3)
        expected = [[0.25, 0.25, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 0.25]]
        np.testing.assert_allclose(c.entries, expected)

    def test_empty_input_rejected(self):
        with pytest.raises(DataError, match="empty evaluation set"):
            confusion_from_predictions([], [], 2)

    def test_absent_class_rejected(self):
        with pytest.raises(DataError, match="class 1 absent"):
            confusion_from_predictions([0, 0], [0, 1], 2)

    @pytest.mark.parametrize("labels, first", [([1, 3], 0), ([0, 3, 0], 1), ([0, 1, 2], 3),
                                               ([2, 2], 0)])
    def test_the_first_absent_class_is_named(self, labels, first):
        with pytest.raises(DataError, match=f"^class {first} absent from evaluation set$"):
            confusion_from_predictions(labels, labels, 4)


class TestSoftConfusion:
    def test_zero_weights_spread_rows_uniformly(self):
        ds = FeatureDataset(np.random.default_rng(0).normal(size=(12, 3)),
                            np.repeat([0, 1, 2], 4), num_classes=3)
        c = soft_confusion(LinearModel(np.zeros((3, 3))), ds)
        np.testing.assert_allclose(c.entries, np.full((3, 3), 1.0 / 9), atol=1e-12)

    def test_large_margin_recovers_diagonal(self):
        # one sample per class at 25 * e_k with identity weights: margin 25
        feats = 25.0 * np.eye(3)
        ds = FeatureDataset(feats, np.arange(3), num_classes=3)
        c = soft_confusion(LinearModel(np.eye(3)), ds)
        np.testing.assert_allclose(c.entries, np.diag(c.priors), atol=1e-8)

    def test_single_sample_row_is_scaled_softmax(self):
        w = np.array([[1.0, -1.0]])
        feats = np.array([[2.0], [-2.0]])
        ds = FeatureDataset(feats, np.array([0, 1]), num_classes=2)
        c = soft_confusion(LinearModel(w), ds)
        z = np.array([2.0, -2.0])
        expected = 0.5 * np.exp(z) / np.exp(z).sum()
        np.testing.assert_allclose(c.entries[0], expected, rtol=1e-12)

    def test_overflowing_logits_are_refused(self):
        # finite weights and features whose products overflow: the softmax
        # of the inf - inf logits was an all-NaN matrix that passed
        ds = FeatureDataset(np.array([[1e200], [-1e200]]), np.array([0, 1]), num_classes=2)
        model = LinearModel(np.array([[1e200, -1e200]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SelMixError, match="^logits overflow"):
                soft_confusion(model, ds)


class TestUnconstrainedMap:
    def test_zeros_give_uniform_rows(self):
        c = unconstrained_to_confusion(np.zeros((2, 2)), np.array([0.5, 0.5]))
        np.testing.assert_allclose(c.entries, np.full((2, 2), 0.25))

    def test_log3_row(self):
        ct = np.array([[np.log(3.0), 0.0], [0.0, 0.0]])
        c = unconstrained_to_confusion(ct, np.array([0.5, 0.5]))
        np.testing.assert_allclose(c.entries[0], [0.375, 0.125], rtol=1e-12)

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(7)
        ct = rng.normal(size=(4, 4))
        priors = rng.dirichlet(np.ones(4))
        shifted = ct + rng.normal(size=(4, 1))
        a = unconstrained_to_confusion(ct, priors)
        b = unconstrained_to_confusion(shifted, priors)
        np.testing.assert_allclose(a.entries, b.entries, atol=1e-12)

    def test_output_always_valid_even_for_extreme_inputs(self):
        rng = np.random.default_rng(3)
        for scale in (1.0, 50.0, 1e4):
            ct = scale * rng.normal(size=(5, 5))
            priors = rng.dirichlet(np.ones(5)) * 0.9 + 0.02
            priors /= priors.sum()
            c = unconstrained_to_confusion(ct, priors)   # constructor validates
            assert np.all(c.entries >= 0)

    def test_non_finite_rejected(self):
        with pytest.raises(SelMixError):
            unconstrained_to_confusion(np.array([[np.inf, 0.0], [0.0, 0.0]]),
                                       np.array([0.5, 0.5]))


class TestEvaluateMetric:
    def test_perfect_balanced_classifier_scores_one_everywhere(self):
        k = 4
        c = ConfusionMatrix(np.eye(k) / k, np.full(k, 1.0 / k))
        for kind in (MEAN_RECALL, G_MEAN, H_MEAN):
            spec = MetricSpec(kind)
            assert evaluate_metric(spec, c, neutral_lagrange(spec, k)) == pytest.approx(1.0)

    def test_two_class_closed_forms(self):
        # recalls 0.8 and 0.4 under equal priors
        c = ConfusionMatrix(np.array([[0.4, 0.1], [0.3, 0.2]]), np.array([0.5, 0.5]))
        get = lambda kind: evaluate_metric(MetricSpec(kind), c, neutral_lagrange(MetricSpec(kind), 2))
        assert get(MEAN_RECALL) == pytest.approx(0.6)
        assert get(G_MEAN) == pytest.approx(np.sqrt(0.32))
        assert get(H_MEAN) == pytest.approx(2.0 / (1.0 / 0.8 + 1.0 / 0.4))

    def test_min_recall_with_one_hot_multiplier_is_min(self):
        rng = np.random.default_rng(11)
        c = random_confusion(rng, 5)
        lam = np.zeros(5)
        lam[np.argmin(c.recalls())] = 1.0
        spec = MetricSpec(MIN_RECALL)
        value = evaluate_metric(spec, c, lam)
        assert value == pytest.approx(c.recalls().min())

    def test_zero_diagonal_gives_limit_zero_not_a_fault(self):
        entries = np.array([[0.0, 0.5], [0.0, 0.5]])
        c = ConfusionMatrix(entries, np.array([0.5, 0.5]))
        for kind in (G_MEAN, H_MEAN):
            spec = MetricSpec(kind)
            assert evaluate_metric(spec, c, neutral_lagrange(spec, 2)) == 0.0

    def test_am_gm_hm_chain(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            c = random_confusion(rng, int(rng.integers(2, 7)))
            am = evaluate_metric(MetricSpec(MEAN_RECALL), c, np.zeros(0))
            gm = evaluate_metric(MetricSpec(G_MEAN), c, np.zeros(0))
            hm = evaluate_metric(MetricSpec(H_MEAN), c, np.zeros(0))
            assert hm <= gm + 1e-12 <= am + 2e-12


class TestMetricGradient:
    def test_mean_recall_hand_case(self):
        c = ConfusionMatrix(np.array([[0.4, 0.1], [0.2, 0.3]]), np.array([0.5, 0.5]))
        g = metric_grad_unconstrained(MetricSpec(MEAN_RECALL), c, np.zeros(0))
        np.testing.assert_allclose(g, [[0.08, -0.08], [-0.12, 0.12]], atol=1e-12)

    def test_matches_finite_differences_for_every_kind(self):
        rng = np.random.default_rng(101)
        for kind in METRIC_KINDS:
            for _ in range(20):
                k = int(rng.integers(3, 7))
                spec = MetricSpec(kind)
                c = random_confusion(rng, k)
                lam = random_lagrange(rng, spec, k)
                analytic = metric_grad_unconstrained(spec, c, lam)
                numeric = fd_metric_grad(spec, c, lam)
                np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-8,
                                           err_msg=f"kind={kind}")

    def test_rows_sum_to_zero(self):
        rng = np.random.default_rng(43)
        for kind in METRIC_KINDS:
            spec = MetricSpec(kind)
            c = random_confusion(rng, 6)
            g = metric_grad_unconstrained(spec, c, random_lagrange(rng, spec, 6))
            np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-9)

    def test_zero_recall_gradient_raises(self):
        entries = np.array([[0.0, 0.5], [0.0, 0.5]])
        c = ConfusionMatrix(entries, np.array([0.5, 0.5]))
        with pytest.raises(SelMixError, match="zero recall"):
            metric_grad_unconstrained(MetricSpec(G_MEAN), c, np.zeros(0))


class TestUpdateLagrange:
    def test_min_recall_softmax_concentrates_on_worst_class(self):
        c = ConfusionMatrix(np.array([[0.45, 0.05], [0.25, 0.25]]), np.array([0.5, 0.5]))
        lam = update_lagrange(MetricSpec(MIN_RECALL, omega=40.0), c)
        # recalls (0.9, 0.5): second weight is 1 / (1 + e^{-16})
        assert lam[1] >= 1.0 - 1e-6
        assert lam.sum() == pytest.approx(1.0)

    def test_coverage_clamps_to_zero_when_satisfied(self):
        spec = MetricSpec(MEAN_RECALL_COVERAGE, alpha=0.95)
        rng = np.random.default_rng(5)
        c = random_confusion(rng, 10)
        lam = update_lagrange(spec, c)
        satisfied = c.coverages() >= 0.095
        assert np.all(lam[satisfied] == 0.0)
        assert np.all(lam[~satisfied] > 0.0)

    def test_coverage_hand_value(self):
        # coverage 0.08 against target 0.095 with tau 0.01 and cap 100
        spec = MetricSpec(MEAN_RECALL_COVERAGE, alpha=0.95, tau=0.01, lambda_max=100.0)
        k = 10
        entries = np.full((k, k), (1.0 - 0.08 - 0.097) / (k * (k - 2)))
        entries[:, 0] = 0.08 / k
        entries[:, 1] = 0.097 / k
        priors = entries.sum(axis=1)
        c = ConfusionMatrix(entries / entries.sum(), priors / priors.sum())
        lam = update_lagrange(spec, c)
        cov0 = c.coverages()[0]
        expected = 100.0 * (1.0 - np.exp((cov0 - 0.095) / 0.01))
        assert lam[0] == pytest.approx(expected)
        assert lam[0] == pytest.approx(100.0 * (1.0 - np.exp(-1.5)), rel=1e-3)

    def test_coverage_monotone_and_capped(self):
        spec = MetricSpec(MEAN_RECALL_COVERAGE, alpha=0.95, tau=0.01, lambda_max=100.0)
        target = spec.alpha / 10
        coverages = np.linspace(0.0, target, 30)
        lams = 100.0 * (1.0 - np.exp(np.minimum((coverages - target) / spec.tau, 0.0)))
        assert np.all(np.diff(lams) < 0)        # farther below target -> larger lambda
        assert np.all(lams <= 100.0)

    @pytest.mark.parametrize("kind", [MEAN_RECALL_COVERAGE, H_MEAN_COVERAGE])
    def test_overflowing_slack_takes_its_limits_without_a_warning(self, kind):
        # HAND_C's coverages 0.4, 0.3, 0.2, 0.1 lie at least 0.0375 from the
        # target 0.2375, so each slack (coverage - alpha/K) / tau overflows
        spec = MetricSpec(kind, alpha=0.95, tau=1e-310, lambda_max=100.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = update_lagrange(spec, HAND_C)
        assert lam.tolist() == [0.0, 0.0, 100.0, 100.0]

    def test_large_omega_recovers_min_recall(self):
        rng = np.random.default_rng(17)
        spec = MetricSpec(MIN_RECALL, omega=1000.0)
        for _ in range(20):
            c = random_confusion(rng, 5)
            rec = np.sort(c.recalls())
            if rec[1] - rec[0] < 0.05:          # need a clear gap for the soft min
                continue
            lam = update_lagrange(spec, c)
            value = evaluate_metric(spec, c, lam)
            assert abs(value - rec[0]) <= 1e-3


class TestSpecValidation:
    def test_head_tail_default_split(self):
        spec = MetricSpec("min_recall_head_tail")
        head, tail = spec.head_tail(10)
        assert list(tail) == [9]
        assert len(head) == 9

    def test_head_set_must_be_proper(self):
        spec = MetricSpec("min_recall_head_tail", head_set=tuple(range(4)))
        for _ in range(2):      # a failed split is not cached
            with pytest.raises(SelMixError):
                spec.head_tail(4)

    def test_head_tail_built_once_per_k_and_read_only(self):
        spec = MetricSpec("h_mean_coverage_head_tail", head_set=(0, 2))
        head, tail = spec.head_tail(5)
        assert spec.head_tail(5)[0] is head and spec.head_tail(5)[1] is tail
        assert list(head) == [0, 2] and list(tail) == [1, 3, 4]
        assert list(spec.head_tail(3)[1]) == [1]
        with pytest.raises(ValueError):
            head[0] = 1
        with pytest.raises(ValueError):
            tail[0] = 0
        # the cache takes no part in equality or hashing
        other = MetricSpec("h_mean_coverage_head_tail", head_set=(2, 0))
        assert other == spec and hash(other) == hash(spec)

    def test_invalid_kind_rejected(self):
        with pytest.raises(SelMixError, match="unknown metric kind"):
            MetricSpec("accuracy")

    def test_confusion_invariants_enforced(self):
        with pytest.raises(SelMixError):
            ConfusionMatrix(np.array([[0.6, 0.1], [0.1, 0.3]]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("entries, priors", [
        (np.full((2, 2), np.nan), [0.5, 0.5]),
        ([[0.5, np.nan], [0.0, 0.5]], [0.5, 0.5]),
        ([[0.5, 0.0], [0.0, 0.5]], [np.nan, 0.5]),
        ([[0.5, 0.0], [0.0, 0.5]], [np.nan, np.nan]),
        ([[np.inf, 0.0], [0.0, 0.5]], [0.5, 0.5]),
        ([[0.5, 0.0], [0.0, 0.5]], [0.5, np.inf]),
    ])
    def test_non_finite_entries_and_priors_are_refused(self, entries, priors):
        with pytest.raises(SelMixError):
            ConfusionMatrix(np.array(entries), np.array(priors))


# recalls (0.8, 0.6, 0.6, 0.4) and coverages (0.4, 0.3, 0.2, 0.1) under equal priors
HAND_C = ConfusionMatrix(np.array([[4, 1, 0, 0], [2, 3, 0, 0], [1, 1, 3, 0], [1, 1, 1, 2]]) / 20.0,
                         np.full(4, 0.25))


class TestHeadTailKinds:
    @pytest.mark.parametrize("head_set, means", [(None, (2.0 / 3.0, 0.4)), ((0, 2), (0.7, 0.5))])
    def test_min_recall_head_tail_hand_values(self, head_set, means):
        spec = MetricSpec(MIN_RECALL_HEAD_TAIL, omega=5.0, head_set=head_set)
        lam = update_lagrange(spec, HAND_C)
        weights = np.exp(-5.0 * np.array(means))
        np.testing.assert_allclose(lam, weights / weights.sum(), rtol=1e-12)
        assert evaluate_metric(spec, HAND_C, lam) == pytest.approx(lam @ means, rel=1e-12)

    @pytest.mark.parametrize("kind", [MEAN_RECALL_COVERAGE_HEAD_TAIL, H_MEAN_COVERAGE_HEAD_TAIL])
    @pytest.mark.parametrize("head_set, covs", [(None, (0.3, 0.1)), ((2, 3), (0.15, 0.35))])
    def test_coverage_head_tail_refresh_uses_group_means(self, kind, head_set, covs):
        spec = MetricSpec(kind, alpha=0.95, tau=0.01, lambda_max=100.0, head_set=head_set)
        target = 0.95 / 4
        lam = update_lagrange(spec, HAND_C)
        expected = [0.0 if cov >= target else 100.0 * (1.0 - np.exp((cov - target) / 0.01))
                    for cov in covs]
        np.testing.assert_allclose(lam, expected, rtol=1e-12)
        assert np.count_nonzero(lam) == 1
        base = 0.6 if kind == MEAN_RECALL_COVERAGE_HEAD_TAIL else 4.0 / (1 / 0.8 + 2 / 0.6 + 1 / 0.4)
        psi = base + lam @ (np.array(covs) - target)
        assert evaluate_metric(spec, HAND_C, lam) == pytest.approx(psi, rel=1e-12)

    @pytest.mark.parametrize("head_set", [None, (1, 4)])
    def test_neutral_lagrange_for_every_kind(self, head_set):
        k = 7
        expected = {
            MEAN_RECALL: [], G_MEAN: [], H_MEAN: [],
            MIN_RECALL: np.full(k, 1.0 / k), MIN_RECALL_HEAD_TAIL: [0.5, 0.5],
            MEAN_RECALL_COVERAGE: np.zeros(k), H_MEAN_COVERAGE: np.zeros(k),
            MEAN_RECALL_COVERAGE_HEAD_TAIL: [0.0, 0.0], H_MEAN_COVERAGE_HEAD_TAIL: [0.0, 0.0],
        }
        assert set(expected) == set(METRIC_KINDS)
        for kind, lams in expected.items():
            got = neutral_lagrange(MetricSpec(kind, head_set=head_set), k)
            assert got.shape == (len(lams),), kind
            np.testing.assert_array_equal(got, lams, err_msg=kind)


class TestNonFiniteMultipliers:
    FAMILIES = [(MIN_RECALL, "simplex"), (MIN_RECALL_HEAD_TAIL, "simplex"),
                (MEAN_RECALL_COVERAGE, r"\[0, lambda_max\]"), (H_MEAN_COVERAGE, r"\[0, lambda_max\]"),
                (MEAN_RECALL_COVERAGE_HEAD_TAIL, r"\[0, lambda_max\]"),
                (H_MEAN_COVERAGE_HEAD_TAIL, r"\[0, lambda_max\]")]

    @pytest.mark.parametrize("kind, message", FAMILIES)
    @pytest.mark.parametrize("value, entries", [(np.nan, 1), (np.inf, 1), (-np.inf, 1), (np.nan, None)])
    def test_rejected_by_value_and_gradient(self, kind, message, value, entries):
        spec = MetricSpec(kind)
        c = random_confusion(np.random.default_rng(3), 5)
        lams = neutral_lagrange(spec, 5).copy()
        lams[:entries] = value
        for fn in (evaluate_metric, metric_grad_unconstrained):
            with pytest.raises(SelMixError, match=message):
                fn(spec, c, lams)


@st.composite
def spec_and_confusion(draw):
    k = draw(st.integers(2, 12))
    head_set = draw(st.none() | st.lists(st.integers(0, k - 1), min_size=1, max_size=k - 1,
                                         unique=True))
    spec = MetricSpec(draw(st.sampled_from(METRIC_KINDS)), head_set=head_set)
    priors = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    c_tilde = np.array(draw(st.lists(st.floats(-4.0, 4.0), min_size=k * k, max_size=k * k)))
    return spec, unconstrained_to_confusion(c_tilde.reshape(k, k), priors / priors.sum())


class TestMetricProperties:
    @settings(max_examples=300, deadline=None)
    @given(spec_and_confusion())
    def test_refresh_is_valid_and_gradient_rows_sum_to_zero(self, case):
        spec, c = case
        lam = update_lagrange(spec, c)
        validate_lagrange(spec, lam, c.k)
        g = metric_grad_unconstrained(spec, c, lam)
        assert np.all(np.isfinite(g))
        assert np.all(np.abs(g.sum(axis=1)) <= 1e-12 * (1.0 + np.abs(g).sum(axis=1)))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda k: st.tuples(
        st.just(k), st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=80))))
    def test_confusion_from_random_predictions(self, case):
        k, pairs = case
        # every class appears at least once among the labels
        labels = [y for y, _ in pairs] + list(range(k))
        predictions = [p for _, p in pairs] + list(range(k)[::-1])
        c = confusion_from_predictions(labels, predictions, k)
        assert np.all(c.entries >= 0.0)
        assert c.entries.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(c.entries.sum(axis=1), np.bincount(labels) / len(labels),
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(c.priors, c.entries.sum(axis=1))
