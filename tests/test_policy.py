import tracemalloc

import numpy as np
import pytest

from selmix.errors import SelMixError
from selmix.gain import GainMatrix
from selmix.policy import (
    GAIN_GENERATORS,
    MixPolicy,
    OnlineGameConfig,
    _generate_gains,
    greedy_distribution,
    run_online_game,
    sample_pairs,
    selmix_distribution,
    uniform_distribution,
)


class TestSelmixDistribution:
    def test_zero_temperature_is_uniform_over_unmasked(self):
        g = GainMatrix(np.array([[1.0, 0.5], [-2.0, 0.0]]))
        p = selmix_distribution(g, s=0.0, mask_negative=True).probs
        np.testing.assert_allclose(p, [[1 / 3, 1 / 3], [0.0, 1 / 3]])

    def test_constant_gains_give_uniform(self):
        g = GainMatrix(np.full((3, 3), 0.7))
        p = selmix_distribution(g, s=5.0).probs
        np.testing.assert_allclose(p, np.full((3, 3), 1.0 / 9.0))

    def test_masked_softmax_hand_case(self):
        g = GainMatrix(np.array([[1.0, 0.0], [0.0, -5.0]]))
        p = selmix_distribution(g, s=1.0, mask_negative=True).probs
        e = np.e
        expected = np.array([[e, 1.0], [1.0, 0.0]]) / (e + 2.0)
        np.testing.assert_allclose(p, expected, rtol=1e-12)
        assert p[1, 1] == 0.0

    def test_sharp_temperature_concentrates_on_argmax(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(4, 4))
        g[2, 3] = g.max() + 0.1
        p = selmix_distribution(GainMatrix(g), s=100.0, mask_negative=False).probs
        assert p[2, 3] >= 1.0 - 1e-4

    def test_all_negative_falls_back_to_unmasked_softmax(self):
        g = GainMatrix(np.array([[-1.0, -2.0], [-3.0, -4.0]]))
        p = selmix_distribution(g, s=1.0, mask_negative=True).probs
        assert p.sum() == pytest.approx(1.0)
        assert np.argmax(p) == 0            # least-bad pair keeps the most mass
        assert np.all(p > 0)

    def test_increasing_s_increases_argmax_mass(self):
        rng = np.random.default_rng(1)
        g = GainMatrix(rng.normal(size=(3, 3)))
        flat_argmax = np.unravel_index(np.argmax(g.values), (3, 3))
        masses = [
            selmix_distribution(g, s, mask_negative=False).probs[flat_argmax]
            for s in (0.0, 1.0, 5.0, 25.0)
        ]
        assert np.all(np.diff(masses) > 0)


class TestGreedyDistribution:
    def test_one_hot_on_unique_max(self):
        g = GainMatrix(np.array([[0.0, 2.0], [1.0, -1.0]]))
        p = greedy_distribution(g).probs
        np.testing.assert_array_equal(p, [[0.0, 1.0], [0.0, 0.0]])

    def test_constant_ties_break_row_major(self):
        p = greedy_distribution(GainMatrix(np.zeros((3, 3)))).probs
        assert p[0, 0] == 1.0

    def test_argmax_restricted_to_formable_pairs(self):
        g = GainMatrix(np.array([[0.0, 5.0, 2.0], [2.0, 2.0, -1.0], [0.0, 3.0, 0.0]]))
        formable = np.outer([True, True, False], [True, False, True])
        p = greedy_distribution(g, formable).probs
        assert p[0, 2] == 1.0   # (0, 1) cannot be formed; (0, 2) ties (1, 0), row-major wins

    def test_positive_scaling_keeps_argmax(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=(4, 4))
        base = greedy_distribution(GainMatrix(g)).probs
        scaled = greedy_distribution(GainMatrix(3.7 * g)).probs
        np.testing.assert_array_equal(base, scaled)


class TestSamplePair:
    def test_one_hot_always_returns_that_pair(self):
        probs = np.zeros((3, 3))
        probs[1, 2] = 1.0
        rng = np.random.default_rng(3)
        i, j = sample_pairs(MixPolicy(probs), rng, 50)
        assert np.all(i == 1) and np.all(j == 2)

    def test_uniform_frequencies_within_three_sigma(self):
        k = 3
        n = 100_000
        rng = np.random.default_rng(4)
        policy = uniform_distribution(k)
        counts = np.zeros((k, k))
        i, j = sample_pairs(policy, rng, n)
        np.add.at(counts, (i, j), 1)
        p = 1.0 / (k * k)
        sigma = np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= 3.0 * sigma)

    def test_two_cell_ratio(self):
        probs = np.zeros((2, 2))
        probs[0, 0], probs[1, 1] = 0.75, 0.25
        rng = np.random.default_rng(5)
        n = 40_000
        i, j = sample_pairs(MixPolicy(probs), rng, n)
        hits = np.sum((i == 0) & (j == 0))
        sigma = np.sqrt(n * 0.75 * 0.25)
        assert abs(hits - 0.75 * n) <= 3.0 * sigma

    def test_single_draws_match_one_batch(self):
        # the trainer's one-at-a-time resamples consume the stream exactly
        # like one batched draw
        probs = np.random.default_rng(6).random((4, 4))
        policy = MixPolicy(probs / probs.sum())
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        singles = [sample_pairs(policy, rng, 1) for _ in range(30)]
        i, j = sample_pairs(policy, twin, 30)
        np.testing.assert_array_equal([a[0] for a, _ in singles], i)
        np.testing.assert_array_equal([b[0] for _, b in singles], j)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_policy_validation(self):
        with pytest.raises(SelMixError):
            MixPolicy(np.array([[0.5, 0.2], [0.0, 0.0]]))


class TestOnlineGame:
    def test_constant_gains_give_zero_regret(self):
        for policy in ("selmix_hedge", "selmix_hedge_variant", "uniform", "greedy"):
            cfg = OnlineGameConfig(K=3, T=200, s=5.0, gain_generator="constant",
                                   policy_kind=policy, seed=0)
            report = run_online_game(cfg)
            assert report["regret"] == pytest.approx(0.0, abs=1e-12)

    def test_single_cell_game_has_zero_regret(self):
        cfg = OnlineGameConfig(K=1, T=100, s=2.0, gain_generator="iid_uniform",
                               policy_kind="selmix_hedge", seed=1)
        assert run_online_game(cfg)["regret"] == pytest.approx(0.0, abs=1e-12)

    def test_variant_meets_bound_on_alternating_adversary(self):
        t = 10_000
        regrets = []
        for seed in range(20):
            cfg = OnlineGameConfig(K=3, T=t, s=1.0, gain_generator="alternating",
                                   policy_kind="selmix_hedge_variant", seed=seed)
            regrets.append(run_online_game(cfg)["regret"])
        bound = 2.0 * np.sqrt(np.log(3.0)) / np.sqrt(t)
        mc_se = np.std(regrets, ddof=1) / np.sqrt(len(regrets))
        assert np.mean(regrets) <= bound + 3.0 * mc_se

    def test_hedge_with_current_round_meets_its_bound(self):
        t = 2000
        for gen in ("iid_uniform", "anticorrelated"):
            regrets = []
            for seed in range(10):
                cfg = OnlineGameConfig(K=4, T=t, s=10.0, gain_generator=gen,
                                       policy_kind="selmix_hedge", seed=seed)
                report = run_online_game(cfg)
                regrets.append(report["regret"])
            mc_se = np.std(regrets, ddof=1) / np.sqrt(len(regrets))
            assert np.mean(regrets) <= report["bound"] + 3.0 * mc_se

    def test_expected_regret_matches_theorem_without_noise(self):
        # expectation form of the guarantee, no sampling noise at all
        for seed in range(5):
            cfg = OnlineGameConfig(K=5, T=500, s=10.0, gain_generator="iid_uniform",
                                   policy_kind="selmix_hedge", seed=seed)
            report = run_online_game(cfg)
            assert report["regret_expected"] <= report["bound"] + 1e-12

    @pytest.mark.parametrize("u", [0.25, 0.5, 0.75])
    def test_draw_on_a_cdf_step_matches_sample_pairs(self, monkeypatch, u):
        # the uniform 2-class policy has CDF steps exactly at 0.25, 0.5, 0.75
        class FixedUniforms:
            def random(self, size):
                return np.full(size, u)

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: FixedUniforms())
        cfg = OnlineGameConfig(K=2, T=1, gain_generator="alternating", policy_kind="uniform")
        report = run_online_game(cfg)
        i, j = sample_pairs(uniform_distribution(2), FixedUniforms(), 1)
        # round 0 of the alternating generator pays (i + j) % 2
        assert report["avg_gain_policy"] == (i[0] + j[0]) % 2

    def test_out_of_range_gains_are_clamped_and_counted(self):
        cfg = OnlineGameConfig(K=3, T=50, s=1.0, gain_generator="spiky",
                               policy_kind="selmix_hedge", seed=2)
        report = run_online_game(cfg)
        assert report["clamped_rounds"] > 0
        assert report["regret"] <= report["bound"] + 1.0   # still a sane game

    def test_every_builtin_generator_runs(self):
        for gen in GAIN_GENERATORS:
            cfg = OnlineGameConfig(K=3, T=64, s=2.0, gain_generator=gen,
                                   policy_kind="uniform", seed=3)
            report = run_online_game(cfg)
            assert np.isfinite(report["avg_gain_policy"])

    def test_unknown_policy_rejected(self):
        with pytest.raises(SelMixError):
            OnlineGameConfig(K=3, T=10, policy_kind="thompson")

    @pytest.mark.parametrize("s", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_s_rejected(self, s):
        with pytest.raises(SelMixError, match="s must be positive and finite"):
            OnlineGameConfig(K=3, T=10, s=s)

    def test_variant_game_peaks_under_30mb(self):
        # the gains alone take 7.6 MB here; the game used to hold six such arrays
        cfg = OnlineGameConfig(K=10, T=10_000, gain_generator="iid_uniform",
                               policy_kind="selmix_hedge_variant", seed=3)
        tracemalloc.start()
        try:
            run_online_game(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 30 * 2**20


def _anticorrelated(k: int, t: int) -> np.ndarray:
    cfg = OnlineGameConfig(K=k, T=t, gain_generator="anticorrelated")
    return _generate_gains(cfg, np.random.default_rng(0)).reshape(t, k * k)


class TestAnticorrelatedGenerator:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 10])
    @pytest.mark.parametrize("t", [1, 2, 7, 37, 100, 301])
    def test_closed_form_matches_lowest_cumulative_rule(self, k, t):
        # literal rule: each round pays the m cells ranked lowest by
        # (cumulative gain so far, row-major index)
        cells = k * k
        m = max(1, cells // 2)
        expected = np.zeros((t, cells))
        cum = np.zeros(cells)
        for step in range(t):
            lowest = np.lexsort((np.arange(cells), cum))[:m]
            expected[step, lowest] = 1.0
            cum += expected[step]
        np.testing.assert_array_equal(_anticorrelated(k, t), expected)

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_pays_the_trailing_half_evenly(self, k):
        t = 250
        gains = _anticorrelated(k, t)
        m = max(1, k * k // 2)
        assert set(np.unique(gains)) <= {0.0, 1.0}
        assert (gains.sum(axis=1) == m).all()
        totals = gains.sum(axis=0)
        assert totals.max() - totals.min() <= 1.0
        if k > 1:
            assert not (gains == gains[0]).all()
