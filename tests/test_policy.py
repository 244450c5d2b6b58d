import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selmix import policy
from selmix.classifier import softmax
from selmix.errors import SelMixError
from selmix.gain import GainMatrix
from selmix.policy import (
    GAIN_GENERATORS,
    POLICY_KINDS,
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


@st.composite
def gains_and_formable(draw):
    k = draw(st.integers(1, 5))
    values = draw(st.lists(st.floats(-50.0, 50.0), min_size=k * k, max_size=k * k))
    formable = draw(st.lists(st.booleans(), min_size=k * k, max_size=k * k).filter(any))
    return GainMatrix(np.reshape(values, (k, k))), np.reshape(formable, (k, k))


class TestFormablePairs:
    """Each builder with a ``formable`` mask gives its unrestricted policy
    conditioned on the formable pairs, the distribution that redrawing
    until a pair can be formed would sample."""

    @settings(max_examples=300, deadline=None)
    @given(gains_and_formable(), st.floats(0.0, 20.0), st.booleans())
    def test_policies_are_conditioned_on_formable_pairs(self, case, s, mask_negative):
        g, formable = case
        k = formable.shape[0]
        builders = [
            (lambda f: selmix_distribution(g, s, mask_negative, f),
             selmix_distribution(g, s, mask_negative).probs),
            (lambda f: uniform_distribution(k, f), uniform_distribution(k).probs),
        ]
        for build, full in builders:
            p = build(formable).probs
            assert np.all(p[~formable] == 0.0)
            restricted = np.where(formable, full, 0.0)
            mass = restricted.sum()
            if mass > 1e-12:
                np.testing.assert_allclose(p, restricted / mass, rtol=1e-9, atol=1e-12)
            with pytest.raises(SelMixError, match="no class pair can be formed"):
                build(np.zeros((k, k), dtype=bool))
        with pytest.raises(SelMixError, match="no class pair can be formed"):
            greedy_distribution(g, np.zeros((k, k), dtype=bool))

    def test_masked_gains_fall_back_to_every_formable_pair(self):
        # the only nonnegative gain sits on an unformable pair
        g = GainMatrix(np.array([[1.0, -1.0], [-2.0, -1.0]]))
        formable = np.array([[False, True], [True, True]])
        p = selmix_distribution(g, s=1.0, mask_negative=True, formable=formable).probs
        e = np.exp([-1.0, -2.0, -1.0])
        np.testing.assert_allclose(p.reshape(-1)[1:], e / e.sum(), rtol=1e-12)
        assert p[0, 0] == 0.0

    def test_uniform_spreads_over_formable_pairs(self):
        formable = np.outer([True, False, True], [True, True, False])
        p = uniform_distribution(3, formable).probs
        np.testing.assert_array_equal(p, formable / 4.0)


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
        # one batched draw for a block of SGD steps consumes the stream
        # exactly like one draw per step
        probs = np.random.default_rng(6).random((4, 4))
        policy = MixPolicy(probs / probs.sum())
        rng, twin = np.random.default_rng(7), np.random.default_rng(7)
        singles = [sample_pairs(policy, rng, 1) for _ in range(30)]
        i, j = sample_pairs(policy, twin, 30)
        np.testing.assert_array_equal([a[0] for a, _ in singles], i)
        np.testing.assert_array_equal([b[0] for _, b in singles], j)
        assert rng.bit_generator.state == twin.bit_generator.state

    def test_cdf_rounding_below_one_never_picks_a_zero_mass_cell(self):
        # ten cells of 0.1 sum to 1 - 2**-53; the largest uniform below 1
        # used to run past them onto the last, zero-mass cell
        probs = np.zeros(16)
        probs[:10] = 0.1
        policy = MixPolicy(probs.reshape(4, 4))
        assert np.cumsum(probs)[-1] < 1.0

        class Top:
            def random(self, count):
                return np.full(count, np.nextafter(1.0, 0.0))

        i, j = sample_pairs(policy, Top(), 3)
        np.testing.assert_array_equal(4 * i + j, [9, 9, 9])

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_cdf_values_on_the_bucket_edges_draw_as_searchsorted(self, k, monkeypatch):
        # a CDF value at a bucket edge b/g, or an ulp from it, with draws an
        # ulp either side: a draw reads its bucket through u·m and floor, so
        # the table needs u·m and b/m exact, which a power-of-two m makes
        # them; the table's m buckets split each of the g here in two
        g = 1 << (32 * k * k - 1).bit_length()
        edges = np.arange(g + 1) / g
        near = np.concatenate([np.nextafter(edges, 0.0), edges, np.nextafter(edges, 1.0)])
        near = near[(near >= 0.0) & (near < 1.0)]
        assert near.size >= 4 * k * k               # enough draws to read a table
        m = table_buckets(near.size)
        assert m == 2 * g
        built = record_tables(monkeypatch)

        class FixedUniforms:
            def random(self, count):
                assert count == near.size
                return near.copy()

        for c in (near[near > 0.0] if k > 1 else [1.0]):
            probs = np.zeros(k * k)
            probs[0] = c
            probs[-1] += 1.0 - c
            policy = MixPolicy(probs.reshape(k, k))
            assert policy.cdf[0] == c
            i, j = sample_pairs(policy, FixedUniforms(), near.size)
            np.testing.assert_array_equal(k * i + j,
                                          np.searchsorted(policy.cdf, near, side="right"))
            assert built.pop() == m and not built

    def test_policy_validation(self):
        with pytest.raises(SelMixError):
            MixPolicy(np.array([[0.5, 0.2], [0.0, 0.0]]))

    def test_a_negative_count_is_refused(self):
        with pytest.raises(SelMixError, match="^cannot draw -1 pairs: the count must be >= 0$"):
            sample_pairs(uniform_distribution(2), np.random.default_rng(0), -1)

    def test_cdf_never_decreases_when_a_partial_sum_rounds_above_one(self):
        # the sum is within MixPolicy's 1e-9 of 1, but the partial sum
        # before the last cell with mass on passes 1
        probs = np.array([[0.6, 0.4 + 5e-10], [1e-12, 0.0]])
        policy = MixPolicy(probs)
        cdf = policy.cdf
        assert np.cumsum(probs)[1] > 1.0
        np.testing.assert_array_equal(cdf, [0.6, 1.0, 1.0, 1.0])
        u = np.concatenate([np.linspace(0.0, 1.0, 64, endpoint=False), [np.nextafter(1.0, 0.0)]])

        class FixedUniforms:
            def random(self, count):
                return u.copy()

        i, j = sample_pairs(policy, FixedUniforms(), u.size)
        np.testing.assert_array_equal(2 * i + j, np.searchsorted(cdf, u, side="right"))


def searched_guide(cdf: np.ndarray, m: int) -> np.ndarray:
    """The guide table built as it used to be, by searching the CDF for
    every bucket edge b/m: the reference for the counting build."""
    edges = np.searchsorted(cdf, np.arange(m + 1) / m, side="right")
    return np.where(edges[:-1] == edges[1:], edges[:-1], -1)


def table_buckets(count) -> int:
    """Buckets of the guide table a draw of ``count`` pairs reads from 4·K²
    draws up: the greatest power of two at most ``count``."""
    return 1 << int(count).bit_length() - 1


def record_tables(monkeypatch) -> list:
    """The bucket counts of the guide tables :func:`sample_pairs` builds
    from here on, one per table, in build order."""
    built = []
    build = policy._guide_table
    monkeypatch.setattr(policy, "_guide_table", lambda cdf, m: built.append(m) or build(cdf, m))
    return built


class TestGuideTable:
    @settings(max_examples=80, deadline=None)
    @given(k=st.sampled_from([1, 2, 3, 10, 100]),
           mass=st.sampled_from(["random", "sparse", "one", "edges"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_counting_build_equals_the_searched_table(self, k, mass, seed):
        rng = np.random.default_rng(seed)
        cells = k * k
        sizes = [table_buckets(count) for count in (4 * cells, 5 * cells, 6400, 1 << 20)
                 if count >= 4 * cells]
        probs = rng.random(cells)
        if mass == "sparse":                      # runs of zero-mass cells
            probs *= rng.random(cells) < 0.3
            probs[rng.integers(cells)] = 1.0
        elif mass == "one":
            probs = np.zeros(cells)
            probs[rng.integers(cells)] = 1.0
        elif mass == "edges":                     # CDF values on bucket edges, and an ulp off
            m = sizes[rng.integers(len(sizes))]
            cuts = np.sort(rng.integers(0, m + 1, size=cells - 1)) / m
            cuts = np.where(rng.random(cells - 1) < 0.3, np.nextafter(cuts, 0.0), cuts)
            cuts = np.where(rng.random(cells - 1) < 0.3, np.nextafter(cuts, 1.0), cuts)
            probs = np.diff(np.concatenate([[0.0], np.clip(np.sort(cuts), 0.0, 1.0), [1.0]]))
        cdf = MixPolicy((probs / probs.sum()).reshape(k, k)).cdf
        for m in sizes:
            table = policy._guide_table(cdf, m)
            assert table.dtype == np.intp
            assert table.tobytes() == searched_guide(cdf, m).tobytes()

    @pytest.mark.parametrize("k, count, m", [
        (1, 3, None), (1, 4, 4), (2, 15, None), (2, 16, 16), (2, 31, 16),
        (10, 399, None), (10, 400, 256), (10, 1280, 1024), (10, 6400, 4096),
        (10, np.int64(6400), 4096), (100, 39_999, None), (100, 40_000, 32_768),
        (1000, 4_000_000, 1 << 21),
    ])
    def test_table_is_the_greatest_power_of_two_at_most_the_draws(self, k, count, m,
                                                                   monkeypatch):
        # below 4·K² draws the CDF is searched outright; from there the
        # table never holds more buckets than the call has uniforms: the
        # reference run's 6400 draws at K=10 read 4096, a 1280-draw block 1024
        built = record_tables(monkeypatch)
        i, j = sample_pairs(uniform_distribution(k), np.random.default_rng(0), count)
        assert i.size == count
        assert built == ([] if m is None else [m])
        assert all(type(size) is int for size in built)

    @settings(max_examples=60, deadline=None)
    @given(k=st.sampled_from([1, 2, 10, 100]), mass=st.sampled_from(["spread", "sparse", "one"]),
           counts=st.permutations([0, 1, 7, 6400, 40000]), seed=st.integers(0, 2 ** 32 - 1))
    def test_draw_equals_searchsorted_on_the_cdf(self, k, mass, counts, seed):
        # draws of every size from one policy: those of 4·K² or more read
        # a guide table of their own
        rng = np.random.default_rng(seed)
        probs = rng.random(k * k)
        if mass == "sparse":                      # zero-mass cells, runs of equal CDF values
            probs *= rng.random(k * k) < 0.3
            probs[rng.integers(k * k)] = 1.0
        elif mass == "one":
            probs = np.zeros(k * k)
            probs[rng.integers(k * k)] = 1.0
        policy = MixPolicy((probs / probs.sum()).reshape(k, k))
        cdf = policy.cdf
        inner = cdf[cdf < 1.0]
        # the largest table's bucket edges, which hold every smaller one's
        m = table_buckets(max(counts))
        special = np.concatenate([inner, np.nextafter(inner, 0.0), np.arange(m) / m,
                                  [np.nextafter(1.0, 0.0)]])
        for count in counts:
            u = np.where(rng.random(count) < 0.5, rng.choice(special, count), rng.random(count))

            class FixedUniforms:
                def random(self, size):
                    assert size == count
                    return u.copy()

            i, j = sample_pairs(policy, FixedUniforms(), count)
            np.testing.assert_array_equal(k * i + j, np.searchsorted(cdf, u, side="right"))


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

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 4), rows=st.integers(1, 6), zero_share=st.sampled_from([0.0, 0.5]),
           scale=st.sampled_from([1.0, 1.0 - 2 ** -52, 0.9]), seed=st.integers(0, 2 ** 32 - 1))
    def test_round_draw_equals_the_sum_of_entries_at_or_below_u(self, k, rows, zero_share,
                                                                 scale, seed):
        # rows of zero-mass cells and rows whose CDF ends below 1, with u
        # drawn at random, exactly on CDF values and above the row's sum
        rng = np.random.default_rng(seed)
        cells = k * k
        probs = rng.random((rows, cells)) * (rng.random((rows, cells)) >= zero_share)
        probs[np.arange(rows), rng.integers(cells, size=rows)] += 0.1
        cdf = np.cumsum(probs / probs.sum(axis=1, keepdims=True) * scale, axis=1)
        u = rng.random(rows)
        on = rng.random(rows) < 0.4
        u[on] = cdf[on, rng.integers(cells, size=rows)[on]]
        past = rng.random(rows) < 0.2
        u[past] = np.nextafter(np.maximum(cdf[past, -1], u[past]), 1.0)
        want = np.minimum((cdf <= u[:, None]).sum(axis=1), cells - 1)
        np.testing.assert_array_equal(policy._inverse_cdf_rows(cdf, u), want)

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

    def test_s_whose_score_span_overflows_is_rejected(self):
        # spiky gains clamp to [-1, 1], so one round's scores span 2*s; the
        # largest accepted s plays without an overflow warning
        with pytest.raises(SelMixError, match="2 \\* s \\* T must be finite"):
            OnlineGameConfig(K=3, T=5, s=1e308)
        s = np.finfo(np.float64).max / 2
        with pytest.raises(SelMixError, match="2 \\* s \\* T must be finite"):
            OnlineGameConfig(K=3, T=2, s=s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_online_game(OnlineGameConfig(K=3, T=1, s=s, gain_generator="spiky"))
        assert np.isfinite(report["avg_gain_policy_expected"])

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

    def test_chunked_variant_game_peaks_under_8mb(self):
        # one (T, K²) float64 array alone takes 64 MB here
        cfg = OnlineGameConfig(K=20, T=20_000, gain_generator="iid_uniform",
                               policy_kind="selmix_hedge_variant", seed=4)
        tracemalloc.start()
        try:
            run_online_game(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


def reference_online_game(cfg: OnlineGameConfig) -> dict:
    """The whole-horizon game: every (T, K²) array at once."""
    t, k = cfg.T, cfg.K
    cells = k * k
    gen_ss, play_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    gains = _generate_gains(cfg, np.random.default_rng(gen_ss))
    lo = 0.0 if cfg.policy_kind == "selmix_hedge_variant" else -1.0
    flat = gains.reshape(t, cells)
    clamped_rounds = int(((flat.min(axis=1) < lo) | (flat.max(axis=1) > 1.0)).sum())
    np.clip(flat, lo, 1.0, out=flat)

    if cfg.policy_kind == "uniform":
        probs = np.full((t, cells), 1.0 / cells)
    elif cfg.policy_kind == "fixed":
        i, j = cfg.fixed_pair
        if not (0 <= i < k and 0 <= j < k):
            raise SelMixError("fixed pair out of range")
        probs = np.zeros((t, cells))
        probs[:, i * k + j] = 1.0
    elif cfg.policy_kind == "greedy":
        probs = np.zeros((t, cells))
        probs[np.arange(t), np.argmax(flat, axis=1)] = 1.0
    else:
        scores = np.empty((t, cells))
        if cfg.policy_kind == "selmix_hedge":
            np.cumsum(flat, axis=0, out=scores)
            scores *= cfg.s
        else:
            s_var = np.log(1.0 + 2.0 * np.sqrt(np.log(max(k, 2)) / t))
            scores[0] = 0.0
            np.cumsum(flat[:-1], axis=0, out=scores[1:])
            scores *= s_var
        probs = softmax(scores)

    avg_expected = float((probs * flat).sum(axis=1).mean())
    cdf = np.cumsum(probs, axis=1, out=probs)
    u = np.random.default_rng(play_ss).random(t)
    chosen = np.minimum((cdf <= u[:, None]).sum(axis=1), cells - 1)
    avg_policy = float(flat[np.arange(t), chosen].mean())
    avg_best_fixed = float(flat.mean(axis=0).max())
    log_k = np.log(max(k, 2))
    if cfg.policy_kind == "selmix_hedge":
        bound = 2.0 * log_k / (cfg.s * t)
    elif cfg.policy_kind == "selmix_hedge_variant":
        bound = 2.0 * np.sqrt(log_k) / np.sqrt(t)
    else:
        bound = float("nan")
    return {
        "K": k, "T": t, "policy": cfg.policy_kind, "generator": cfg.gain_generator,
        "seed": cfg.seed, "avg_gain_policy": avg_policy,
        "avg_gain_policy_expected": avg_expected, "avg_gain_best_fixed": avg_best_fixed,
        "regret": avg_best_fixed - avg_policy, "regret_expected": avg_best_fixed - avg_expected,
        "bound": bound, "clamped_rounds": clamped_rounds,
    }


class TestChunkedGame:
    """Chunked play reports exactly what whole-horizon play does."""

    CHUNK = 256        # rounds per chunk: K=1 256, K=2 64, K=3 28, K=10 2

    @pytest.mark.parametrize("generator", GAIN_GENERATORS)
    @pytest.mark.parametrize("kind", POLICY_KINDS)
    def test_reports_equal_whole_horizon_play(self, monkeypatch, kind, generator):
        monkeypatch.setattr(policy, "_CHUNK_ELEMENTS", self.CHUNK)
        for k in (1, 2, 3, 10):
            rows = self.CHUNK // (k * k)
            for t in sorted({1, 2, rows - 1, rows, rows + 1, 3 * rows + 5}):
                cfg = OnlineGameConfig(K=k, T=t, s=3.0, gain_generator=generator,
                                       policy_kind=kind, seed=t + k, fixed_pair=(k - 1, k // 2))
                got, want = run_online_game(cfg), reference_online_game(cfg)
                assert json.dumps(got) == json.dumps(want), (k, t)

    @pytest.mark.parametrize("k, t", [(1, 100_000), (10, 10_000)])
    def test_long_games_equal_whole_horizon_play(self, k, t):
        # the real chunk size: 7 chunks at K=1, 63 at K=10
        for kind in ("selmix_hedge", "selmix_hedge_variant", "greedy"):
            cfg = OnlineGameConfig(K=k, T=t, gain_generator="spiky", policy_kind=kind, seed=5)
            assert json.dumps(run_online_game(cfg)) == json.dumps(reference_online_game(cfg))

    @staticmethod
    def _patch_gains(monkeypatch, edit):
        """Play every game on the built-in gains as ``edit(gains, t0)`` leaves them."""
        generate = _generate_gains

        def edited(cfg, rng, t0=0, t1=None, out=None):
            gains = generate(cfg, rng, t0, t1, out)
            edit(gains, t0)
            return gains

        monkeypatch.setattr(policy, "_generate_gains", edited)
        monkeypatch.setitem(globals(), "_generate_gains", edited)

    @pytest.mark.parametrize("kind", ["selmix_hedge", "selmix_hedge_variant"])
    def test_a_negative_zero_first_round_equals_whole_horizon_play(self, monkeypatch, kind):
        def first_round(gains, t0):
            if t0 == 0:
                gains[0, ::2] = -0.0

        self._patch_gains(monkeypatch, first_round)
        monkeypatch.setattr(policy, "_CHUNK_ELEMENTS", self.CHUNK)
        for k, t in [(1, 1), (2, 1), (2, 65), (3, 57), (10, 7), (16, 3)]:
            cfg = OnlineGameConfig(K=k, T=t, s=3.0, gain_generator="spiky", policy_kind=kind,
                                   seed=t)
            assert json.dumps(run_online_game(cfg)) == json.dumps(reference_online_game(cfg))

    def test_a_cell_paying_negative_zero_sums_to_it(self, monkeypatch):
        # the running sums start from -0.0, the one seed that adds every gain
        # exactly: a cell paying -0.0 each round totals -0.0, as whole-horizon
        # np.cumsum gives.  reference_online_game cannot pin this: numpy's
        # mean starts from +0.0 and gives 0.0 here
        def zero_cell(gains, t0):
            gains[...] = -0.5
            gains[:, 0, 0] = -0.0

        self._patch_gains(monkeypatch, zero_cell)
        monkeypatch.setattr(policy, "_CHUNK_ELEMENTS", self.CHUNK)
        for k, t in [(2, 1), (2, 65), (3, 57), (10, 7), (16, 3)]:
            cfg = OnlineGameConfig(K=k, T=t, gain_generator="constant", seed=t)
            assert json.dumps(run_online_game(cfg)["avg_gain_best_fixed"]) == "-0.0", (k, t)

    def test_fixed_pair_out_of_range_raises_before_any_draw(self, monkeypatch):
        cfg = OnlineGameConfig(K=3, T=10, policy_kind="fixed", fixed_pair=(3, 0))
        with pytest.raises(SelMixError, match="fixed pair out of range"):
            reference_online_game(cfg)
        monkeypatch.setattr(policy, "_generate_gains", lambda *a: pytest.fail("gains drawn"))
        with pytest.raises(SelMixError, match="fixed pair out of range"):
            run_online_game(cfg)


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


class TestGainGenerators:
    @pytest.mark.parametrize("generator", GAIN_GENERATORS)
    def test_chunked_draws_equal_one_draw(self, generator):
        cfg = OnlineGameConfig(K=3, T=50, gain_generator=generator)
        whole = _generate_gains(cfg, np.random.default_rng(1))
        rng = np.random.default_rng(1)
        parts = [_generate_gains(cfg, rng, t0, min(t0 + 7, 50)) for t0 in range(0, 50, 7)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)

    def test_alternating_pays_the_parity_of_round_and_cell(self):
        cfg = OnlineGameConfig(K=3, T=50, gain_generator="alternating")
        t, i, j = np.ogrid[:50, :3, :3]
        gains = _generate_gains(cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(gains, (t + i + j) % 2)
