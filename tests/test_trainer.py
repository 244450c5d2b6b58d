import numpy as np
import pytest

from selmix import trainer
from selmix.classifier import LinearModel, class_centroids
from selmix.data import FeatureDataset, LTSpec, generate_longtail, split
from selmix.errors import SelMixError
from selmix.gain import gain_matrix
from selmix.metrics import (
    METRIC_KINDS,
    MEAN_RECALL,
    MIN_RECALL,
    MetricSpec,
    evaluate_metric,
    model_confusion,
    update_lagrange,
)
from selmix.trainer import (
    CycleRecord,
    RunHistory,
    TrainerConfig,
    _class_layout,
    _cycle_policy,
    _draw_block,
    _draw_pairs,
    cosine_lr,
    pretrain_erm,
    refresh_pseudo_labels,
    run_selmix,
)


def small_benchmark(seed=0, within_std=0.45):
    ds = generate_longtail(LTSpec(K=5, d=8, N1=120, rho=12.0, within_std=within_std, seed=seed))
    return split(ds, (0.5, 0.3, 0.2), seed=seed)


def biased_init(train, seed=0):
    # short warm start: head-biased but with room for every metric to improve
    return pretrain_erm(train, train.dim, train.num_classes, steps=60, seed=seed)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0.4, 0, 100) == pytest.approx(0.4)
        assert cosine_lr(0.4, 100, 100) == pytest.approx(0.0, abs=1e-16)
        assert cosine_lr(0.4, 50, 100) == pytest.approx(0.2)

    def test_bounds_checked(self):
        with pytest.raises(SelMixError):
            cosine_lr(0.1, 5, 4)


class TestRefreshPseudoLabels:
    def test_zero_weights_tie_break_to_class_zero(self):
        ds = FeatureDataset(np.random.default_rng(0).normal(size=(6, 3)),
                            np.full(6, -1), num_classes=4, pseudo=True)
        out = refresh_pseudo_labels(LinearModel(np.zeros((3, 4))), ds)
        assert np.all(out.labels == 0)

    def test_separable_clusters_recover_latents(self):
        spec = LTSpec(K=4, d=6, N1=30, rho=2.0, within_std=0.01, seed=1)
        ds = generate_longtail(spec)
        hidden = FeatureDataset(ds.features, np.full(ds.n, -1), num_classes=4,
                                pseudo=True, true_labels=ds.labels)
        model = LinearModel(spec.class_means().T * 20.0)
        out = refresh_pseudo_labels(model, hidden)
        np.testing.assert_array_equal(out.labels, hidden.true_labels)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        ds = FeatureDataset(rng.normal(size=(10, 3)), np.full(10, -1), 3, pseudo=True)
        model = LinearModel(rng.normal(size=(3, 3)))
        once = refresh_pseudo_labels(model, ds)
        twice = refresh_pseudo_labels(model, once)
        np.testing.assert_array_equal(once.labels, twice.labels)


class TestRunSelmix:
    def test_zero_steps_returns_init_with_one_record(self):
        train, val, _ = small_benchmark()
        init = biased_init(train)
        cfg = TrainerConfig(metric=MetricSpec(MEAN_RECALL), cycles=1,
                            sgd_steps_per_cycle=0, seed=0)
        model, history = run_selmix(cfg, train, None, val, init)
        np.testing.assert_array_equal(model.weights, init.weights)
        assert len(history.records) == 1
        assert history.sgd_steps == 0

    def test_zero_lr_keeps_model_and_metric_constant(self):
        train, val, _ = small_benchmark()
        init = biased_init(train)
        cfg = TrainerConfig(metric=MetricSpec(MEAN_RECALL), cycles=4,
                            sgd_steps_per_cycle=10, lr=0.0, seed=1)
        model, history = run_selmix(cfg, train, None, val, init)
        np.testing.assert_array_equal(model.weights, init.weights)
        psis = [r.psi for r in history.records]
        assert len(set(psis)) == 1
        assert history.final_psi == pytest.approx(psis[0])

    def test_identical_seeds_are_bitwise_identical(self):
        train, val, _ = small_benchmark()
        init = biased_init(train)
        cfg = TrainerConfig(metric=MetricSpec(MIN_RECALL), cycles=3,
                            sgd_steps_per_cycle=20, batch_size=16, lr=0.05, seed=7)
        m1, h1 = run_selmix(cfg, train, None, val, init)
        m2, h2 = run_selmix(cfg, train, None, val, init)
        assert np.array_equal(m1.weights, m2.weights)
        assert h1.to_jsonl() == h2.to_jsonl()

    def test_different_seed_changes_the_run(self):
        train, val, _ = small_benchmark()
        init = biased_init(train)
        base = dict(metric=MetricSpec(MIN_RECALL), cycles=2, sgd_steps_per_cycle=15,
                    batch_size=16, lr=0.05)
        m1, _ = run_selmix(TrainerConfig(seed=1, **base), train, None, val, init)
        m2, _ = run_selmix(TrainerConfig(seed=2, **base), train, None, val, init)
        assert not np.array_equal(m1.weights, m2.weights)

    def test_budget_accounting(self):
        train, val, _ = small_benchmark()
        cfg = TrainerConfig(metric=MetricSpec(MEAN_RECALL), cycles=3,
                            sgd_steps_per_cycle=7, batch_size=4, seed=0)
        _, history = run_selmix(cfg, train, None, val, biased_init(train))
        assert history.sgd_steps == 21
        assert len(history.records) == 3

    def test_ssl_mode_runs_and_refreshes_pseudo_labels(self):
        train, val, unl = small_benchmark(seed=3, within_std=0.2)
        cfg = TrainerConfig(metric=MetricSpec(MEAN_RECALL), cycles=2,
                            sgd_steps_per_cycle=10, batch_size=8, lr=0.05,
                            mode="ssl", seed=3)
        model, history = run_selmix(cfg, train, unl, val, biased_init(train))
        assert history.sgd_steps == 20
        refreshed = refresh_pseudo_labels(model, unl)
        acc = np.mean(refreshed.labels == unl.true_labels)
        assert acc > 0.5                      # clusters are tight; labels mostly right

    def test_ssl_mode_requires_unlabeled(self):
        train, val, _ = small_benchmark()
        cfg = TrainerConfig(metric=MetricSpec(MEAN_RECALL), mode="ssl", seed=0)
        with pytest.raises(SelMixError, match="unlabeled"):
            run_selmix(cfg, train, None, val, biased_init(train))

    def test_validation_must_cover_every_class(self):
        train, val, _ = small_benchmark()
        gap = FeatureDataset(val.features[val.labels != 2],
                             val.labels[val.labels != 2], val.num_classes)
        cfg = TrainerConfig(metric=MetricSpec(MEAN_RECALL), seed=0)
        with pytest.raises(SelMixError, match="class 2 absent"):
            run_selmix(cfg, train, None, gap, biased_init(train))

    def test_uniform_and_greedy_policies_run(self):
        train, val, _ = small_benchmark()
        init = biased_init(train)
        for policy in ("uniform", "greedy"):
            cfg = TrainerConfig(metric=MetricSpec(MIN_RECALL), cycles=2,
                                sgd_steps_per_cycle=10, batch_size=8, lr=0.05,
                                seed=0, policy=policy)
            _, history = run_selmix(cfg, train, None, val, init)
            assert len(history.records) == 2


class TestPairResampling:
    def test_first_pool_empty_errors_after_cap(self):
        from selmix.policy import MixPolicy
        from selmix.trainer import RunHistory, _draw_pairs

        probs = np.zeros((3, 3))
        probs[1, 0] = 1.0                      # all mass on an empty first pool
        rng = np.random.default_rng(0)
        nonempty = np.array([True, False, True])
        with pytest.raises(SelMixError, match="class 1 has no labeled samples"):
            _draw_pairs(MixPolicy(probs), 4, rng, nonempty, np.full(3, True), RunHistory())

    def test_second_pool_collapse_is_counted_and_recovered(self):
        from selmix.policy import MixPolicy
        from selmix.trainer import RunHistory, _draw_pairs

        probs = np.full((2, 2), 0.25)          # pseudo pool for class 1 collapsed
        rng = np.random.default_rng(1)
        history = RunHistory()
        y1, y2 = _draw_pairs(MixPolicy(probs), 64, rng, np.full(2, True),
                             np.array([True, False]), history)
        assert np.all(y2 == 0)
        assert history.pseudo_empty_resamples > 0


class TestGreedyFormablePairs:
    def test_ssl_greedy_run_never_draws_an_empty_pseudo_pool(self):
        # the argmax cell's pseudo-labelled pool is empty in this run; greedy
        # used to put all its mass there and abort after 1000 redraws
        ds = generate_longtail(LTSpec(K=6, d=8, N1=100, rho=20.0, seed=0))
        train, val, unlabeled = split(ds, (0.5, 0.3, 0.2), seed=0)
        init = pretrain_erm(train, train.dim, train.num_classes, steps=60, seed=0)
        cfg = TrainerConfig(metric=MetricSpec(MEAN_RECALL), cycles=3, sgd_steps_per_cycle=7,
                            batch_size=16, lr=0.1, seed=0, mode="ssl", policy="greedy")
        _, history = run_selmix(cfg, train, unlabeled, val, init)
        assert len(history.records) == 3
        assert history.sgd_steps == 21
        assert history.pair_resamples == history.pseudo_empty_resamples == 0


class TestClassLayout:
    def test_gather_matches_class_index_lists(self):
        from selmix.trainer import _class_layout

        rng = np.random.default_rng(5)
        labels = rng.choice([-1, 0, 2, 3], size=40)    # class 1 empty, some unassigned rows
        pool = FeatureDataset(rng.normal(size=(40, 2)), labels, num_classes=4, pseudo=True)
        layout = _class_layout(pool)
        indices = pool.class_indices()
        np.testing.assert_array_equal(layout.count, [idx.size for idx in indices])
        for y in (0, 2, 3):
            u = np.append(rng.random(200), [0.0, np.nextafter(1.0, 0.0)])
            want = [indices[y][int(v * indices[y].size)] for v in u]
            np.testing.assert_array_equal(layout.rows(np.full(u.size, y), u), want)
        assert set(layout.order[: np.sum(labels == -1)]) == set(np.flatnonzero(labels == -1))


class TestPairDraws:
    def test_nonempty_pools_take_one_vectorised_draw(self):
        from selmix.policy import MixPolicy
        from selmix.trainer import RunHistory, _draw_pairs

        probs = np.random.default_rng(6).random((4, 4))
        policy = MixPolicy(probs / probs.sum())
        rng, twin = np.random.default_rng(9), np.random.default_rng(9)
        history = RunHistory()
        y1, y2 = _draw_pairs(policy, 50, rng, np.full(4, True), np.full(4, True), history)
        cdf = np.cumsum(policy.probs.reshape(-1))
        flat = np.minimum(np.searchsorted(cdf, twin.random(50), side="right"), 15)
        np.testing.assert_array_equal(y1, flat // 4)
        np.testing.assert_array_equal(y2, flat % 4)
        assert rng.bit_generator.state == twin.bit_generator.state
        assert history.pair_resamples == history.pseudo_empty_resamples == 0


def per_step_run(config, train, unlabeled, validation, init):
    """``run_selmix`` with one pair draw, gather, mix and update per SGD step,
    the loop that block drawing replaced; returns (model, history, end
    states of the pair, beta and element streams)."""
    ss = np.random.SeedSequence(config.seed)
    pair_rng, beta_rng, elem_rng = (np.random.default_rng(s) for s in ss.spawn(3))
    model = init
    centroids = class_centroids(validation)
    second_pool = train
    if config.mode == "ssl":
        second_pool = refresh_pseudo_labels(model, unlabeled)
    history = RunHistory()
    first = _class_layout(train)
    total_steps = max(config.cycles * config.sgd_steps_per_cycle, 1)
    spec = config.metric
    global_step = 0
    for t in range(1, config.cycles + 1):
        confusion = model_confusion(model, validation)
        lam = update_lagrange(spec, confusion)
        psi = evaluate_metric(spec, confusion, lam)
        gains = gain_matrix(model, centroids, confusion.with_floor(0.5 / validation.n), spec,
                            lam, config.beta_bar)
        second = _class_layout(second_pool)
        first_nonempty, second_nonempty = first.count > 0, second.count > 0
        policy = _cycle_policy(config, gains, np.outer(first_nonempty, second_nonempty))
        history.records.append(CycleRecord(
            t=t, psi=float(psi), recalls=[float(r) for r in confusion.recalls()],
            coverages=[float(c) for c in confusion.coverages()],
            lambdas=[float(v) for v in lam.lambdas], gain_max=float(gains.values.max()),
            gain_min=float(gains.values.min()), policy_entropy=policy.entropy(), wall_ms=0.0,
        ))
        for _ in range(config.sgd_steps_per_cycle):
            y1, y2 = _draw_pairs(policy, config.batch_size, pair_rng, first_nonempty,
                                 second_nonempty, history)
            u1, u2 = elem_rng.random(config.batch_size), elem_rng.random(config.batch_size)
            betas = beta_rng.uniform(config.beta_min, 1.0, size=config.batch_size)
            x1 = train.features[first.rows(y1, u1)]
            x2 = second_pool.features[second.rows(y2, u2)]
            lr = config.lr
            if config.lr_schedule == "cosine":
                lr = cosine_lr(config.lr, global_step, total_steps)
            mixed = betas[:, None] * x1 + (1.0 - betas[:, None]) * x2
            shifted = mixed @ model.weights
            shifted = shifted - shifted.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            p = e / e.sum(axis=1, keepdims=True)
            p[np.arange(config.batch_size), y1] -= 1.0
            model = LinearModel(model.weights - lr * (mixed.T @ p / config.batch_size))
            global_step += 1
            history.sgd_steps += 1
        if config.mode == "ssl":
            second_pool = refresh_pseudo_labels(model, unlabeled)
    final_conf = model_confusion(model, validation)
    history.final_psi = float(evaluate_metric(spec, final_conf, update_lagrange(spec, final_conf)))
    return model, history, [g.bit_generator.state for g in (pair_rng, beta_rng, elem_rng)]


def _first_pool_gaps():
    """Training pool holding only classes 0 and 1 of five."""
    train, val, _ = small_benchmark()
    keep = train.labels <= 1
    return FeatureDataset(train.features[keep], train.labels[keep], train.num_classes), val


def _outcome(run):
    try:
        return run()
    except SelMixError as exc:
        return str(exc)


class TestBlockDrawnSgd:
    """Block-drawn SGD against the per-step reference: equal weights, history,
    resample counts, errors and final generator states."""

    @pytest.mark.parametrize("case, steps_per_block", [
        (dict(cycles=3, sgd_steps_per_cycle=7, batch_size=8), 3),
        (dict(cycles=3, sgd_steps_per_cycle=7, batch_size=8, lr_schedule="constant"), 3),
        (dict(cycles=2, sgd_steps_per_cycle=10, batch_size=1), 4),
        (dict(cycles=2, sgd_steps_per_cycle=10, batch_size=1), None),
        (dict(cycles=3, sgd_steps_per_cycle=0), 3),
        (dict(cycles=3, sgd_steps_per_cycle=7, batch_size=16, mode="ssl"), 3),
        (dict(cycles=3, sgd_steps_per_cycle=7, batch_size=16, mode="ssl"), None),
        (dict(cycles=3, sgd_steps_per_cycle=7, batch_size=8, policy="uniform",
              pools="first_gaps"), 3),
        (dict(cycles=3, sgd_steps_per_cycle=7, batch_size=8, pools="first_gaps",
              fails=True), 3),
    ], ids=["cosine", "constant", "batch1", "batch1-one-block", "no-steps", "ssl",
            "ssl-one-block", "first-pool-retries", "first-pool-error"])
    def test_matches_per_step_reference(self, monkeypatch, case, steps_per_block):
        case = dict(case)
        pools, fails = case.pop("pools", None), case.pop("fails", False)
        if case.get("mode") == "ssl":
            # pseudo-labelled pools of this run empty out: the pair draws retry
            ds = generate_longtail(LTSpec(K=6, d=8, N1=100, rho=20.0, seed=0))
            train, val, unlabeled = split(ds, (0.5, 0.3, 0.2), seed=0)
        elif pools == "first_gaps":
            (train, val), unlabeled = _first_pool_gaps(), None
        else:
            (train, val, _), unlabeled = small_benchmark(), None
        init = pretrain_erm(train, train.dim, train.num_classes, steps=60, seed=0)
        config = TrainerConfig(metric=MetricSpec(MIN_RECALL), lr=0.1, seed=0, **case)
        if steps_per_block is not None:
            monkeypatch.setattr(trainer, "_BLOCK_ELEMENTS",
                                steps_per_block * config.batch_size * train.dim)

        want = _outcome(lambda: per_step_run(config, train, unlabeled, val, init))
        assert isinstance(want, str) == fails
        streams = []

        def recording_rng(seed=None, _make=np.random.default_rng):
            streams.append(_make(seed))
            return streams[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        got = _outcome(lambda: run_selmix(config, train, unlabeled, val, init))
        monkeypatch.undo()
        if isinstance(want, str):
            assert got == want
            return
        (want_model, want_history, want_states), (model, history) = want, got
        np.testing.assert_array_equal(model.weights, want_model.weights)
        assert history.to_jsonl() == want_history.to_jsonl()
        for field in ("sgd_steps", "pair_resamples", "pseudo_empty_resamples", "final_psi"):
            assert getattr(history, field) == getattr(want_history, field), field
        assert [g.bit_generator.state for g in streams] == want_states
        if case.get("mode") == "ssl":
            assert history.pseudo_empty_resamples > 0
        if pools == "first_gaps":
            assert history.pair_resamples > 0

    def test_exhausted_retries_end_the_block_before_their_batch(self):
        from selmix.policy import MixPolicy

        # class 1 has no labeled rows and holds 97% of the mass: a draw runs
        # out of its 100 retries with probability 0.97**101, about 5%
        policy = MixPolicy(np.array([[0.015, 0.015], [0.485, 0.485]]))
        first_nonempty, second_nonempty = np.array([True, False]), np.full(2, True)
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        y1, y2 = _draw_block(policy, 30, 4, rng, first_nonempty, second_nonempty, RunHistory())
        assert 0 < y1.shape[0] < 30
        for n in range(y1.shape[0]):
            want = _draw_pairs(policy, 4, twin, first_nonempty, second_nonempty, RunHistory())
            np.testing.assert_array_equal(y1[n], want[0])
            np.testing.assert_array_equal(y2[n], want[1])
        assert rng.bit_generator.state == twin.bit_generator.state
        with pytest.raises(SelMixError, match="class 1 has no labeled samples"):
            _draw_pairs(policy, 4, twin, first_nonempty, second_nonempty, RunHistory())
        with pytest.raises(SelMixError, match="class 1 has no labeled samples"):
            _draw_block(policy, 30, 4, rng, first_nonempty, second_nonempty, RunHistory())


def per_step_pretrain(train, steps, batch_size, logit_adjust, lr=0.5, seed=0):
    """The warm start drawn, gathered and stepped one batch at a time."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E1F)))
    w = np.zeros((train.dim, train.num_classes))
    shift = logit_adjust * np.log(train.priors()) if logit_adjust else 0.0
    for _ in range(steps):
        idx = rng.integers(0, train.n, size=batch_size)
        x = train.features[idx]
        p = trainer.softmax(x @ w + shift, axis=1)
        p[np.arange(batch_size), train.labels[idx]] -= 1.0
        w -= lr * (x.T @ p) / batch_size
    return w


class TestBlockDrawnPretrain:
    @pytest.mark.parametrize("steps_per_block", [5, None])
    @pytest.mark.parametrize("logit_adjust", [0.0, 1.0])
    @pytest.mark.parametrize("batch_size", [7, 8])
    def test_weights_byte_equal_to_per_step_draws(self, monkeypatch, batch_size,
                                                  logit_adjust, steps_per_block):
        train, _, _ = small_benchmark()
        steps = 23                                      # not a multiple of 5
        if steps_per_block is not None:
            monkeypatch.setattr(trainer, "_BLOCK_ELEMENTS",
                                steps_per_block * batch_size * train.dim)
        got = pretrain_erm(train, train.dim, train.num_classes, steps=steps,
                           batch_size=batch_size, logit_adjust=logit_adjust)
        want = per_step_pretrain(train, steps, batch_size, logit_adjust)
        assert got.weights.tobytes() == want.tobytes()


class TestTargetedMetricImproves:
    def test_majority_of_seeds_improve_each_kind(self):
        wins = {kind: 0 for kind in METRIC_KINDS}
        seeds = range(20)
        for seed in seeds:
            train, val, _ = small_benchmark(seed=seed)
            init = biased_init(train, seed=seed)
            for kind in METRIC_KINDS:
                cfg = TrainerConfig(metric=MetricSpec(kind), cycles=8,
                                    sgd_steps_per_cycle=25, batch_size=32,
                                    lr=0.08, seed=seed)
                _, history = run_selmix(cfg, train, None, val, init)
                if history.final_psi > history.records[0].psi:
                    wins[kind] += 1
        for kind, count in wins.items():
            assert count >= 16, f"{kind}: improved in only {count}/20 seeds"
