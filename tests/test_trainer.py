import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selmix import trainer
from selmix.classifier import LinearModel, class_centroids, sgd_mixup_block, sgd_mixup_step
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
from selmix.policy import sample_pairs
from selmix.trainer import (
    CycleRecord,
    RunHistory,
    TrainerConfig,
    _class_layout,
    _cycle_policy,
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


class TestMissingLabeledClasses:
    @pytest.mark.parametrize("mode", ["supervised", "ssl"])
    def test_no_seed_aborts_when_two_classes_have_no_labeled_rows(self, mode):
        # classes 4 and 5 keep no labeled rows; the min-recall multipliers
        # push the gain toward them, and every pair drawn must avoid them
        for seed in range(20):
            ds = generate_longtail(LTSpec(K=6, d=8, N1=100, rho=20.0, seed=seed))
            train, val, unlabeled = split(ds, (0.5, 0.3, 0.2), seed=seed)
            keep = train.labels <= 3
            train = FeatureDataset(train.features[keep], train.labels[keep], train.num_classes)
            init = pretrain_erm(train, train.dim, train.num_classes, steps=60, seed=seed)
            cfg = TrainerConfig(metric=MetricSpec(MIN_RECALL), cycles=5, sgd_steps_per_cycle=20,
                                batch_size=32, lr=0.1, seed=seed, mode=mode)
            _, history = run_selmix(cfg, train, unlabeled if mode == "ssl" else None, val, init)
            assert history.sgd_steps == 100, seed


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


def reference_sgd_step(model, mixed, labels, lr):
    """One mixup SGD step written out with fresh arrays: the batch-mean
    cross-entropy gradient of the mixed rows, row-indexed label cells."""
    shifted = mixed @ model.weights
    shifted = shifted - shifted.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)
    p[np.arange(mixed.shape[0]), labels] -= 1.0
    return LinearModel(model.weights - lr * (mixed.T @ p / mixed.shape[0]))


def per_step_run(config, train, unlabeled, validation, init):
    """``run_selmix`` with one pair draw, gather, mix and update per SGD step,
    the loop that block drawing replaced, checking that every drawn pair is
    formable; returns (model, history, end states of the pair, beta and
    element streams, number of cycles with an unformable pair)."""
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
    gapped_cycles = 0
    for t in range(1, config.cycles + 1):
        confusion = model_confusion(model, validation)
        lam = update_lagrange(spec, confusion)
        psi = evaluate_metric(spec, confusion, lam)
        gains = gain_matrix(model, centroids, confusion.with_floor(0.5 / validation.n), spec,
                            lam, config.beta_bar)
        second = _class_layout(second_pool)
        formable = np.outer(first.count > 0, second.count > 0)
        gapped_cycles += not formable.all()
        policy = _cycle_policy(config, gains, formable)
        history.records.append(CycleRecord(
            t=t, psi=float(psi), recalls=[float(r) for r in confusion.recalls()],
            coverages=[float(c) for c in confusion.coverages()],
            lambdas=[float(v) for v in lam.lambdas], gain_max=float(gains.values.max()),
            gain_min=float(gains.values.min()), policy_entropy=policy.entropy(), wall_ms=0.0,
        ))
        for _ in range(config.sgd_steps_per_cycle):
            y1, y2 = sample_pairs(policy, pair_rng, config.batch_size)
            assert formable[y1, y2].all()
            u1, u2 = elem_rng.random(config.batch_size), elem_rng.random(config.batch_size)
            betas = beta_rng.uniform(config.beta_min, 1.0, size=config.batch_size)
            x1 = train.features[first.rows(y1, u1)]
            x2 = second_pool.features[second.rows(y2, u2)]
            lr = config.lr
            if config.lr_schedule == "cosine":
                lr = cosine_lr(config.lr, global_step, total_steps)
            mixed = betas[:, None] * x1 + (1.0 - betas[:, None]) * x2
            model = reference_sgd_step(model, mixed, y1, lr)
            global_step += 1
            history.sgd_steps += 1
        if config.mode == "ssl":
            second_pool = refresh_pseudo_labels(model, unlabeled)
    final_conf = model_confusion(model, validation)
    history.final_psi = float(evaluate_metric(spec, final_conf, update_lagrange(spec, final_conf)))
    states = [g.bit_generator.state for g in (pair_rng, beta_rng, elem_rng)]
    return model, history, states, gapped_cycles


def _first_pool_gaps():
    """Training pool holding only classes 0 and 1 of five."""
    train, val, _ = small_benchmark()
    keep = train.labels <= 1
    return FeatureDataset(train.features[keep], train.labels[keep], train.num_classes), val


class TestBlockDrawnSgd:
    """Block-drawn SGD against the per-step reference: equal weights, history
    and final generator states."""

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
        (dict(cycles=3, sgd_steps_per_cycle=7, batch_size=8, pools="first_gaps"), 3),
    ], ids=["cosine", "constant", "batch1", "batch1-one-block", "no-steps", "ssl",
            # "first-pool-*": uniform and selmix on a labeled pool without classes 2-4
            "ssl-one-block", "first-pool-retries", "first-pool-error"])
    def test_matches_per_step_reference(self, monkeypatch, case, steps_per_block):
        case = dict(case)
        pools = case.pop("pools", None)
        if case.get("mode") == "ssl":
            # pseudo-labelled pools of this run empty out
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

        want_model, want_history, want_states, gapped_cycles = per_step_run(
            config, train, unlabeled, val, init)
        streams = []

        def recording_rng(seed=None, _make=np.random.default_rng):
            streams.append(_make(seed))
            return streams[-1]

        monkeypatch.setattr(np.random, "default_rng", recording_rng)
        model, history = run_selmix(config, train, unlabeled, val, init)
        monkeypatch.undo()
        np.testing.assert_array_equal(model.weights, want_model.weights)
        assert history.to_jsonl() == want_history.to_jsonl()
        for field in ("sgd_steps", "final_psi"):
            assert getattr(history, field) == getattr(want_history, field), field
        assert [g.bit_generator.state for g in streams] == want_states
        if case.get("mode") == "ssl" or pools == "first_gaps":
            assert gapped_cycles > 0


def reference_chain(weights, mixed, labels, lrs):
    """``sgd_mixup_block``'s steps as a chain of reference steps."""
    model = LinearModel(weights)
    for x, y, lr in zip(mixed, labels, lrs):
        model = reference_sgd_step(model, x, y, lr)
    return model.weights


class TestSgdMixupBlock:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(2, 12), d=st.integers(1, 20), n=st.integers(1, 70),
           steps=st.integers(1, 40), schedule=st.sampled_from(["zero", "cosine"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_byte_equal_to_a_chain_of_reference_steps(self, k, d, n, steps, schedule, seed):
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=(d, k))
        mixed = rng.normal(size=(steps, n, d)) * rng.uniform(0.1, 3.0)
        labels = rng.integers(k, size=(steps, n))
        lrs = [0.0] * steps
        if schedule == "cosine":
            total, start, base = steps + 40, int(rng.integers(0, 41)), rng.uniform(0.0, 1.0)
            lrs = [cosine_lr(base, start + s, total) for s in range(steps)]
        want = reference_chain(weights, mixed, labels, lrs)
        got = weights.copy()
        sgd_mixup_block(got, mixed, labels, lrs)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_label_outside_classes_rejected(self, bad):
        rng = np.random.default_rng(1)
        weights, mixed = rng.normal(size=(3, 4)), rng.normal(size=(2, 5, 3))
        labels = rng.integers(4, size=(2, 5))
        labels[1, 2] = bad
        with pytest.raises(SelMixError, match=r"labels must lie in \[0, 4\)"):
            sgd_mixup_block(weights.copy(), mixed, labels, [0.1, 0.1])
        with pytest.raises(SelMixError, match=r"labels must lie in \[0, 4\)"):
            sgd_mixup_step(LinearModel(weights), mixed[1], labels[1], 0.1)

    def test_overflow_raises_at_the_reference_step(self):
        rng = np.random.default_rng(2)
        weights, labels = rng.normal(size=(4, 3)), rng.integers(3, size=(6, 8))
        mixed = rng.normal(size=(6, 8, 4))
        mixed[3:] *= 1e200
        lrs = [0.5] * 6
        model, failing = LinearModel(weights), None
        with np.errstate(all="ignore"):
            for s in range(6):
                try:
                    model = reference_sgd_step(model, mixed[s], labels[s], lrs[s])
                except SelMixError as exc:
                    failing, message = s, str(exc)
                    break
            assert failing is not None and failing >= 3
            sgd_mixup_block(weights.copy(), mixed[:failing], labels[:failing], lrs)
            with pytest.raises(SelMixError) as raised:
                sgd_mixup_block(weights.copy(), mixed[:failing + 1], labels[:failing + 1], lrs)
        assert str(raised.value) == message == "weights must be finite"

    def test_step_leaves_its_model_alone(self):
        rng = np.random.default_rng(3)
        model = LinearModel(rng.normal(size=(3, 4)))
        before = model.weights.tobytes()
        stepped = sgd_mixup_step(model, rng.normal(size=(5, 3)), rng.integers(4, size=5), 0.3)
        assert model.weights.tobytes() == before
        assert stepped.weights.tobytes() != before

    @pytest.mark.parametrize("mode", ["supervised", "ssl"])
    def test_run_leaves_init_alone(self, mode):
        train, val, unlabeled = small_benchmark(seed=3, within_std=0.2)
        init = biased_init(train)
        before = init.weights.tobytes()
        cfg = TrainerConfig(metric=MetricSpec(MIN_RECALL), cycles=2, sgd_steps_per_cycle=5,
                            batch_size=8, lr=0.1, seed=0, mode=mode)
        model, _ = run_selmix(cfg, train, unlabeled, val, init)
        assert init.weights.tobytes() == before
        assert model.weights.tobytes() != before


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

    @pytest.mark.parametrize("lr", [0.3, 0.7])
    def test_keeps_the_scale_then_average_order(self, lr):
        # lr 0.5 scales exactly, so only an lr that rounds tells lr * M / B from M / B * lr
        train, _, _ = small_benchmark()
        got = pretrain_erm(train, train.dim, train.num_classes, steps=23, batch_size=7,
                           lr=lr, logit_adjust=1.0)
        want = per_step_pretrain(train, 23, 7, 1.0, lr=lr)
        assert got.weights.tobytes() == want.tobytes()


class TestPretrainAbsentClass:
    @pytest.mark.parametrize("logit_adjust", [0.5, 1.0, -1.0])
    def test_absent_class_column_stays_zero_without_warning(self, logit_adjust):
        train, _, _ = small_benchmark()
        keep = train.labels != 4
        gap = FeatureDataset(train.features[keep], train.labels[keep], train.num_classes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = pretrain_erm(gap, gap.dim, gap.num_classes, steps=50,
                                 logit_adjust=logit_adjust)
        assert np.all(model.weights[:, 4] == 0.0)
        assert np.all(np.isfinite(model.weights))
        assert np.any(model.weights[:, :4] != 0.0)


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
