import re
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
    _cycle_policy,
    cosine_lr,
    pretrain_erm,
    refresh_pseudo_labels,
    run_selmix,
)


def small_benchmark(seed=0, within_std=0.45):
    spec = LTSpec(K=5, d=8, N1=120, rho=12.0, within_std=within_std, seed=seed)
    return split(spec, (0.5, 0.3, 0.2), seed=seed)


def biased_init(train, seed=0):
    # short warm start: head-biased but with room for every metric to improve
    return pretrain_erm(train, steps=60, seed=seed)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert cosine_lr(0.4, 0, 100) == pytest.approx(0.4)
        assert cosine_lr(0.4, 100, 100) == pytest.approx(0.0, abs=1e-16)
        assert cosine_lr(0.4, 50, 100) == pytest.approx(0.2)

    def test_bounds_checked(self):
        with pytest.raises(SelMixError):
            cosine_lr(0.1, 5, 4)
        for steps in ([3, 5], [-1, 2], []):
            with pytest.raises(SelMixError):
                cosine_lr(0.1, np.array(steps), 4)

    # the SGD block takes a block's rates in one call: 1000 and 5000 steps
    # are the reference run's and the benchmark's schedules
    @pytest.mark.parametrize("total", [1, 7, 200, 1000, 2000, 5000, 123457])
    def test_array_of_steps_equals_scalar_calls_bit_for_bit(self, total):
        steps = np.arange(total + 1)
        for base in (0.2, 0.37):
            want = np.array([cosine_lr(base, s, total) for s in range(total + 1)])
            assert cosine_lr(base, steps, total).tobytes() == want.tobytes()


class TestRefreshPseudoLabels:
    def test_zero_weights_tie_break_to_class_zero(self):
        ds = FeatureDataset(np.random.default_rng(0).normal(size=(6, 3)),
                            np.full(6, 3), num_classes=4)
        out = refresh_pseudo_labels(LinearModel(np.zeros((3, 4))), ds)
        assert np.all(out.labels == 0)

    def test_separable_clusters_recover_latents(self):
        spec = LTSpec(K=4, d=6, N1=30, rho=2.0, within_std=0.01, seed=1)
        ds = generate_longtail(spec)
        hidden = ds.with_labels(np.zeros(ds.n, dtype=np.int64))
        model = LinearModel(spec.class_means().T * 20.0)
        out = refresh_pseudo_labels(model, hidden)
        np.testing.assert_array_equal(out.labels, ds.labels)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        ds = FeatureDataset(rng.normal(size=(10, 3)), np.zeros(10, dtype=np.int64), 3)
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
        acc = np.mean(refreshed.labels == unl.labels)
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

    @pytest.mark.parametrize("name", ["train", "unlabeled"])
    def test_a_class_count_other_than_validation_is_named(self, name):
        data = dict(zip(["train", "validation", "unlabeled"], small_benchmark()))
        init = biased_init(data["train"])
        wide = data[name]
        data[name] = FeatureDataset(wide.features, wide.labels, num_classes=6)
        cfg = TrainerConfig(metric=MetricSpec(MEAN_RECALL), cycles=1, sgd_steps_per_cycle=2,
                            batch_size=4, mode="ssl", seed=0)
        with pytest.raises(SelMixError, match=f"^{name} set has 6 classes, validation has 5$"):
            run_selmix(cfg, **data, init=init)

    @pytest.mark.parametrize("name", ["validation", "unlabeled"])
    def test_a_feature_width_other_than_train_is_named(self, name):
        data = dict(zip(["train", "validation", "unlabeled"], small_benchmark()))
        init = biased_init(data["train"])
        wide = data[name]
        data[name] = FeatureDataset(wide.features[:, :5], wide.labels, wide.num_classes)
        cfg = TrainerConfig(metric=MetricSpec(MEAN_RECALL), cycles=1, sgd_steps_per_cycle=2,
                            batch_size=4, mode="ssl", seed=0)
        with pytest.raises(SelMixError, match=f"^{name} set has 5 features, train has 8$"):
            run_selmix(cfg, **data, init=init)

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
        spec = LTSpec(K=6, d=8, N1=100, rho=20.0, seed=0)
        train, val, unlabeled = split(spec, (0.5, 0.3, 0.2), seed=0)
        init = pretrain_erm(train, steps=60, seed=0)
        cfg = TrainerConfig(metric=MetricSpec(MEAN_RECALL), cycles=3, sgd_steps_per_cycle=7,
                            batch_size=16, lr=0.1, seed=0, mode="ssl", policy="greedy")
        _, history = run_selmix(cfg, train, unlabeled, val, init)
        assert len(history.records) == 3
        assert history.sgd_steps == 21


class TestUnlabeledPoolLabels:
    @pytest.mark.parametrize("relabel", ["shuffled", "constant", "relabelled"])
    def test_ssl_run_never_reads_them(self, relabel):
        # the trainer pseudo-labels the pool before any cycle reads its labels
        spec = LTSpec(K=6, d=8, N1=100, rho=20.0, seed=0)
        train, val, unlabeled = split(spec, (0.5, 0.3, 0.2), seed=0)
        labels = {"shuffled": np.random.default_rng(1).permutation(unlabeled.labels),
                  "constant": np.zeros(unlabeled.n, dtype=np.int64),
                  "relabelled": (unlabeled.labels + 1) % spec.K}[relabel]
        assert not np.array_equal(labels, unlabeled.labels)
        init = pretrain_erm(train, steps=60, seed=0)
        cfg = TrainerConfig(metric=MetricSpec(MIN_RECALL), cycles=3, sgd_steps_per_cycle=7,
                            batch_size=16, lr=0.1, seed=0, mode="ssl")
        want_model, want = run_selmix(cfg, train, unlabeled, val, init)
        model, history = run_selmix(cfg, train, unlabeled.with_labels(labels), val, init)
        assert history.to_jsonl() == want.to_jsonl()
        assert model.weights.tobytes() == want_model.weights.tobytes()


class TestMissingLabeledClasses:
    @pytest.mark.parametrize("mode", ["supervised", "ssl"])
    def test_no_seed_aborts_when_two_classes_have_no_labeled_rows(self, mode):
        # classes 4 and 5 keep no labeled rows; the min-recall multipliers
        # push the gain toward them, and every pair drawn must avoid them
        for seed in range(20):
            spec = LTSpec(K=6, d=8, N1=100, rho=20.0, seed=seed)
            train, val, unlabeled = split(spec, (0.5, 0.3, 0.2), seed=seed)
            keep = train.labels <= 3
            train = FeatureDataset(train.features[keep], train.labels[keep], train.num_classes)
            init = pretrain_erm(train, steps=60, seed=seed)
            cfg = TrainerConfig(metric=MetricSpec(MIN_RECALL), cycles=5, sgd_steps_per_cycle=20,
                                batch_size=32, lr=0.1, seed=seed, mode=mode)
            _, history = run_selmix(cfg, train, unlabeled if mode == "ssl" else None, val, init)
            assert history.sgd_steps == 100, seed


class TestClassLayout:
    def test_gather_matches_class_index_lists(self):
        rng = np.random.default_rng(5)
        labels = rng.choice([0, 2, 3], size=40)    # class 1 empty
        layout = FeatureDataset(rng.normal(size=(40, 2)), labels, num_classes=4).class_layout()
        indices = layout.indices()
        np.testing.assert_array_equal(layout.count, [idx.size for idx in indices])
        for y in (0, 2, 3):
            u = np.append(rng.random(200), [0.0, np.nextafter(1.0, 0.0)])
            want = [indices[y][int(v * indices[y].size)] for v in u]
            np.testing.assert_array_equal(layout.rows(np.full(u.size, y), u), want)


def reference_step_weights(weights, mixed, labels, lr):
    """One mixup SGD step written out with fresh arrays: the batch-mean
    cross-entropy gradient of the mixed rows, with the logits held
    class-major (one column per row) and the gradient scaled once by lr/n."""
    grad = mixed.T @ class_major_residual(weights.T @ mixed.T, labels).T
    return weights - grad * (lr / mixed.shape[0])


def class_major_residual(logits, labels):
    """softmax(logits) - onehot(labels) over axis 0 of the (K, n) ``logits``."""
    shifted = logits - logits.max(axis=0, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=0, keepdims=True)
    p[labels, np.arange(logits.shape[1])] -= 1.0
    return p


def reference_sgd_step(model, mixed, labels, lr):
    """:func:`reference_step_weights` as a new model, which refuses
    non-finite weights."""
    return LinearModel(reference_step_weights(model.weights, mixed, labels, lr))


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
    first = train.class_layout()
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
        second = second_pool.class_layout()
        formable = np.outer(first.count > 0, second.count > 0)
        gapped_cycles += not formable.all()
        policy = _cycle_policy(config, gains, formable)
        history.records.append(CycleRecord(
            t=t, psi=float(psi), recalls=[float(r) for r in confusion.recalls()],
            coverages=[float(c) for c in confusion.coverages()],
            lambdas=[float(v) for v in lam], gain_max=float(gains.values.max()),
            gain_min=float(gains.values.min()), policy_entropy=policy.entropy(),
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
            spec = LTSpec(K=6, d=8, N1=100, rho=20.0, seed=0)
            train, val, unlabeled = split(spec, (0.5, 0.3, 0.2), seed=0)
        elif pools == "first_gaps":
            (train, val), unlabeled = _first_pool_gaps(), None
        else:
            (train, val, _), unlabeled = small_benchmark(), None
        init = pretrain_erm(train, steps=60, seed=0)
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
           as_array=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_byte_equal_to_a_chain_of_reference_steps(self, k, d, n, steps, schedule, as_array,
                                                      seed):
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=(d, k))
        mixed = rng.normal(size=(steps, n, d)) * rng.uniform(0.1, 3.0)
        labels = rng.integers(k, size=(steps, n))
        lrs = [0.0] * steps
        if schedule == "cosine":
            total, start, base = steps + 40, int(rng.integers(0, 41)), rng.uniform(0.0, 1.0)
            lrs = [cosine_lr(base, start + s, total) for s in range(steps)]
        if as_array:
            lrs = np.array(lrs)
        want = reference_chain(weights, mixed, labels, lrs)
        got = weights.copy()
        sgd_mixup_block(got, mixed, labels, lrs)
        assert got.tobytes() == want.tobytes()

    # the benchmark workloads' shapes, past the hypothesis draws' K <= 12
    @pytest.mark.parametrize("k, d, n, steps", [(10, 16, 64, 100), (100, 128, 64, 16),
                                                (1000, 64, 64, 8)])
    def test_byte_equal_to_the_reference_chain_at_benchmark_shapes(self, k, d, n, steps):
        rng = np.random.default_rng(k)
        weights = rng.normal(size=(d, k)) * 0.1
        mixed = rng.normal(size=(steps, n, d))
        labels = rng.integers(k, size=(steps, n))
        lrs = cosine_lr(0.2, np.arange(steps), 5000)
        want = reference_chain(weights, mixed, labels, lrs)
        got = weights.copy()
        sgd_mixup_block(got, mixed, labels, lrs)
        assert got.tobytes() == want.tobytes()

    # one row of one feature at K=2, warm-start shifts whose -inf entry
    # leaves a class without rows or probability, and a block whose logits
    # fill np.dot's largest output while its gradient takes matmul: a BLAS
    # build whose dot rounds these products differently from @ fails here
    @pytest.mark.parametrize("k, d, n, absent", [(2, 1, 1, None), (3, 1, 1, 2),
                                                 (10, 16, 64, 9), (64, 65, 64, None)])
    def test_byte_equal_to_the_reference_chain_at_edge_shapes(self, k, d, n, absent):
        rng = np.random.default_rng(k + d)
        weights = rng.normal(size=(d, k))
        mixed = rng.normal(size=(30, n, d))
        labels = rng.integers(k, size=(30, n))
        lrs = cosine_lr(0.5, np.arange(30), 100)
        if absent is None:
            shift, want = None, reference_chain(weights, mixed, labels, lrs)
        else:
            shift = np.log(rng.dirichlet(np.ones(k)))
            shift[absent] = -np.inf
            labels[labels == absent] = 0
            want = weights
            for x, y, lr in zip(mixed, labels, lrs):
                grad = x.T @ class_major_residual(want.T @ x.T + shift[:, None], y).T
                want = want - grad * (lr / n)
        got = weights.copy()
        sgd_mixup_block(got, mixed, labels, lrs, shift)
        assert np.isfinite(got).all() and got.tobytes() == want.tobytes()

    def test_mixed_rows_are_converted_to_contiguous_float64_once(self):
        rng = np.random.default_rng(8)
        weights = rng.normal(size=(3, 4))
        mixed = rng.normal(size=(2, 6, 6)).astype(np.float32)[:, :, ::2]
        labels = rng.integers(4, size=(2, 6))
        want = weights.copy()
        sgd_mixup_block(want, np.ascontiguousarray(mixed, dtype=np.float64), labels, [0.1, 0.2])
        got = weights.copy()
        sgd_mixup_block(got, mixed, labels, [0.1, 0.2])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("mixed_dtype, message", [
        (np.complex128, "mixed rows of dtype complex128 do not cast safely"),
        (object, "mixed rows of dtype object do not cast safely"),
    ], ids=["mixed-complex", "mixed-object"])
    def test_mixed_rows_outside_the_contract_are_refused(self, mixed_dtype, message):
        rng = np.random.default_rng(9)
        weights = rng.normal(size=(3, 4))
        before = weights.copy()
        mixed = rng.normal(size=(2, 6, 3)).astype(mixed_dtype)
        with pytest.raises(SelMixError, match=re.escape(message)):
            sgd_mixup_block(weights, mixed, rng.integers(4, size=(2, 6)), [0.1, 0.2])
        np.testing.assert_array_equal(weights, before)

    @pytest.mark.parametrize("lrs, width, message", [
        ([0.1], 3, "need one rate per step, got 1 for 3 steps"),
        ([0.1] * 4, 3, "need one rate per step, got 4 for 3 steps"),
        ([0.1] * 3, 5, "mixed rows have 5 features, weights 3"),
    ])
    def test_rates_and_width_must_match_the_block(self, lrs, width, message):
        rng = np.random.default_rng(5)
        weights = rng.normal(size=(3, 4))
        mixed, labels = rng.normal(size=(3, 6, width)), rng.integers(4, size=(3, 6))
        got = weights.copy()
        with pytest.raises(SelMixError, match=re.escape(message)):
            sgd_mixup_block(got, mixed, labels, lrs)
        assert got.tobytes() == weights.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(m=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                      max_size=32),
           log_b=st.integers(0, 12), lr=st.floats(1e-6, 1e3))
    def test_one_scale_equals_average_then_scale_at_a_power_of_two_batch(self, m, log_b, lr):
        # lr / B and M / B are exact for B = 2^j unless subnormal, so both orders
        # round the same real M * lr / B; at batch 64 the one scale moves nothing
        m, b = np.array(m), 2 ** log_b
        normal = (m == 0) | (np.abs(m) >= b * np.finfo(np.float64).tiny)
        with np.errstate(over="ignore"):
            assert (m * (lr / b))[normal].tobytes() == (m / b * lr)[normal].tobytes()

    def test_one_scale_and_average_then_scale_differ_at_batch_7(self):
        m = np.random.default_rng(6).normal(size=1000)
        assert (m * (0.3 / 7)).tobytes() != (m / 7 * 0.3).tobytes()

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

    @staticmethod
    def blowup_case(blowup):
        """A 6-step block whose steps from 3 on overflow: through features
        scaled by 1e200, which leave NaN weights, or through a rate of
        1e308 at step 3 alone, whose infinite weights later steps would turn
        NaN."""
        rng = np.random.default_rng(2)
        weights, labels = rng.normal(size=(4, 3)), rng.integers(3, size=(6, 8))
        mixed = rng.normal(size=(6, 8, 4))
        lrs = [0.5] * 6
        if blowup == "features":
            mixed[3:] *= 1e200
        else:
            mixed[3] *= 1e10
            lrs[3] = 1e308
        return weights, mixed, labels, lrs

    @staticmethod
    def reference_chain_failure(weights, mixed, labels, lrs):
        """The first step whose weights the chain of reference steps leaves
        non-finite."""
        with np.errstate(all="ignore"):
            for s, (x, y, lr) in enumerate(zip(mixed, labels, lrs)):
                weights = reference_step_weights(weights, x, y, lr)
                if not np.isfinite(weights).all():
                    return s
        raise AssertionError("no step overflowed")

    # numpy's default errstate, then a caller that ignores or raises every event
    CALLER_ERRSTATES = {"default": dict(divide="warn", over="warn", invalid="warn",
                                        under="ignore"),
                        "ignore": dict(all="ignore"), "raise": dict(all="raise")}

    @pytest.mark.parametrize("caller", sorted(CALLER_ERRSTATES))
    @pytest.mark.parametrize("action", ["always", "error"])
    @pytest.mark.parametrize("blowup", ["features", "rate"])
    def test_overflow_restores_the_block_and_raises_once(self, blowup, action, caller):
        weights, mixed, labels, lrs = self.blowup_case(blowup)
        failing = self.reference_chain_failure(weights, mixed, labels, lrs)
        assert 3 <= failing < 5
        finite = [reference_chain(weights, mixed[:steps], labels[:steps], lrs[:steps])
                  for steps in range(failing + 1)]
        with warnings.catch_warnings(record=True) as caught, \
                np.errstate(**self.CALLER_ERRSTATES[caller]):
            warnings.simplefilter(action)
            for steps in range(1, len(lrs) + 1):
                got = weights.copy()
                if steps <= failing:
                    sgd_mixup_block(got, mixed[:steps], labels[:steps], lrs[:steps])
                    assert got.tobytes() == finite[steps].tobytes()
                    continue
                with pytest.raises(SelMixError) as raised:
                    sgd_mixup_block(got, mixed[:steps], labels[:steps], lrs[:steps])
                assert str(raised.value) == "weights must be finite"
                assert got.tobytes() == weights.tobytes()
        assert caught == []

    def test_softmax_underflow_completes_under_a_raising_errstate(self):
        rng = np.random.default_rng(4)
        weights, labels = rng.normal(size=(4, 3)), rng.integers(3, size=(5, 8))
        mixed = rng.normal(size=(5, 8, 4)) * 300       # logit gaps far past exp's range
        lrs = [1e-3] * 5
        want = weights.copy()
        sgd_mixup_block(want, mixed, labels, lrs)
        with np.errstate(under="raise"):
            with pytest.raises(FloatingPointError, match="underflow"):
                reference_chain(weights, mixed, labels, lrs)
        got = weights.copy()
        with np.errstate(all="raise"):
            sgd_mixup_block(got, mixed, labels, lrs)
        assert np.isfinite(got).all() and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("caller", sorted(CALLER_ERRSTATES))
    def test_logit_overflow_to_minus_inf_completes_as_the_reference_chain(self, caller):
        # the first row's class-0 logit overflows to -inf, leaving that class no
        # probability; the gradient and the weights stay finite
        weights = np.array([[-1e10, 0.0]])
        mixed, labels, lrs = np.array([[[1e300], [1.0]]] * 2), np.array([[1, 0]] * 2), [0.5] * 2
        with np.errstate(all="ignore"):
            want = reference_chain(weights, mixed, labels, lrs)
        got = weights.copy()
        with warnings.catch_warnings(), np.errstate(**self.CALLER_ERRSTATES[caller]):
            warnings.simplefilter("error")
            sgd_mixup_block(got, mixed, labels, lrs)
        assert got.tobytes() == want.tobytes() != weights.tobytes()

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


def per_step_pretrain(train, steps, batch_size, logit_adjust, lr=0.5, seed=0,
                      scale=lambda grad, lr, batch_size: grad * (lr / batch_size)):
    """The warm start drawn, gathered and stepped one batch at a time;
    ``scale`` turns the summed gradient into the step."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E1F)))
    w = np.zeros((train.dim, train.num_classes))
    shift = logit_adjust * np.log(train.priors())[:, None] if logit_adjust else 0.0
    for _ in range(steps):
        idx = rng.integers(0, train.n, size=batch_size)
        x = train.features[idx]
        p = class_major_residual(w.T @ x.T + shift, train.labels[idx])
        w = w - scale(x.T @ p.T, lr, batch_size)
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
        got = pretrain_erm(train, steps=steps, batch_size=batch_size, logit_adjust=logit_adjust)
        want = per_step_pretrain(train, steps, batch_size, logit_adjust)
        assert got.weights.tobytes() == want.tobytes()

    @pytest.mark.parametrize("lr", [0.3, 0.7])
    def test_scales_the_summed_gradient_once_by_lr_over_batch(self, lr):
        # lr 0.5 and batch 8 scale exactly, so only an lr and a batch that round tell
        # M * (lr / B) from M / B * lr: the warm start steps through sgd_mixup_block
        train, _, _ = small_benchmark()
        got = pretrain_erm(train, steps=23, batch_size=7, lr=lr, logit_adjust=1.0)
        want = per_step_pretrain(train, 23, 7, 1.0, lr=lr)
        assert got.weights.tobytes() == want.tobytes()
        average_then_scale = per_step_pretrain(train, 23, 7, 1.0, lr=lr,
                                               scale=lambda grad, lr, b: grad / b * lr)
        assert got.weights.tobytes() != average_then_scale.tobytes()


class TestPretrainAbsentClass:
    @pytest.mark.parametrize("logit_adjust", [0.5, 1.0, -1.0])
    def test_absent_class_column_stays_zero_without_warning(self, logit_adjust):
        train, _, _ = small_benchmark()
        keep = train.labels != 4
        gap = FeatureDataset(train.features[keep], train.labels[keep], train.num_classes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = pretrain_erm(gap, steps=50, logit_adjust=logit_adjust)
        assert np.all(model.weights[:, 4] == 0.0)
        assert np.all(np.isfinite(model.weights))
        assert np.any(model.weights[:, :4] != 0.0)


class TestPretrainRejectsBadInputs:
    @pytest.mark.parametrize("kwargs, message", [
        ({"steps": -3}, "steps must be >= 0"),
        ({"batch_size": 0}, "batch_size must be >= 1"),
        ({"lr": -0.1}, "lr must be nonnegative and finite"),
        ({"lr": np.inf}, "lr must be nonnegative and finite"),
        ({"lr": np.nan}, "lr must be nonnegative and finite"),
        ({"logit_adjust": np.inf}, "logit shift non-finite"),
        ({"logit_adjust": 1e308}, "logit shift non-finite"),
        ({"logit_adjust": np.nan}, "logit shift non-finite"),
    ])
    def test_one_error_and_no_warning(self, kwargs, message):
        train, _, _ = small_benchmark()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SelMixError, match=message):
                pretrain_erm(train, **{"steps": 5, **kwargs})

    def test_a_training_set_without_rows_is_refused(self):
        empty = FeatureDataset(np.empty((0, 3)), np.empty(0, dtype=np.int64), 4)
        with pytest.raises(SelMixError, match="^pretrain needs a training set with at least one "):
            pretrain_erm(empty, steps=5)
        np.testing.assert_array_equal(pretrain_erm(empty, steps=0).weights, np.zeros((3, 4)))

    def test_only_present_classes_need_a_finite_shift(self):
        train, _, _ = small_benchmark()
        keep = train.labels == 0                        # one class: log prior 0, inf * 0 is nan
        alone = FeatureDataset(train.features[keep], train.labels[keep], train.num_classes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SelMixError, match="logit shift non-finite"):
                pretrain_erm(alone, steps=5, logit_adjust=np.inf)
            model = pretrain_erm(alone, steps=5, logit_adjust=1e308)
        assert np.all(model.weights == 0.0)             # one present class: no gradient


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
