"""``predict`` must return exactly ``np.argmax(features @ weights, axis=1)``,
whichever of its paths (plain float64, the float32 screen with or without
float64 rechecks, the margins an ``ArgmaxCarry`` holds from the last call on
the same dataset, or the full-product fallback) decides a call."""

import tracemalloc
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selmix import classifier
from selmix.benchmark import BenchmarkSetting, benchmark_config, make_benchmark
from selmix.classifier import ArgmaxCarry, LinearModel, predict
from selmix.data import FeatureDataset, norm_bounds
from selmix.errors import SelMixError
from selmix.metrics import MEAN_RECALL, MetricSpec, model_confusion
from selmix.trainer import refresh_pseudo_labels, run_selmix


def oracle(model: LinearModel, ds: FeatureDataset) -> np.ndarray:
    return np.argmax(ds.features @ model.weights, axis=1)


def assert_exact(model: LinearModel, ds: FeatureDataset, carry: ArgmaxCarry | None = None) -> None:
    got, want = predict(model, ds, carry), oracle(model, ds)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@contextmanager
def screen_every_shape():
    """Send every shape through the float32 screen, however small."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifier, "_SCREEN_MIN_ROW_WORK", 0)
        mp.setattr(classifier, "_SCREEN_MIN_WORK", 0)
        yield


@contextmanager
def screen_blocks(rows: int | None, k: int):
    """Screen ``rows`` rows per block (the module's block size for None)."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            mp.setattr(classifier, "_SCREEN_BLOCK", rows * k)
        yield


# rows per screen block, from the number of rows n and classes k
BLOCK_ROWS = {"one": lambda n, k: 1, "k-minus-1": lambda n, k: k - 1,
              "non-divisor": lambda n, k: n // 2 + 1}


def count_top2(monkeypatch) -> list:
    """The (dtype, shape) of each logit block later products hand to _top2."""
    shapes, top2 = [], classifier._top2
    monkeypatch.setattr(classifier, "_top2", lambda l: shapes.append((l.dtype, l.shape)) or top2(l))
    return shapes


def screened_rows(shapes) -> int:
    """Rows the float32 screen multiplied, summed over its blocks."""
    return sum(shape[0] for dtype, shape in shapes if dtype == np.float32)


def rechecked_rows(model: LinearModel, ds: FeatureDataset) -> int:
    """How many rows the screen sends to the float64 recheck."""
    x32, norms = ds.screen_arrays
    w, d = model.weights, ds.dim
    wnorm = norm_bounds(w, axis=0).max()
    _, margin = classifier._top2(x32 @ w.astype(np.float32))
    bound = 2 * (classifier._rounding_error(norms, wnorm, d, np.float32)
                 + classifier._rounding_error(norms, wnorm, d, np.float64))
    return int(np.count_nonzero(~(margin > bound)))


def clusters(rng, n, d, k, row_scale=1.0, weight_scale=1.0):
    """Rows around k random means, and weights that point at the means."""
    means = rng.normal(size=(k, d))
    labels = rng.integers(0, k, n)
    x = (means[labels] + 0.5 * rng.normal(size=(n, d))) * row_scale
    return FeatureDataset(x, labels, k), LinearModel(means.T * 0.5 * weight_scale)


@st.composite
def screen_cases(draw):
    """A dataset and a model, with optional near-ties, exact ties, extreme
    row scales and NaN rows, and whether to force the screen on."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    big = draw(st.booleans())
    if big:       # straddles the real cutover: d*K from 1024 to 12800
        n, d, k = draw(st.integers(1000, 2500)), draw(st.integers(16, 128)), draw(st.integers(64, 100))
    else:
        n, d, k = draw(st.integers(1, 60)), draw(st.integers(1, 12)), draw(st.integers(2, 12))
    rng = np.random.default_rng(seed)
    row_scale = draw(st.sampled_from([1.0, 1.0, 1.0, 1e30, 1e-22, 1e-40, 1e-200]))
    weight_scale = draw(st.sampled_from([1.0, 1.0, 1e9, 1e-22]))
    ds, model = clusters(rng, n, d, k, row_scale, weight_scale)
    w = model.weights.copy()
    # column 1 a hair from column 0: a tie inside the float32 bound, decided
    # by float64, inside 4*e64 (full product), or exact (duplicate columns)
    gap = draw(st.sampled_from([None, 1e-3, 1e-6, 1e-9, 1e-12, 1e-15, 0.0]))
    if gap is not None:
        w[:, 1] = w[:, 0] + gap * rng.normal(size=d) * np.abs(w[:, 0]).max()
    x = ds.features.copy()
    if draw(st.booleans()) and n > 1:
        x[rng.integers(0, n, 1 + n // 10)] = np.nan
    return FeatureDataset(x, ds.labels, k), LinearModel(w), draw(st.booleans())


@settings(max_examples=200, deadline=None)
@given(case=screen_cases())
def test_screened_predict_equals_float64_argmax(case):
    ds, model, forced = case
    if forced:
        with screen_every_shape():
            assert_exact(model, ds)
    else:
        assert_exact(model, ds)


@st.composite
def screen_chains(draw):
    """A ``screen_cases`` dataset and a chain of 2-5 models on it: each a
    step of 0, 1e-9, 1e-3 or 10 times the weight scale from the last chained
    model, or an unrelated model interleaved, which the chain does not
    continue from."""
    ds, model, forced = draw(screen_cases())
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    base = model.weights
    scale = np.abs(base).max()
    models = [model]
    for step in draw(st.lists(st.sampled_from([0.0, 1e-9, 1e-3, 10.0, None]),
                              min_size=1, max_size=4)):
        if step is None:
            models.append(LinearModel(scale * rng.normal(size=base.shape)))
        else:
            base = base + step * scale * rng.normal(size=base.shape)
            models.append(LinearModel(base))
    return ds, models, forced


@settings(max_examples=100, deadline=None)
@given(chain=screen_chains())
def test_chained_predicts_equal_float64_argmax(chain):
    ds, models, forced = chain
    carry = ArgmaxCarry()
    with screen_every_shape() if forced else nullcontext():
        for model in models:
            assert_exact(model, ds, carry)


@pytest.mark.parametrize("block", sorted(BLOCK_ROWS))
@settings(max_examples=60, deadline=None)
@given(chain=screen_chains())
def test_any_screen_block_gives_the_float64_argmax(block, chain):
    # 1 row, K-1 rows and a non-divisor of n (for n >= 3) per block, with
    # and without carried margins
    ds, models, forced = chain
    carry = ArgmaxCarry()
    with screen_blocks(BLOCK_ROWS[block](ds.n, ds.num_classes), ds.num_classes):
        with screen_every_shape() if forced else nullcontext():
            assert_exact(models[0], ds)
            for model in models:
                assert_exact(model, ds, carry)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), d=st.integers(1, 40), k=st.integers(2, 12),
       scale=st.sampled_from([1.0, 1e-160, 1e-310, 1e30]),
       step=st.sampled_from([0.0, 1e-17, 1e-9, 1.0]),
       ties=st.booleans())
def test_drift_bounds_cover_every_column_distance(seed, d, k, scale, step, ties):
    rng = np.random.default_rng(seed)
    w0 = scale * rng.normal(size=(d, k))
    w = w0 + step * scale * rng.normal(size=(d, k))
    if ties:      # equal drift in columns 0 and 1: their distance cancels
        w[:, 1] = w0[:, 1] + (w[:, 0] - w0[:, 0])
    delta = w.astype(np.longdouble) - w0.astype(np.longdouble)
    gaps = np.sqrt(((delta[:, :, None] - delta[:, None, :]) ** 2).sum(axis=0)).max(axis=1)
    assert (classifier._drift_bounds(w - w0) >= gaps).all()


class TestCarriedMargins:
    def test_identical_weights_run_no_product_on_the_second_call(self, monkeypatch):
        ds, model = clusters(np.random.default_rng(11), 3000, 64, 100)
        carry = ArgmaxCarry()
        first = predict(model, ds, carry)
        assert carry.state is not None
        shapes = count_top2(monkeypatch)
        again = predict(LinearModel(model.weights.copy()), ds, carry)
        assert shapes == [] and again.tobytes() == first.tobytes()

    def test_a_small_step_screens_only_the_rows_it_could_flip(self, monkeypatch):
        rng = np.random.default_rng(12)
        ds, model = clusters(rng, 3000, 64, 100)
        carry = ArgmaxCarry()
        predict(model, ds, carry)
        shapes = count_top2(monkeypatch)
        moved = LinearModel(model.weights + 0.1 * rng.normal(size=model.weights.shape))
        assert_exact(moved, ds, carry)
        # no float64 recheck, and under 80% of the rows screened in float32
        assert shapes and all(dtype == np.float32 for dtype, _ in shapes)
        assert 0 < screened_rows(shapes) < ds.n * 0.8

    def test_a_second_refresh_at_the_same_weights_runs_no_product(self, monkeypatch):
        ds, model = clusters(np.random.default_rng(13), 3000, 64, 100)
        carry = ArgmaxCarry()
        first = refresh_pseudo_labels(model, ds, carry)
        shapes = count_top2(monkeypatch)
        again = refresh_pseudo_labels(model, ds, carry)
        assert shapes == []
        assert again.labels.tobytes() == first.labels.tobytes() == oracle(model, ds).tobytes()

    def test_writing_to_a_returned_array_leaves_the_next_answer(self):
        ds, model = clusters(np.random.default_rng(14), 3000, 64, 100)
        carry = ArgmaxCarry()
        got = predict(model, ds, carry)
        want = got.copy()
        got[:] = 0
        again = predict(model, ds, carry)
        assert again.tobytes() == want.tobytes()
        again += 1
        assert predict(model, ds, carry).tobytes() == want.tobytes()

    def test_a_full_product_fallback_drops_the_carried_state(self):
        ds, model = clusters(np.random.default_rng(15), 3000, 64, 100)
        carry = ArgmaxCarry()
        predict(model, ds, carry)
        assert_exact(LinearModel(np.zeros_like(model.weights)), ds, carry)
        assert carry.state is None
        assert_exact(model, ds, carry)
        assert carry.state is not None

    def test_interleaved_runs_screen_the_rows_of_runs_one_after_the_other(self, monkeypatch):
        # two random walks of weights, each with its own carry on one dataset
        rng = np.random.default_rng(16)
        ds, model = clusters(rng, 3000, 64, 100)
        runs = []
        for start in (0.0, 1.0):
            w = model.weights + start * rng.normal(size=model.weights.shape)
            runs.append([LinearModel(w := w + 0.05 * rng.normal(size=w.shape)) for _ in range(5)])
        shapes = count_top2(monkeypatch)

        def screened(order):
            carries, calls = [ArgmaxCarry(), ArgmaxCarry()], ([], [])
            for r, m in order:
                shapes.clear()
                assert_exact(m, ds, carries[r])
                calls[r].append(list(shapes))
            return calls

        alone = screened([(r, m) for r in (0, 1) for m in runs[r]])
        interleaved = screened([(r, m) for pair in zip(*runs) for r, m in enumerate(pair)])
        assert interleaved == alone
        # every later call of a run screened fewer rows than a fresh one
        assert all(screened_rows(call) < ds.n for run in alone for call in run[1:])

    def test_a_carry_filled_on_another_dataset_is_not_carried_over(self, monkeypatch):
        # same shape, rows reversed: the first dataset's carried labels would
        # be wrong for almost every row of the second
        a, model = clusters(np.random.default_rng(17), 3000, 64, 100)
        b = FeatureDataset(a.features[::-1], a.labels[::-1], 100)
        carry = ArgmaxCarry()
        predict(model, a, carry)
        shapes = count_top2(monkeypatch)
        assert_exact(model, b, carry)
        assert screened_rows(shapes) == b.n
        assert carry.state[0] is b.screen_arrays[0]

    def test_a_warm_carry_confusion_holds_no_logits_array(self):
        # nearly every row drifts out of its carried margin and is screened;
        # the screen once held all 15000 x 100 float32 logits (5.7 MiB)
        rng = np.random.default_rng(19)
        ds, model = clusters(rng, 15000, 128, 100)
        moved = LinearModel(model.weights + 0.5 * rng.normal(size=model.weights.shape))
        carry = ArgmaxCarry()
        model_confusion(model, ds, carry)
        tracemalloc.start()
        try:
            model_confusion(moved, ds, carry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert carry.state is not None and peak < 2 * 2 ** 20

    def test_predict_without_a_carry_adds_only_the_screen_arrays(self):
        ds, model = clusters(np.random.default_rng(18), 3000, 64, 100)
        before, labels, weights = dict(vars(ds)), ds.labels.copy(), model.weights.copy()
        assert_exact(model, ds)
        after = vars(ds)
        assert set(after) - set(before) == {"screen_arrays"}
        assert all(after[name] is value for name, value in before.items())
        assert ds.labels.tobytes() == labels.tobytes()
        assert model.weights.tobytes() == weights.tobytes()


class TestScreenPaths:
    def test_below_the_cutover_takes_plain_float64(self):
        ds, model = clusters(np.random.default_rng(1), 15000, 16, 10)
        assert classifier._screened_argmax(model, ds) is None
        assert_exact(model, ds)

    def test_near_tie_rows_are_recomputed_in_float64(self):
        rng = np.random.default_rng(2)
        ds, model = clusters(rng, 3000, 64, 100)
        w = model.weights.copy()
        w[:, 1] = w[:, 0] + 1e-7 * rng.normal(size=64)
        model = LinearModel(w)
        assert rechecked_rows(model, ds) > 0
        assert classifier._screened_argmax(model, ds) is not None
        assert_exact(model, ds)

    def test_exact_ties_take_the_full_product(self, monkeypatch):
        # duplicate weight columns: every row's top two logits tie, so the
        # recheck margin is 0 and the call falls back to the full product,
        # whose argmax picks the smaller index
        ds, model = clusters(np.random.default_rng(3), 2000, 64, 100)
        w = model.weights.copy()
        w[:, 7] = w[:, 3]
        model = LinearModel(w)
        assert classifier._screened_argmax(model, ds) is None
        full, logits = [], classifier.batch_logits
        monkeypatch.setattr(classifier, "batch_logits",
                            lambda m, f: full.append(f.shape) or logits(m, f))
        labels = predict(model, ds)
        assert full == [ds.features.shape]
        assert not np.any(labels == 7) and np.any(labels == 3)
        assert labels.tobytes() == oracle(model, ds).tobytes()

    def test_ties_within_float64_rounding_take_the_full_product(self):
        # columns 0 and 1 a 1e-15 relative gap apart: the rechecked rows'
        # float64 margins lie within 4*e64, where the row-subset product
        # need not agree with the full one (with scipy-openblas 0.3.31 it
        # flips 3 of these 9 rows' argmax), so the full product decides
        rng = np.random.default_rng(33)
        ds, model = clusters(rng, 2000, 64, 100)
        w = model.weights.copy()
        w[:, 1] = w[:, 0] + 1e-15 * rng.normal(size=64)
        model = LinearModel(w)
        assert rechecked_rows(model, ds) > 0
        assert classifier._screened_argmax(model, ds) is None
        assert_exact(model, ds)

    def test_products_that_underflow_float32_are_rechecked(self):
        # logits near float32's smallest subnormal carry absolute errors no
        # relative bound covers: the bound's tiny term sends every row on
        ds, model = clusters(np.random.default_rng(9), 2000, 64, 100, row_scale=1e-22,
                             weight_scale=1e-22)
        assert rechecked_rows(model, ds) == ds.n
        assert_exact(model, ds)

    def test_rows_that_could_overflow_float32_take_plain_float64(self):
        ds, model = clusters(np.random.default_rng(4), 2000, 64, 100, row_scale=1e30,
                             weight_scale=1e9)
        assert classifier._screened_argmax(model, ds) is None
        assert_exact(model, ds)

    def test_nan_rows_take_plain_float64(self):
        ds, model = clusters(np.random.default_rng(5), 2000, 64, 100)
        x = ds.features.copy()
        x[[3, 1500]] = np.nan
        ds = FeatureDataset(x, ds.labels, 100)
        assert classifier._screened_argmax(model, ds) is None
        assert_exact(model, ds)

    def test_a_model_without_margins_skips_the_row_subset_product(self, monkeypatch):
        # a zero model ties every logit, so every row fails the screen; past
        # the recheck share the call goes straight to the full product
        rng = np.random.default_rng(10)
        ds = FeatureDataset(rng.normal(size=(15000, 128)), rng.integers(0, 100, 15000), 100)
        model = LinearModel(np.zeros((128, 100)))
        shapes = count_top2(monkeypatch)
        assert_exact(model, ds)
        assert screened_rows(shapes) == 15000
        assert all(dtype == np.float32 and k == 100 for dtype, (_, k) in shapes)

    def test_dimension_mismatch_raises(self):
        ds, _ = clusters(np.random.default_rng(6), 2000, 64, 100)
        with pytest.raises(SelMixError, match="n x 32 matrix"):
            predict(LinearModel(np.zeros((32, 100))), ds)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 40), k=st.integers(2, 12),
       dtype=st.sampled_from([np.float32, np.float64]))
def test_top2_margins_equal_max_minus_runner_up(seed, n, k, dtype):
    # ties, -inf and NaN entries included: the margin is the row's max
    # minus its max once the argmax cell is -inf, bit for bit
    rng = np.random.default_rng(seed)
    logits = rng.integers(-3, 3, size=(n, k)).astype(dtype)
    special = rng.random((n, k))
    logits[special < 0.05] = np.nan
    logits[(special >= 0.05) & (special < 0.15)] = -np.inf
    want = logits.copy()
    labels = want.argmax(axis=1)
    top = want[np.arange(n), labels].copy()
    want[np.arange(n), labels] = -np.inf
    with np.errstate(invalid="ignore"):             # a row of -inf gives -inf - -inf
        got_labels, margin = classifier._top2(logits)
        want_margin = top - want.max(axis=1)
    np.testing.assert_array_equal(got_labels, labels)
    assert margin.dtype == dtype and want_margin.tobytes() == margin.tobytes()
    np.testing.assert_array_equal(logits, want)


class TestScreenArrays:
    def test_built_once_per_dataset(self):
        ds, model = clusters(np.random.default_rng(7), 50, 8, 4)
        x32, norms = ds.screen_arrays
        assert x32.dtype == np.float32 and x32.tobytes() == ds.features.astype(np.float32).tobytes()
        np.testing.assert_allclose(norms, np.linalg.norm(ds.features, axis=1), rtol=1e-15)
        again = ds.screen_arrays
        assert again[0] is x32 and again[1] is norms
        copy = ds.with_labels(predict(model, ds))
        assert copy.screen_arrays[0] is not x32 and copy.screen_arrays is copy.screen_arrays

    def test_features_are_read_only(self):
        ds, _ = clusters(np.random.default_rng(8), 5, 3, 2)
        with pytest.raises(ValueError):
            ds.features[0, 0] = 1.0

    def test_norm_bounds_survive_underflow(self):
        tiny = np.full((1, 4), 1e-200)
        assert norm_bounds(tiny, axis=1)[0] >= 2e-200
        assert norm_bounds(tiny.T, axis=0)[0] >= 2e-200


@pytest.fixture(scope="module", params=[(10, 16), (10, 64), (100, 64), (100, 128)],
                ids=lambda kd: f"K{kd[0]}-d{kd[1]}")
def benchmark_models(request):
    """The validation set of ``make_benchmark`` at (K, d), with its warm
    start and the model after two fine-tuning cycles."""
    k, d = request.param
    train, _, validation, init = make_benchmark(0, BenchmarkSetting(K=k, d=d))
    config = benchmark_config(MetricSpec(MEAN_RECALL), 0, cycles=2, sgd_steps_per_cycle=20)
    tuned, _ = run_selmix(config, train, None, validation, init)
    return k, validation, (init, tuned)


@pytest.mark.parametrize("which, block",
                         [(0, None), (1, None), *((1, b) for b in sorted(BLOCK_ROWS))],
                         ids=["warm_start", "two_cycles", *sorted(BLOCK_ROWS)])
def test_benchmark_validation_sets_pin_the_argmax(benchmark_models, which, block):
    # each model is also predicted right after the other through one carry,
    # so the second call starts from margins carried across the drift; the
    # odd block sizes run the two_cycles order, which visits both models
    k, validation, models = benchmark_models
    model, other = models[which], models[1 - which]
    with screen_blocks(block and BLOCK_ROWS[block](validation.n, k), k):
        if k == 100:      # these shapes are past the cutover: the screen decides them
            assert classifier._screened_argmax(model, validation) is not None
        carry = ArgmaxCarry()
        for m in (model, other, model):
            assert_exact(m, validation, carry)
        with screen_every_shape():
            for m in (other, model, other):
                assert_exact(m, validation, carry)
