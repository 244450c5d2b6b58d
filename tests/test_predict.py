"""``predict`` must return exactly ``np.argmax(features @ weights, axis=1)``,
whichever of its paths (plain float64, the float32 screen with or without
float64 rechecks, or the full-product fallback) decides a call."""

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selmix import classifier
from selmix.benchmark import BenchmarkSetting, benchmark_config, make_benchmark
from selmix.classifier import LinearModel, predict
from selmix.data import FeatureDataset, norm_bounds
from selmix.errors import SelMixError
from selmix.metrics import MEAN_RECALL, MetricSpec
from selmix.trainer import run_selmix


def oracle(model: LinearModel, ds: FeatureDataset) -> np.ndarray:
    return np.argmax(ds.features @ model.weights, axis=1)


def assert_exact(model: LinearModel, ds: FeatureDataset) -> None:
    got, want = predict(model, ds), oracle(model, ds)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@contextmanager
def screen_every_shape():
    """Send every shape through the float32 screen, however small."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classifier, "_SCREEN_MIN_ROW_WORK", 0)
        mp.setattr(classifier, "_SCREEN_MIN_WORK", 0)
        yield


def rechecked_rows(model: LinearModel, ds: FeatureDataset) -> int:
    """How many rows the screen sends to the float64 recheck."""
    x32, norms = ds.screen_arrays()
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

    def test_dimension_mismatch_raises(self):
        ds, _ = clusters(np.random.default_rng(6), 2000, 64, 100)
        with pytest.raises(SelMixError, match="n x 32 matrix"):
            predict(LinearModel(np.zeros((32, 100))), ds)


class TestScreenArrays:
    def test_built_once_and_shared_with_relabeled_copies(self):
        ds, model = clusters(np.random.default_rng(7), 50, 8, 4)
        x32, norms = ds.screen_arrays()
        assert x32.dtype == np.float32 and x32.tobytes() == ds.features.astype(np.float32).tobytes()
        np.testing.assert_allclose(norms, np.linalg.norm(ds.features, axis=1), rtol=1e-15)
        again = ds.with_labels(predict(model, ds)).screen_arrays()
        assert again[0] is x32 and again[1] is norms

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


@pytest.mark.parametrize("which", [0, 1], ids=["warm_start", "two_cycles"])
def test_benchmark_validation_sets_pin_the_argmax(benchmark_models, which):
    k, validation, models = benchmark_models
    model = models[which]
    if k == 100:      # these shapes are past the cutover: the screen decides them
        assert classifier._screened_argmax(model, validation) is not None
    assert_exact(model, validation)
    with screen_every_shape():
        assert_exact(model, validation)
