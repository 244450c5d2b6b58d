import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import CSV_MUTATIONS, mutate_csv, reference_sizes, reference_split
from selmix.benchmark import BenchmarkSetting, make_benchmark
from selmix.classifier import class_centroids
from selmix.data import (
    LABEL_BOUND,
    POOL_FRACTIONS,
    FeatureDataset,
    LTSpec,
    balanced_validation,
    check_split_sizes,
    generate_longtail,
    _header_width,
    _labeled_counts,
    _parse_dataset_lines,
    _read_lines,
    load_dataset,
    load_weights,
    save_dataset,
    save_weights,
    split,
)
from selmix.errors import DataError

# a fixture file is rewritten by every example of a property
REUSED_TMP_PATH = settings(max_examples=150, deadline=None,
                           suppress_health_check=[HealthCheck.function_scoped_fixture])

BOUNDARY_FLOATS = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1e16, 1e16 + 2.0, -(1e16 - 1.0),
    9007199254740992.0, 0.1, 1.0 / 3.0,
])
FINITE_FLOATS = (st.floats(allow_nan=False, allow_infinity=False) | BOUNDARY_FLOATS
                 | st.floats(9e15, 1.1e16) | st.floats(-1e-307, 1e-307))


@st.composite
def labeled_tables(draw):
    n, d, k = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(st.integers(1, 5))
    features = draw(arrays(np.float64, (n, d), elements=FINITE_FLOATS))
    labels = draw(arrays(np.int64, n, elements=st.integers(0, k - 1)))
    return features, labels, k


# pieces of CSV text, mostly well formed: a valid value, or junk the reader
# must refuse exactly as the per-line pass does
JUNK_FIELDS = st.sampled_from([
    "", " ", "3.0", "-1", "1_0", "+2", " 1", "2 ", "\t3", "1\x0b", "\x0c2", "1\x1f", "\x1f1",
    "\xa01", "nan", "inf", "-inf", "1e400", "abc", "#", "#1", "0x1", "\uff11", "99999999999999999999",
])
FIELDS = (FINITE_FLOATS.map(repr) | st.integers(0, 3).map(str) | st.integers(0, 3).map(str)
          | JUNK_FIELDS)
SEPARATORS = st.sampled_from([","] * 12 + [",,", " ,", "\x0c,", ",\x1c"])
LINE_ENDS = st.sampled_from(["\n"] * 12 + ["\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d",
                                          "\x1e", "\x85", "\u2028", " ", ""])
ODD_LINES = st.sampled_from(["", "", "  ", "\t", "\x0c", "#", ",", "# label,f0"])


@st.composite
def csv_line(draw, width):
    fields = draw(st.lists(FIELDS, min_size=width, max_size=width)
                  | st.lists(FIELDS, min_size=max(width - 1, 1), max_size=width + 1))
    seps = draw(st.lists(SEPARATORS, min_size=len(fields) - 1, max_size=len(fields) - 1))
    return "".join(f + sep for f, sep in zip(fields, seps + [""]))


@st.composite
def csv_texts(draw):
    d = draw(st.integers(1, 3))
    lines = draw(st.lists(csv_line(d + 1) | csv_line(d + 1) | ODD_LINES, max_size=6))
    good = ",".join(["label"] + [f"f{i}" for i in range(d)])
    lines = [draw(st.sampled_from([good] * 6 + ["label", "klass,f0", "label,f1", ""]))] + lines
    ends = draw(st.lists(LINE_ENDS, min_size=len(lines), max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


@st.composite
def mutated_saved_files(draw):
    """The bytes of a file ``save_dataset`` wrote, after up to three edits
    drawn from ``CSV_MUTATIONS``."""
    features, labels, k = draw(labeled_tables())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "saved.csv"
        save_dataset(FeatureDataset(features, labels, num_classes=k), path)
        text = path.read_text(encoding="utf-8")
    return mutate_csv(text, draw(st.lists(CSV_MUTATIONS, max_size=3)))


def _outcome(read, path, *args):
    """Result bytes of ``read(path, *args)``, or its DataError text; any
    warning fails the call."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = read(path, *args)
    except DataError as exc:
        return str(exc)
    if isinstance(result, FeatureDataset):
        return result.features.tobytes(), result.labels.tobytes(), result.num_classes
    return result.tobytes(), result.shape


def _draw_clusters_concatenated(spec, counts, seed):
    """The features of ``data._draw_clusters`` in its earlier form, one
    temporary per class joined by ``np.concatenate``: the reference the
    in-place draw must equal byte for byte."""
    means = spec.class_means()
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[1])
    with np.errstate(over="ignore"):
        return np.concatenate([means[k] + spec.within_std * rng.standard_normal((counts[k], spec.d))
                               for k in range(spec.K)])


def _traced_peak(fn, *args):
    """Peak bytes tracemalloc sees while ``fn(*args)`` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _dataset_per_line(path, num_classes):
    raw = _read_lines(path)
    labels, features = _parse_dataset_lines(path, raw, _header_width(path, raw), num_classes)
    return FeatureDataset(features=features, labels=labels, num_classes=num_classes)


def _dataset_bytes(ds):
    return (ds.features.shape, ds.features.tobytes(), ds.labels.dtype, ds.labels.tobytes(),
            ds.num_classes)


class TestGenerateLongtail:
    def test_no_imbalance_gives_equal_counts(self):
        ds = generate_longtail(LTSpec(K=5, d=6, N1=40, rho=1.0, seed=0))
        np.testing.assert_array_equal(ds.class_counts(), np.full(5, 40))

    def test_published_profile_counts(self):
        spec = LTSpec(K=10, d=16, N1=1500, rho=100.0, seed=1)
        counts = spec.class_counts()
        assert counts[0] == 1500
        assert counts[9] == 15          # N1 / rho
        assert counts[3] == 323         # round(1500 * 100^(-3/9))

    def test_counts_non_increasing_and_ratio_close_to_rho(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            rho = float(rng.uniform(1.0, 60.0))
            n1 = int(rng.integers(max(5 * rho, 10), 2000))
            spec = LTSpec(K=int(rng.integers(2, 12)), d=4, N1=n1, rho=rho, seed=0)
            counts = spec.class_counts()
            assert np.all(np.diff(counts) <= 0)
            assert 0.9 * rho <= counts[0] / counts[-1] <= 1.1 * rho

    def test_deterministic_given_seed(self):
        a = generate_longtail(LTSpec(K=4, d=5, N1=30, rho=3.0, seed=9))
        b = generate_longtail(LTSpec(K=4, d=5, N1=30, rho=3.0, seed=9))
        np.testing.assert_array_equal(a.features, b.features)
        c = generate_longtail(LTSpec(K=4, d=5, N1=30, rho=3.0, seed=10))
        assert not np.array_equal(a.features, c.features)

    def test_tight_clusters_are_nearest_centroid_separable(self):
        spec = LTSpec(K=6, d=8, N1=50, rho=5.0, within_std=1e-4, seed=3)
        ds = generate_longtail(spec)
        means = spec.class_means()
        dists = np.linalg.norm(ds.features[:, None, :] - means[None, :, :], axis=2)
        np.testing.assert_array_equal(np.argmin(dists, axis=1), ds.labels)

    def test_low_dim_fallback_means(self):
        spec = LTSpec(K=6, d=3, N1=20, rho=2.0, seed=4)
        means = spec.class_means()
        np.testing.assert_allclose(np.linalg.norm(means, axis=1), spec.cluster_separation)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("k, d", [(10, 16), (12, 8), (100, 128)])
    def test_in_place_draw_equals_the_concatenated_draw(self, k, d, seed):
        spec = LTSpec(K=k, d=d, seed=seed)
        assert (generate_longtail(spec).features.tobytes()
                == _draw_clusters_concatenated(spec, spec.class_counts(), seed).tobytes())
        assert (balanced_validation(spec, 150).features.tobytes()
                == _draw_clusters_concatenated(spec, np.full(k, 150), seed + 20_000).tobytes())

    def test_overflowing_within_std_raises(self):
        spec = LTSpec(K=4, d=4, N1=50, rho=4.0, within_std=1e308, seed=0)
        assert not np.isfinite(_draw_clusters_concatenated(spec, spec.class_counts(), 0)).all()
        with pytest.raises(DataError) as info:
            generate_longtail(spec)
        assert str(info.value) == "within_std=1e+308 overflows the drawn features"

    def test_invalid_spec_rejected(self):
        with pytest.raises(DataError):
            LTSpec(K=1, d=4)
        with pytest.raises(DataError):
            LTSpec(K=3, d=0)
        with pytest.raises(DataError):
            LTSpec(K=10, d=4, N1=5, rho=100.0)   # tail rounds to zero


class TestCsvRoundTrip:
    def test_save_load_identity(self, tmp_path):
        ds = generate_longtail(LTSpec(K=3, d=4, N1=20, rho=2.0, seed=5))
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path, 3)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.features, ds.features)

    def test_bytes_match_per_value_repr(self, tmp_path):
        # repr switches to exponent form below 1e-4 and from 1e16 up
        features = np.array([[-0.0, 5e-324, 1e-300, 1e-05],
                             [1e16, 0.1, 3.0, 1.7976931348623157e+308],
                             [-7.0, 0.0, 2.0 ** 60, 1e-4]])
        labels = np.array([2, 0, 1])
        ds = FeatureDataset(features, labels, num_classes=3)
        path = tmp_path / "values.csv"
        save_dataset(ds, path)
        rows = [",".join([str(int(lab))] + [repr(float(v)) for v in row])
                for row, lab in zip(features, labels)]
        want = "\n".join(["label,f0,f1,f2,f3"] + rows) + "\n"
        assert ",1e-05\n" in want and ",1.7976931348623157e+308\n" in want
        assert path.read_bytes() == want.encode("utf-8")
        back = load_dataset(path, 3)
        assert back.features.tobytes() == features.tobytes()

    def test_weights_bytes_match_per_value_repr(self, tmp_path):
        weights = np.array([[-0.0, 5e-324, -5e-324, 1e-05],
                            [2.0 ** 60, 1.7976931348623157e+308, 1e16, 0.1]])
        path = tmp_path / "w.csv"
        save_weights(weights, path)
        lines = [",".join(repr(float(v)) for v in row) for row in weights]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode("utf-8")
        assert load_weights(path).tobytes() == weights.tobytes()

    @pytest.mark.parametrize("ds, message", [
        (FeatureDataset(np.array([[1.0], [np.inf]]), np.array([0, 1]), num_classes=2),
         "cannot save non-finite feature values"),
        (FeatureDataset(np.array([[-np.inf], [1.0]]), np.array([0, 1]), num_classes=2),
         "cannot save non-finite feature values"),
        (FeatureDataset(np.array([[1.0, np.nan]]), np.array([0]), num_classes=1),
         "cannot save non-finite feature values"),
    ], ids=["inf", "minus-inf", "nan"])
    def test_unloadable_dataset_raises_before_creating_the_file(self, tmp_path, ds, message):
        path = tmp_path / "refused.csv"
        with pytest.raises(DataError) as info:
            save_dataset(ds, path)
        assert str(info.value) == message
        assert not path.exists()

    def test_hand_written_row(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("label,f0,f1\n0,1.5,-2.0\n")
        ds = load_dataset(path, 1)
        assert ds.n == 1 and ds.labels[0] == 0
        np.testing.assert_array_equal(ds.features[0], [1.5, -2.0])

    def test_label_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0\n0,1.0\n7,2.0\n")
        with pytest.raises(DataError, match="line 3"):
            load_dataset(path, 3)

    @pytest.mark.parametrize("label", [2 ** 63, 9007199254740993])
    def test_huge_label_at_the_largest_class_count_names_line(self, tmp_path, label):
        path = tmp_path / "huge.csv"
        path.write_text(f"label,f0\n0,1.0\n{label},2.0\n")
        with pytest.raises(DataError, match=f"line 3: label {label} out of range"):
            load_dataset(path, LABEL_BOUND)

    @pytest.mark.parametrize("num_classes", [0, LABEL_BOUND + 1, 2 ** 60])
    def test_class_count_outside_the_label_bound_is_refused_unread(self, tmp_path, num_classes):
        # above 2**53 numpy's float64 labels are not exact: the fast reader
        # would read 9007199254740993 as 9007199254740992
        path = tmp_path / "huge.csv"
        path.write_text("label,f0\n0,1.0\n9007199254740993,2.0\n")
        message = f"num_classes {num_classes} outside [1, {LABEL_BOUND}]"
        assert _outcome(load_dataset, path, num_classes) == message
        assert _outcome(load_dataset, tmp_path / "missing.csv", num_classes) == message

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DataError, match="line 3"):
            load_dataset(path, 2)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("klass,f0\n0,1.0\n")
        with pytest.raises(DataError, match="line 1"):
            load_dataset(path, 1)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("label,f0\n0,abc\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path, 1)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"label,f0,f1\n0,1.0,2.0\n\n1,3.0,{value}\n")
        with pytest.raises(DataError, match="line 4: non-finite"):
            load_dataset(path, 2)


class TestCsvReader:
    @REUSED_TMP_PATH
    @given(table=labeled_tables())
    def test_save_then_load_is_byte_exact(self, tmp_path, table):
        features, labels, k = table
        ds = FeatureDataset(features, labels, num_classes=k)
        path = tmp_path / "round.csv"
        save_dataset(ds, path)
        back = load_dataset(path, k)
        assert back.features.tobytes() == features.tobytes()
        assert back.labels.tobytes() == labels.tobytes()

    @REUSED_TMP_PATH
    @given(blob=csv_texts().map(str.encode) | mutated_saved_files(),
           num_classes=st.sampled_from([2, 3, 5]))
    def test_dataset_reader_equals_the_per_line_pass(self, tmp_path, blob, num_classes):
        path = tmp_path / "gen.csv"
        path.write_bytes(blob)
        assert (_outcome(load_dataset, path, num_classes)
                == _outcome(_dataset_per_line, path, num_classes))

    def test_saved_file_is_parsed_without_a_text_copy(self, tmp_path, monkeypatch):
        ds = generate_longtail(LTSpec(K=3, d=4, N1=20, rho=2.0, seed=5))
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)

        def refuse(_):
            raise AssertionError("whole-file read")

        monkeypatch.setattr("selmix.data._read_lines", refuse)
        back = load_dataset(path, 3)
        assert back.features.tobytes() == ds.features.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes() and back.num_classes == 3

    @pytest.mark.parametrize("text", ["label,f0,f1\n", "label,f0,f1\n\n\n", "label,f0\r\n\r\n"])
    def test_header_only_file_has_no_data_rows(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text, newline="")
        assert _outcome(load_dataset, path, 2) == f"{path}: no data rows"

    def test_field_split_by_a_form_feed_is_two_lines(self, tmp_path):
        # numpy reading the file handle would see one three-field row here
        path = tmp_path / "ff.csv"
        path.write_text("label,f0,f1\n0,1\x0c,2.0\n")
        assert _outcome(load_dataset, path, 1) == f"{path}: line 2: expected 3 fields, got 2"

    def test_unit_separator_around_a_value_is_refused(self, tmp_path):
        # numpy strips \x1f around a value; float() does not
        path = tmp_path / "us.csv"
        path.write_text("label,f0\n0,1.0\x1f\n")
        assert _outcome(load_dataset, path, 1) == (
            f"{path}: line 2: could not convert string to float: '1.0\\x1f'")

    @pytest.mark.parametrize("read, args", [(load_dataset, (1,)), (load_weights, ())],
                             ids=["load_dataset", "load_weights"])
    def test_non_utf8_file_names_the_file(self, tmp_path, read, args):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"label,f0\n0,\xff\n")
        assert _outcome(read, path, *args) == (
            f"{path}: not UTF-8 text (invalid start byte at byte 11)")

    def test_non_finite_weight_names_its_line(self, tmp_path):
        path = tmp_path / "w.csv"
        path.write_text("1.0,0.0\n\n  \n0.0,-inf\n")
        assert _outcome(load_weights, path) == f"{path}: line 4: non-finite weight value"


class TestBalancedValidation:
    def test_per_class_counts_and_pool_stream_unused(self):
        spec = LTSpec(K=5, d=6, N1=80, rho=8.0, seed=2)
        val = balanced_validation(spec, per_class=7)
        np.testing.assert_array_equal(val.class_counts(), np.full(5, 7))
        assert not np.array_equal(val.features[:7], generate_longtail(spec).features[:7])
        with pytest.raises(DataError):
            balanced_validation(spec, per_class=0)

    def test_same_draws_as_a_balanced_pool_when_d_at_least_k(self):
        # for d >= K the means do not depend on the seed, so the holdout is
        # the rho = 1 pool of the seed + 20000 sample stream
        spec = LTSpec(K=4, d=6, N1=90, rho=9.0, within_std=0.3, seed=8)
        twin = LTSpec(K=4, d=6, N1=12, rho=1.0, within_std=0.3, seed=20_008)
        np.testing.assert_array_equal(balanced_validation(spec, 12).features,
                                      generate_longtail(twin).features)

    def test_clusters_sit_at_the_pool_means_when_d_below_k(self):
        spec = LTSpec(K=12, d=8, N1=40, rho=4.0, within_std=1e-4, seed=3)
        val = balanced_validation(spec, per_class=5)
        np.testing.assert_allclose(class_centroids(val).centroids, spec.class_means(), atol=1e-3)

    def test_benchmark_validation_matches_training_geometry(self):
        setting = BenchmarkSetting(K=12, d=8, N1=300, rho=10.0, val_per_class=50,
                                   pretrain_steps=10)
        train, _, val, _ = make_benchmark(0, setting)
        gap = class_centroids(train).centroids - class_centroids(val).centroids
        assert np.linalg.norm(gap, axis=1).mean() < 0.6


class TestSplit:
    def test_seeded_reproducibility(self):
        spec = LTSpec(K=4, d=3, N1=40, rho=4.0, seed=7)
        a = split(spec, 5)
        b = split(spec, 5)
        c = split(LTSpec(K=4, d=3, N1=40, rho=4.0, seed=8), 5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)
        assert not np.array_equal(a[0].features, c[0].features)

    def test_every_class_lands_in_every_part(self):
        train, unl, val = split(LTSpec(K=8, d=4, N1=64, rho=20.0, seed=8), 3)
        assert np.all(train.class_counts() >= 1) and np.all(unl.class_counts() >= 1)
        np.testing.assert_array_equal(val.class_counts(), np.full(8, 3))

    def test_class_too_small_rejected(self):
        with pytest.raises(DataError, match="class 1 too small"):
            check_split_sizes([3, 1])
        with pytest.raises(DataError, match="class 2 too small"):
            split(LTSpec(K=3, d=2, N1=60, rho=100.0, seed=0), 5)

    def test_unlabeled_split_keeps_its_ground_truth_labels(self):
        _, unl, _ = split(LTSpec(K=3, d=4, N1=30, rho=2.0, seed=9), 5)
        counts = unl.class_counts()
        assert np.all(counts >= 1)
        np.testing.assert_array_equal(unl.labels, np.repeat(np.arange(3), counts))

    @pytest.mark.parametrize("labels", [[0, -1], [-1], [2, 0]])
    def test_a_label_outside_the_classes_is_refused(self, labels):
        with pytest.raises(DataError, match=r"label outside \[0, K\)"):
            FeatureDataset(np.ones((len(labels), 1)), np.array(labels), num_classes=2)

    def test_overflowing_within_std_raises(self):
        spec = LTSpec(K=4, d=4, N1=50, rho=4.0, within_std=1e308, seed=0)
        with pytest.raises(DataError) as info:
            split(spec, 5)
        assert str(info.value) == "within_std=1e+308 overflows the drawn features"


@st.composite
def split_specs(draw):
    """An ``LTSpec`` whose classes all hold at least two rows, and a
    validation size."""
    k, rho = draw(st.integers(2, 12)), draw(st.sampled_from([1.0, 1.5, 4.0, 20.0]))
    n1 = draw(st.integers(int(np.ceil(2 * rho)), 60))
    spec = LTSpec(K=k, d=draw(st.integers(1, 9)), N1=n1, rho=rho,
                  within_std=draw(st.sampled_from([0.55, 1e-3, 3.0])),
                  seed=draw(st.integers(0, 2 ** 32 - 1)))
    return spec, draw(st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(split_specs())
def test_split_equals_the_split_of_the_drawn_pool(case):
    spec, val_per_class = case
    parts = split(spec, val_per_class)
    train, _, unlabeled = reference_split(generate_longtail(spec), POOL_FRACTIONS, spec.seed)
    want = [train, unlabeled, balanced_validation(spec, val_per_class)]
    assert [_dataset_bytes(p) for p in parts] == [_dataset_bytes(p) for p in want]


def test_labeled_counts_follow_the_three_way_rule():
    # every class size from 2, the smallest split accepts, to 10,000
    counts = np.arange(2, 10_001)
    want = np.array([reference_sizes(POOL_FRACTIONS, n) for n in counts.tolist()])
    assert not want[:, 1].any()
    np.testing.assert_array_equal(_labeled_counts(counts), want[:, 0])


@settings(max_examples=200, deadline=None)
@given(k=st.integers(1, 12), labels=st.lists(st.integers(0, 11), max_size=60))
def test_class_layout_equals_the_per_class_rows(k, labels):
    # empty classes stay, with no rows
    labels = np.array(labels, dtype=np.int64) % k
    layout = FeatureDataset(np.zeros((labels.size, 1)), labels, num_classes=k).class_layout()
    want = [np.flatnonzero(labels == c) for c in range(k)]
    got = layout.indices()
    assert len(got) == k
    for c, (g, w) in enumerate(zip(got, want)):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()
        assert layout.count[c] == w.size
        assert layout.order[layout.start[c]:layout.start[c] + w.size].tobytes() == w.tobytes()


class TestMemory:
    """The data path holds each dataset array once."""

    def test_balanced_validation_peaks_near_its_feature_array(self):
        spec = LTSpec(K=100, d=128, seed=0)
        nbytes = 100 * 150 * 128 * 8
        assert _traced_peak(balanced_validation, spec, 150) <= 1.15 * nbytes

    def test_save_dataset_streams_its_rows(self, tmp_path):
        rng = np.random.default_rng(4)
        ds = FeatureDataset(rng.standard_normal((3000, 64)), rng.integers(0, 10, 3000),
                            num_classes=10)
        assert _traced_peak(save_dataset, ds, tmp_path / "big.csv") < 2 ** 20
        assert load_dataset(tmp_path / "big.csv", 10).features.tobytes() == ds.features.tobytes()

    def test_load_dataset_peaks_near_its_feature_array(self, tmp_path):
        # reading the whole text first peaked at 5.1x the features
        rng = np.random.default_rng(5)
        ds = FeatureDataset(rng.standard_normal((3000, 64)), rng.integers(0, 10, 3000),
                            num_classes=10)
        save_dataset(ds, tmp_path / "big.csv")
        assert _traced_peak(load_dataset, tmp_path / "big.csv", 10) <= 2.5 * ds.features.nbytes

    def test_make_benchmark_frees_the_pool_before_the_holdout(self):
        # split holds no pool, only its parts and one class block: the peak
        # is about 49 MiB, where drawing the pool first and splitting it
        # reached 65 MiB, and a pool kept through the holdout draw 94 MiB
        setting = BenchmarkSetting(K=100, d=128, pretrain_steps=0)
        assert _traced_peak(make_benchmark, 0, setting) <= 52 * 2 ** 20
