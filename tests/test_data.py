import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from selmix.benchmark import BenchmarkSetting, make_benchmark
from selmix.classifier import class_centroids
from selmix.data import (
    FeatureDataset,
    LTSpec,
    balanced_validation,
    generate_longtail,
    _dataset,
    _header_width,
    _parse_dataset_lines,
    _read_lines,
    load_dataset,
    load_weights,
    save_dataset,
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


def _dataset_per_line(path, expected_classes):
    raw = _read_lines(path)
    labels, features = _parse_dataset_lines(path, raw, _header_width(path, raw), expected_classes)
    return _dataset(path, raw, labels, features, expected_classes)


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
        back = load_dataset(path, expected_classes=3)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.features, ds.features)

    @pytest.mark.parametrize("pseudo", [False, True])
    def test_bytes_match_per_value_repr(self, tmp_path, pseudo):
        features = np.array([[-0.0, 5e-324, 1e-300],
                             [1e16, 0.1, 3.0],
                             [-7.0, 0.0, 2.0 ** 60]])
        labels = np.array([2, 0, 1])
        if pseudo:
            ds = FeatureDataset(features, np.array([-1, 1, 1]), num_classes=3,
                                pseudo=True, true_labels=labels)
        else:
            ds = FeatureDataset(features, labels, num_classes=3)
        path = tmp_path / "values.csv"
        save_dataset(ds, path)
        rows = [",".join([str(int(lab))] + [repr(float(v)) for v in row])
                for row, lab in zip(features, labels)]
        want = "\n".join(["label,f0,f1,f2"] + rows) + "\n"
        assert path.read_bytes() == want.encode("utf-8")
        back = load_dataset(path, expected_classes=3)
        assert back.features.tobytes() == features.tobytes()

    def test_hand_written_row(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("label,f0,f1\n0,1.5,-2.0\n")
        ds = load_dataset(path)
        assert ds.n == 1 and ds.labels[0] == 0
        np.testing.assert_array_equal(ds.features[0], [1.5, -2.0])

    def test_label_out_of_range_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0\n0,1.0\n7,2.0\n")
        with pytest.raises(DataError, match="line 3"):
            load_dataset(path, expected_classes=3)

    @pytest.mark.parametrize("label", [2 ** 63, 9007199254740993])
    def test_huge_label_without_expected_classes_names_line(self, tmp_path, label):
        path = tmp_path / "huge.csv"
        path.write_text(f"label,f0\n0,1.0\n{label},2.0\n")
        with pytest.raises(DataError, match=f"line 3: label {label} out of range"):
            load_dataset(path)

    @pytest.mark.parametrize("label", [3, 9007199254740991])
    def test_label_beyond_the_row_count_names_its_line(self, tmp_path, label):
        # without expected_classes K would be label + 1: 2**53 classes would
        # fail in numpy's allocator rather than here
        path = tmp_path / "sparse.csv"
        path.write_text(f"label,f0\n0,1.0\n\n{label},2.0\n1,3.0\n")
        with pytest.raises(DataError, match=f"line 4: label {label} implies more classes "
                                            "than the file's 3 rows"):
            load_dataset(path)
        assert load_dataset(path, expected_classes=label + 1).num_classes == label + 1

    def test_largest_label_may_equal_the_last_row_index(self, tmp_path):
        path = tmp_path / "dense.csv"
        path.write_text("label,f0\n2,1.0\n0,2.0\n0,3.0\n")
        assert load_dataset(path).num_classes == 3

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
        with pytest.raises(DataError, match="line 3"):
            load_dataset(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("klass,f0\n0,1.0\n")
        with pytest.raises(DataError, match="line 1"):
            load_dataset(path)

    def test_non_numeric_field_names_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("label,f0\n0,abc\n")
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_line(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"label,f0,f1\n0,1.0,2.0\n\n1,3.0,{value}\n")
        with pytest.raises(DataError, match="line 4: non-finite"):
            load_dataset(path)


class TestCsvReader:
    @REUSED_TMP_PATH
    @given(table=labeled_tables(), pseudo=st.booleans())
    def test_save_then_load_is_byte_exact(self, tmp_path, table, pseudo):
        features, labels, k = table
        if pseudo:
            ds = FeatureDataset(features, np.full(labels.size, -1), num_classes=k,
                                pseudo=True, true_labels=labels)
        else:
            ds = FeatureDataset(features, labels, num_classes=k)
        path = tmp_path / "round.csv"
        save_dataset(ds, path)
        back = load_dataset(path, expected_classes=k)
        assert back.features.tobytes() == features.tobytes()
        assert back.labels.tobytes() == labels.tobytes()

    @REUSED_TMP_PATH
    @given(text=csv_texts(), expected_classes=st.sampled_from([None, 2, 3]))
    def test_dataset_reader_equals_the_per_line_pass(self, tmp_path, text, expected_classes):
        path = tmp_path / "gen.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert (_outcome(load_dataset, path, expected_classes)
                == _outcome(_dataset_per_line, path, expected_classes))

    @pytest.mark.parametrize("text", ["label,f0,f1\n", "label,f0,f1\n\n\n", "label,f0\r\n\r\n"])
    def test_header_only_file_has_no_data_rows(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text, newline="")
        assert _outcome(load_dataset, path) == f"{path}: no data rows"

    def test_field_split_by_a_form_feed_is_two_lines(self, tmp_path):
        # numpy reading the file handle would see one three-field row here
        path = tmp_path / "ff.csv"
        path.write_text("label,f0,f1\n0,1\x0c,2.0\n")
        assert _outcome(load_dataset, path) == f"{path}: line 2: expected 3 fields, got 2"

    def test_unit_separator_around_a_value_is_refused(self, tmp_path):
        # numpy strips \x1f around a value; float() does not
        path = tmp_path / "us.csv"
        path.write_text("label,f0\n0,1.0\x1f\n")
        assert _outcome(load_dataset, path) == (
            f"{path}: line 2: could not convert string to float: '1.0\\x1f'")

    @pytest.mark.parametrize("read", [load_dataset, load_weights])
    def test_non_utf8_file_names_the_file(self, tmp_path, read):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"label,f0\n0,\xff\n")
        assert _outcome(read, path) == (
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
    def test_all_train_returns_everything(self):
        ds = generate_longtail(LTSpec(K=3, d=4, N1=12, rho=2.0, seed=6))
        train, val, unl = split(ds, (1.0, 0.0, 0.0), seed=0)
        assert train.n == ds.n and val.n == 0 and unl.n == 0
        np.testing.assert_array_equal(np.sort(train.labels), np.sort(ds.labels))

    def test_stratified_halves(self):
        ds = FeatureDataset(np.random.default_rng(0).normal(size=(30, 2)),
                            np.repeat(np.arange(3), 10), num_classes=3)
        train, val, _ = split(ds, (0.5, 0.5, 0.0), seed=1)
        np.testing.assert_array_equal(train.class_counts(), [5, 5, 5])
        np.testing.assert_array_equal(val.class_counts(), [5, 5, 5])

    def test_seeded_reproducibility(self):
        ds = generate_longtail(LTSpec(K=4, d=3, N1=40, rho=4.0, seed=7))
        a = split(ds, (0.6, 0.2, 0.2), seed=5)
        b = split(ds, (0.6, 0.2, 0.2), seed=5)
        c = split(ds, (0.6, 0.2, 0.2), seed=6)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.features, y.features)
        assert not np.array_equal(a[0].features, c[0].features)

    def test_every_class_lands_in_val(self):
        ds = generate_longtail(LTSpec(K=8, d=4, N1=64, rho=20.0, seed=8))
        _, val, _ = split(ds, (0.6, 0.2, 0.2), seed=2)
        assert np.all(val.class_counts() >= 1)

    def test_class_too_small_rejected(self):
        ds = FeatureDataset(np.ones((4, 2)), np.array([0, 0, 0, 1]), num_classes=2)
        with pytest.raises(DataError, match="too small"):
            split(ds, (0.4, 0.3, 0.3), seed=0)

    def test_unlabeled_split_hides_but_keeps_truth(self):
        ds = generate_longtail(LTSpec(K=3, d=4, N1=30, rho=2.0, seed=9))
        _, _, unl = split(ds, (0.5, 0.25, 0.25), seed=3)
        assert unl.pseudo
        assert np.all(unl.labels == -1)
        assert unl.true_labels is not None and np.all(unl.true_labels >= 0)

    def test_fraction_validation(self):
        ds = generate_longtail(LTSpec(K=3, d=4, N1=30, rho=2.0, seed=9))
        with pytest.raises(DataError):
            split(ds, (0.5, 0.4, 0.2), seed=0)


@st.composite
def split_cases(draw):
    counts = draw(st.lists(st.integers(3, 30), min_size=1, max_size=6))
    weights = draw(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))
                   .filter(lambda w: sum(w) > 0))
    fractions = tuple(w / sum(weights) for w in weights)
    return np.array(counts), fractions, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=150, deadline=None)
@given(split_cases())
def test_split_is_a_stratified_partition(case):
    counts, fractions, seed = case
    labels = np.repeat(np.arange(counts.size), counts)
    ds = FeatureDataset(np.arange(labels.size, dtype=np.float64)[:, None], labels,
                        num_classes=counts.size)
    parts = split(ds, fractions, seed=seed)
    rows = [part.features[:, 0].astype(np.int64) for part in parts]
    np.testing.assert_array_equal(np.sort(np.concatenate(rows)), np.arange(labels.size))
    for part, part_rows, fraction in zip(parts, rows, fractions):
        truth = part.true_labels if part.pseudo else part.labels
        np.testing.assert_array_equal(truth, labels[part_rows])
        if fraction > 0:
            assert np.all(np.bincount(truth, minlength=counts.size) >= 1)
