import numpy as np
import pytest

from selmix.benchmark import BenchmarkSetting, make_benchmark
from selmix.classifier import class_centroids
from selmix.data import (
    FeatureDataset,
    LTSpec,
    balanced_validation,
    generate_longtail,
    load_dataset,
    save_dataset,
    split,
)
from selmix.errors import DataError


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
