import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selmix.cli import main, save_model_csv
from selmix.classifier import LinearModel
from selmix.config import DEFAULTS, parse_config_text
from selmix.data import FeatureDataset, LTSpec, save_dataset
from selmix.errors import ConfigError
from selmix.metrics import METRIC_KINDS
from selmix.trainer import TrainerConfig


def run_cli(*argv):
    return main(list(argv))


def run_cli_raising_warnings(*argv):
    """run_cli with every warning raised, so a warning headed for stderr
    fails the call instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(*argv)


def _value_strategy(key):
    """Raw text for one config key: mostly well-typed, sometimes out of
    range or non-finite, occasionally junk."""
    junk = st.sampled_from(["", "x", "1.5e", "none"])
    default = DEFAULTS[key]
    if isinstance(default, bool):
        typed = st.sampled_from(["true", "false", "0", "1", "maybe"])
    elif isinstance(default, int):
        typed = st.integers(-3, 3000).map(str)
    elif isinstance(default, float):
        typed = (st.floats(-5.0, 300.0) | st.floats(allow_nan=True, allow_infinity=True)).map(repr)
    else:
        choices = {"metric": METRIC_KINDS + ("accuracy",),
                   "lr_schedule": ("constant", "cosine", "step"),
                   "mode": ("supervised", "ssl", "transductive")}[key]
        typed = st.sampled_from(choices)
    return typed | junk


CONFIG_TEXTS = st.fixed_dictionaries(
    {}, optional={key: _value_strategy(key) for key in DEFAULTS}
).map(lambda values: "\n".join(f"{k}={v}" for k, v in values.items()))


class TestConfigParsing:
    def test_empty_text_gives_documented_defaults(self):
        cfg = parse_config_text("")
        assert cfg["s"] == 10.0
        assert cfg["omega"] == 40.0
        assert cfg["lambda_max"] == 100.0
        assert cfg["tau"] == 0.01
        assert cfg["alpha"] == 0.95
        assert cfg["batch_size"] == 64
        assert cfg["lr_schedule"] == "cosine"

    def test_round_trip_all_keys(self):
        text = "\n".join(f"{k}={v}" for k, v in DEFAULTS.items())
        cfg = parse_config_text(text)
        assert cfg.values == dict(DEFAULTS)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("learning_rate=0.1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="invalid value"):
            parse_config_text("cycles=ten")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# a comment\n\nseed=9\n")
        assert cfg["seed"] == 9

    def test_metric_name_checked(self):
        with pytest.raises(ConfigError):
            parse_config_text("metric=accuracy")

    def test_trainer_and_lt_specs_materialize(self):
        cfg = parse_config_text("metric=min_recall\nK=6\nd=8\nn1=60\nrho=10\ncycles=3")
        assert cfg.trainer_config().metric.kind == "min_recall"
        assert cfg.lt_spec().K == 6

    @pytest.mark.parametrize("text", ["cycles=0", "lr=-1", "lr=nan", "lr=inf", "s=inf",
                                      "omega=inf", "within_std=nan", "K=1", "seed=-1",
                                      "mode=transductive", "head_tail_split=10"])
    def test_out_of_range_value_is_a_config_error(self, text):
        with pytest.raises(ConfigError):
            parse_config_text(text)

    @settings(max_examples=300, deadline=None)
    @given(CONFIG_TEXTS)
    def test_any_parsed_config_is_valid_or_a_config_error(self, text):
        try:
            cfg = parse_config_text(text)
        except ConfigError:
            return
        assert isinstance(cfg.trainer_config(), TrainerConfig)
        assert isinstance(cfg.lt_spec(), LTSpec)


class TestGenData:
    def test_balanced_manifest(self, tmp_path):
        conf = tmp_path / "c.cfg"
        conf.write_text("K=4\nd=6\nn1=30\nrho=1\nseed=3\n")
        out = tmp_path / "data"
        assert run_cli("gen-data", "--config", str(conf), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["class_counts"] == [30, 30, 30, 30]

    def test_longtail_manifest_tail_count(self, tmp_path):
        conf = tmp_path / "c.cfg"
        conf.write_text("K=10\nd=16\nn1=1500\nrho=100\nseed=0\n")
        out = tmp_path / "data"
        assert run_cli("gen-data", "--config", str(conf), "--out", str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["class_counts"][-1] == 15

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        conf = tmp_path / "c.cfg"
        conf.write_text("bogus=1\n")
        assert run_cli("gen-data", "--config", str(conf), "--out", str(tmp_path / "d")) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_overflowing_within_std_exits_1_and_writes_nothing(self, tmp_path, capsys):
        conf = tmp_path / "c.cfg"
        conf.write_text("K=4\nd=4\nn1=50\nrho=4\nwithin_std=1e308\n")
        out = tmp_path / "data"
        assert run_cli("gen-data", "--config", str(conf), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "within_std" in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["gen-data", "train"])
def test_out_of_range_config_value_exits_2(tmp_path, capsys, command):
    conf = tmp_path / "c.cfg"
    conf.write_text("cycles=0\n")
    argv = [command, "--config", str(conf), "--out", str(tmp_path / "out")]
    if command == "train":
        argv += ["--data", str(tmp_path / "data")]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err == "config error: cycles must be >= 1\n"
    assert not (tmp_path / "out").exists()


@pytest.fixture()
def small_data_dir(tmp_path):
    conf = tmp_path / "gen.cfg"
    conf.write_text("K=4\nd=6\nn1=80\nrho=8\nwithin_std=0.45\nseed=5\n")
    out = tmp_path / "data"
    assert run_cli("gen-data", "--config", str(conf), "--out", str(out)) == 0
    return out


class TestTrain:
    def test_zero_lr_summary_psi_equals_cycle_one(self, tmp_path, small_data_dir):
        conf = tmp_path / "train.cfg"
        conf.write_text("K=4\nd=6\nmetric=mean_recall\ncycles=3\nsgd_steps=5\n"
                        "batch_size=8\nlr=0\nseed=1\n")
        out = tmp_path / "run"
        code = run_cli("train", "--config", str(conf), "--data", str(small_data_dir),
                       "--out", str(out), "--pretrain-steps", "40")
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["psi"] == pytest.approx(summary["cycle1_psi"])

    def test_rerun_is_byte_identical(self, tmp_path, small_data_dir):
        conf = tmp_path / "train.cfg"
        conf.write_text("K=4\nd=6\nmetric=min_recall\ncycles=3\nsgd_steps=10\n"
                        "batch_size=8\nlr=0.05\nseed=2\n")
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("train", "--config", str(conf), "--data", str(small_data_dir),
                           "--out", str(out), "--pretrain-steps", "40") == 0
            outputs.append(
                ((out / "summary.json").read_bytes(),
                 (out / "history.jsonl").read_bytes(),
                 (out / "final_model.csv").read_bytes())
            )
        assert outputs[0] == outputs[1]

    def test_history_is_valid_jsonl_with_cycle_count(self, tmp_path, small_data_dir):
        conf = tmp_path / "train.cfg"
        conf.write_text("K=4\nd=6\nmetric=mean_recall\ncycles=4\nsgd_steps=5\n"
                        "batch_size=8\nlr=0.05\nseed=3\n")
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(conf), "--data", str(small_data_dir),
                       "--out", str(out)) == 0
        lines = (out / "history.jsonl").read_text().splitlines()
        assert len(lines) == 4
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"t", "psi", "recalls", "coverages", "lambdas",
                                   "gain_max", "gain_min", "policy_entropy", "wall_ms"}

    def test_ssl_mode_via_cli(self, tmp_path, small_data_dir):
        conf = tmp_path / "train.cfg"
        conf.write_text("K=4\nd=6\nmetric=mean_recall\nmode=ssl\ncycles=2\nsgd_steps=5\n"
                        "batch_size=8\nlr=0.05\nseed=4\n")
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(conf), "--data", str(small_data_dir),
                       "--out", str(out), "--pretrain-steps", "40") == 0

    @pytest.mark.parametrize("policy", ["selmix", "uniform", "greedy"])
    def test_train_split_missing_a_class_runs_quietly(self, tmp_path, small_data_dir, policy,
                                                      capsys):
        # class 3 has no labeled rows: no pair with first class 3 can be formed
        # and the logit-adjusted warm start sees a zero prior
        train_csv = small_data_dir / "train.csv"
        lines = train_csv.read_text().splitlines()
        kept = [line for line in lines[1:] if not line.startswith("3,")]
        assert len(kept) < len(lines) - 1
        train_csv.write_text("\n".join([lines[0]] + kept) + "\n")
        conf = tmp_path / "train.cfg"
        conf.write_text("K=4\nd=6\nmetric=min_recall\ncycles=3\nsgd_steps=10\n"
                        "batch_size=8\nlr=0.05\nseed=2\n")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("train", "--config", str(conf), "--data", str(small_data_dir),
                           "--out", str(tmp_path / "run"), "--policy", policy,
                           "--pretrain-steps", "200")
        assert code == 0
        assert [str(w.message) for w in caught] == []
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_ragged_train_csv_exits_1_and_creates_no_output(self, tmp_path, small_data_dir,
                                                             capsys):
        with open(small_data_dir / "train.csv", "a") as fh:
            fh.write("0,1.0\n")
        conf = tmp_path / "train.cfg"
        conf.write_text("K=4\nd=6\ncycles=1\nsgd_steps=1\n")
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(conf), "--data", str(small_data_dir),
                       "--out", str(out)) == 1
        assert "expected 7 fields, got 2" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_data_dir_exits_2(self, tmp_path):
        conf = tmp_path / "train.cfg"
        conf.write_text("K=4\nd=6\n")
        assert run_cli("train", "--config", str(conf), "--data", str(tmp_path / "nope"),
                       "--out", str(tmp_path / "run")) == 2

    def test_min_recall_run_beats_uniform_policy_run(self, tmp_path):
        # reduced version of the reference benchmark; deterministic seed
        conf = tmp_path / "train.cfg"
        conf.write_text("K=10\nd=16\nn1=400\nrho=50\nwithin_std=0.55\nmetric=min_recall\n"
                        "cycles=15\nsgd_steps=40\nbatch_size=64\nlr=0.2\nseed=5\n")
        data = tmp_path / "data"
        assert run_cli("gen-data", "--config", str(conf), "--out", str(data)) == 0
        mins = {}
        for policy in ("selmix", "uniform"):
            out = tmp_path / policy
            assert run_cli("train", "--config", str(conf), "--data", str(data),
                           "--out", str(out), "--policy", policy,
                           "--pretrain-steps", "800") == 0
            summary = json.loads((out / "summary.json").read_text())
            mins[policy] = min(summary["recalls"])
        assert mins["selmix"] > mins["uniform"]


class TestSimulatePolicy:
    def test_constant_generator_zero_regret(self, capsys):
        assert run_cli("simulate-policy", "--K", "3", "--T", "50", "--generator",
                       "constant", "--seeds", "0", "1") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        aggregate = json.loads(lines[-1])
        assert aggregate["mean_regret"] == pytest.approx(0.0, abs=1e-12)
        assert aggregate["within_bound"]

    def test_unknown_policy_exits_2(self, capsys):
        assert run_cli("simulate-policy", "--policy", "bandit") == 2

    def test_variant_policy_within_bound(self, capsys):
        assert run_cli("simulate-policy", "--K", "3", "--T", "2000", "--policy",
                       "selmix_hedge_variant", "--generator", "alternating",
                       "--seeds", *[str(s) for s in range(5)]) == 0
        aggregate = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert aggregate["within_bound"]


    @pytest.mark.parametrize("s", ["nan", "inf"])
    def test_non_finite_s_exits_1(self, capsys, s):
        assert run_cli("simulate-policy", "--s", s, "--T", "10", "--seeds", "0") == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.strip().splitlines() == ["error: s must be positive and finite"]


class TestCheckGain:
    def test_small_run_passes_and_reports_monotone_rows(self, capsys):
        assert run_cli("check-gain", "--K", "4", "--d", "6",
                       "--within-std", "0.5", "0.02", "--seeds", "0", "1") == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        errs = {r["within_std"]: r["median_rel_error"] for r in rows}
        assert errs[0.02] <= 0.15

    def test_diffuse_clusters_fail_the_gate(self, capsys):
        # std 2.0 swamps the cluster separation; the approximation breaks
        # and the command reports it with a nonzero exit
        code = run_cli("check-gain", "--K", "10", "--d", "16",
                       "--within-std", "2.0", "--seeds", "0", "1")
        out = capsys.readouterr()
        row = json.loads(out.out.strip().splitlines()[-1])
        assert row["median_rel_error"] > 0.15
        assert code == 1


class TestCheckTheory:
    def test_emits_strict_json_reports(self, capsys):
        assert run_cli("check-theory", "--which", "both", "--T", "150",
                       "--alignment-c", "1.0", "--N", "80", "--mc-pairs", "2000",
                       "--seeds", "0", "1") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 4
        reports = [json.loads(line) for line in lines]   # nulls, never Infinity
        assert all(r["bound_satisfied"] for r in reports[:2])
        assert all(np.isfinite(r["rel_error"]) for r in reports[2:])


    @pytest.mark.parametrize("args, message", [
        (("--alpha-beta", "nan", "2"), "need finite alpha, beta > 1"),
        (("--alpha-beta", "2", "inf"), "need finite alpha, beta > 1"),
        (("--theta-scale", "nan"), "theta_scale must be finite"),
        (("--theta-scale=-inf",), "theta_scale must be finite"),
    ], ids=["alpha-nan", "beta-inf", "theta-nan", "theta-minus-inf"])
    def test_non_finite_mixup_arguments_exit_1(self, capsys, args, message):
        assert run_cli("check-theory", "--which", "mixup", "--N", "20", "--mc-pairs", "10",
                       *args) == 1
        out = capsys.readouterr()
        assert out.out == ""
        lines = out.err.strip().splitlines()
        assert len(lines) == 1 and message in lines[0]


class TestEval:
    def test_perfect_fixture_has_unit_recalls(self, tmp_path, capsys):
        feats = np.vstack([np.eye(3), np.eye(3)])
        ds = FeatureDataset(feats, np.tile(np.arange(3), 2), num_classes=3)
        data = tmp_path / "d.csv"
        save_dataset(ds, data)
        model = tmp_path / "m.csv"
        save_model_csv(LinearModel(10.0 * np.eye(3)), model)
        assert run_cli("eval", "--model", str(model), "--data", str(data)) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["recalls"] == [1.0, 1.0, 1.0]
        assert report["min_coverage"] == pytest.approx(1.0 / 3.0)

    def test_zero_weights_tie_break_gives_mean_recall_one_over_k(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        ds = FeatureDataset(rng.normal(size=(40, 4)), np.repeat(np.arange(4), 10), 4)
        data = tmp_path / "d.csv"
        save_dataset(ds, data)
        model = tmp_path / "m.csv"
        save_model_csv(LinearModel(np.zeros((4, 4))), model)
        assert run_cli("eval", "--model", str(model), "--data", str(data)) == 0
        report = json.loads(capsys.readouterr().out)
        # all argmax ties resolve to class 0: recall 1 there, 0 elsewhere
        assert report["mean_recall"] == pytest.approx(0.25)

    def test_missing_model_exits_2(self, tmp_path):
        assert run_cli("eval", "--model", str(tmp_path / "nope.csv"),
                       "--data", str(tmp_path / "nope2.csv")) == 2

    def test_ragged_model_exits_1_naming_the_line(self, tmp_path, capsys):
        model = tmp_path / "m.csv"
        model.write_text("1.0,0.0\n0.0\n")
        data = tmp_path / "d.csv"
        save_dataset(FeatureDataset(np.eye(2), np.arange(2), num_classes=2), data)
        assert run_cli("eval", "--model", str(model), "--data", str(data)) == 1
        err = capsys.readouterr().err
        assert "line 2: expected 2 fields, got 1" in err
        assert err.count("\n") == 1

    def test_model_sets_the_class_count(self, tmp_path, capsys):
        # a 4-class model scores a CSV as 4 classes, whatever labels it holds
        data = tmp_path / "d.csv"
        save_dataset(FeatureDataset(np.tile(np.eye(4)[:3], (2, 1)), np.tile(np.arange(3), 2),
                                    num_classes=3), data)
        model = tmp_path / "m.csv"
        save_model_csv(LinearModel(10.0 * np.eye(4)), model)
        assert run_cli("eval", "--model", str(model), "--data", str(data)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: class 3 absent from evaluation set\n"

    def test_label_beyond_model_classes_exits_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        save_dataset(FeatureDataset(np.eye(3), np.arange(3), num_classes=3), data)
        model = tmp_path / "m.csv"
        save_model_csv(LinearModel(np.eye(3)[:, :2]), model)
        assert run_cli("eval", "--model", str(model), "--data", str(data)) == 1
        assert "line 4: label 2 out of range" in capsys.readouterr().err

    def test_non_finite_features_exit_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("label,f0,f1\n0,1.0,0.0\n1,nan,1.0\n")
        model = tmp_path / "m.csv"
        save_model_csv(LinearModel(np.eye(2)), model)
        assert run_cli("eval", "--model", str(model), "--data", str(data)) == 1
        assert "line 3: non-finite feature value" in capsys.readouterr().err

    def test_header_only_csv_prints_no_data_rows(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("label,f0,f1\n")
        model = tmp_path / "m.csv"
        save_model_csv(LinearModel(np.eye(2)), model)
        assert run_cli_raising_warnings("eval", "--model", str(model), "--data", str(data)) == 1
        assert capsys.readouterr().err == f"error: {data}: no data rows\n"

    @pytest.mark.parametrize("text", ["", "\n  \n"])
    def test_empty_model_file_exits_1(self, tmp_path, capsys, text):
        model = tmp_path / "m.csv"
        model.write_text(text)
        data = tmp_path / "d.csv"
        save_dataset(FeatureDataset(np.eye(2), np.arange(2), num_classes=2), data)
        assert run_cli_raising_warnings("eval", "--model", str(model), "--data", str(data)) == 1
        assert capsys.readouterr().err == f"error: {model}: empty model file\n"

    def test_non_finite_model_value_names_its_line(self, tmp_path, capsys):
        model = tmp_path / "m.csv"
        model.write_text("1.0,0.0\n0.0,nan\n")
        data = tmp_path / "d.csv"
        save_dataset(FeatureDataset(np.eye(2), np.arange(2), num_classes=2), data)
        assert run_cli_raising_warnings("eval", "--model", str(model), "--data", str(data)) == 1
        assert capsys.readouterr().err == f"error: {model}: line 2: non-finite weight value\n"


@pytest.mark.parametrize("bad", ["data", "model", "config"])
def test_non_utf8_input_gives_one_line_naming_the_file(tmp_path, capsys, bad):
    data = tmp_path / "d.csv"
    save_dataset(FeatureDataset(np.eye(2), np.arange(2), num_classes=2), data)
    model = tmp_path / "m.csv"
    save_model_csv(LinearModel(np.eye(2)), model)
    conf = tmp_path / "c.cfg"
    conf.write_text("K=4\nd=4\nn1=20\nrho=2\n")
    path = {"data": data, "model": model, "config": conf}[bad]
    path.write_bytes(path.read_bytes() + b"\xff\n")
    if bad == "config":
        code = run_cli("gen-data", "--config", str(conf), "--out", str(tmp_path / "out"))
        assert not (tmp_path / "out").exists()
    else:
        code = run_cli("eval", "--model", str(model), "--data", str(data))
    err = capsys.readouterr().err
    assert code == (2 if bad == "config" else 1)
    assert err.count("\n") == 1 and f"{path}: not UTF-8 text" in err
