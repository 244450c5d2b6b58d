import json
import re
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import CSV_MUTATIONS, mutate_csv
from selmix.benchmark import BenchmarkSetting
from selmix.cli import build_parser, main
from selmix.config import DEFAULTS, _parse_value, parse_config_text
from selmix.data import LABEL_BOUND, FeatureDataset, LTSpec, save_dataset, save_weights, split
from selmix.errors import ConfigError, DataError, SelMixError
from selmix.metrics import METRIC_KINDS, MetricSpec
from selmix.policy import OnlineGameConfig, run_online_game
from selmix.trainer import TrainerConfig


def run_cli(*argv):
    return main(list(argv))


def run_cli_raising_warnings(*argv):
    """run_cli with every warning raised, so a warning headed for stderr
    fails the call instead."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run_cli(*argv)


def strict_loads(line):
    """json.loads that rejects NaN and the infinities, which are not JSON."""
    def reject(constant):
        raise ValueError(f"non-JSON constant {constant}")

    return json.loads(line, parse_constant=reject)


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
        trainer = parse_config_text("").trainer
        assert trainer.s == 10.0
        assert trainer.metric.omega == 40.0
        assert trainer.metric.lambda_max == 100.0
        assert trainer.metric.tau == 0.01
        assert trainer.metric.alpha == 0.95
        assert trainer.batch_size == 64
        assert trainer.lr_schedule == "cosine"

    def test_round_trip_all_keys(self):
        text = "\n".join(f"{k}={v}" for k, v in DEFAULTS.items())
        assert parse_config_text(text) == parse_config_text("")

    def test_the_readme_lists_every_key_with_its_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        sentence = readme[readme.index("Keys and defaults:"):]
        sentence = sentence[:sentence.index("\n\n")]
        pairs = [item.partition("=") for item in re.findall(r"`(\w+=[^`\s]*)`", sentence)]
        listed = [key for key, _, _ in pairs]
        assert len(listed) == len(set(listed)) and set(listed) == set(DEFAULTS)
        assert {key: _parse_value(key, raw) for key, _, raw in pairs} == DEFAULTS

    def test_mode_is_the_run_configs_own(self):
        assert parse_config_text("").mode == "supervised"
        assert parse_config_text("mode=ssl").mode == "ssl"
        with pytest.raises(ConfigError, match="^mode must be 'supervised' or 'ssl'$"):
            parse_config_text("mode=transductive")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("learning_rate=0.1")

    def test_key_given_twice_rejected_naming_both_lines(self):
        with pytest.raises(ConfigError, match=r"^line 3: key 'K' already set on line 1$"):
            parse_config_text("K = 3\n# a comment\nK = 4\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="invalid value"):
            parse_config_text("cycles=ten")

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config_text("# a comment\n\nseed=9\n")
        assert cfg.trainer.seed == cfg.data.seed == 9

    def test_metric_name_checked(self):
        with pytest.raises(ConfigError):
            parse_config_text("metric=accuracy")

    def test_trainer_and_lt_specs_materialize(self):
        cfg = parse_config_text("metric=min_recall\nK=6\nd=8\nn1=60\nrho=10\ncycles=3")
        assert cfg.trainer.metric.kind == "min_recall"
        assert cfg.data.K == 6

    @pytest.mark.parametrize("text", ["cycles=0", "lr=-1", "lr=nan", "lr=inf", "s=inf",
                                      "omega=inf", "within_std=nan", "K=1", "seed=-1",
                                      "mode=transductive", "head_tail_split=10"])
    def test_out_of_range_value_is_a_config_error(self, text):
        with pytest.raises(ConfigError):
            parse_config_text(text)

    @pytest.mark.parametrize("build, message", [
        (lambda: LTSpec(K=3.5), "K must be an integer, got 3.5"),
        (lambda: LTSpec(d=16.0), "d must be an integer, got 16.0"),
        (lambda: LTSpec(N1="1500"), "N1 must be an integer, got '1500'"),
        (lambda: LTSpec(seed=0.5), "seed must be an integer, got 0.5"),
        (lambda: TrainerConfig(MetricSpec("min_recall"), cycles=2.5),
         "cycles must be an integer, got 2.5"),
        (lambda: TrainerConfig(MetricSpec("min_recall"), sgd_steps_per_cycle=10.0),
         "sgd_steps_per_cycle must be an integer, got 10.0"),
        (lambda: TrainerConfig(MetricSpec("min_recall"), batch_size=None),
         "batch_size must be an integer, got None"),
        (lambda: TrainerConfig(MetricSpec("min_recall"), seed=1.5),
         "seed must be an integer, got 1.5"),
        (lambda: OnlineGameConfig(K=3.0, T=5), "K must be an integer, got 3.0"),
        (lambda: OnlineGameConfig(K=3, T=5.5), "T must be an integer, got 5.5"),
        (lambda: OnlineGameConfig(K=3, T=5, seed=0.5), "seed must be an integer, got 0.5"),
        (lambda: OnlineGameConfig(K=3, T=5, policy_kind="fixed", fixed_pair=(0.5, 0)),
         r"fixed_pair must be two integers, got \(0.5, 0\)"),
    ])
    def test_a_non_integer_field_is_refused_at_construction(self, build, message):
        with pytest.raises(SelMixError, match=f"^{message}$"):
            build()

    @pytest.mark.parametrize("field", ["rho", "within_std", "cluster_separation", "logit_adjust"])
    @pytest.mark.parametrize("value", [np.ones(2), "1.0", None, 1 + 0j],
                             ids=["array", "str", "None", "complex"])
    def test_a_non_real_benchmark_field_is_refused_at_construction(self, field, value):
        with pytest.raises(DataError, match=f"^{field} must be a real number, got "):
            BenchmarkSetting(**{field: value})

    def test_numpy_integers_are_integers(self):
        spec = LTSpec(K=np.int64(3), d=np.int32(4), N1=np.int64(200), seed=np.uint8(1))
        assert spec.class_counts().size == 3
        assert len(split(spec, np.int64(5))) == 3
        TrainerConfig(MetricSpec("min_recall"), cycles=np.int64(2), sgd_steps_per_cycle=np.int32(0),
                      batch_size=np.int64(8), seed=np.uint16(3))
        game = OnlineGameConfig(K=np.int64(3), T=np.int64(5), seed=np.int8(1), policy_kind="fixed",
                                fixed_pair=(np.int64(2), np.int64(0)))
        assert run_online_game(game)["T"] == 5

    @settings(max_examples=300, deadline=None)
    @given(CONFIG_TEXTS)
    def test_any_parsed_config_is_valid_or_a_config_error(self, text):
        try:
            cfg = parse_config_text(text)
        except ConfigError:
            return
        assert isinstance(cfg.trainer, TrainerConfig)
        assert isinstance(cfg.data, LTSpec)


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


@pytest.mark.parametrize("argv, flag, default", [
    (["eval", "--model", "m", "--data", "d"], "omega", MetricSpec.omega),
    (["train", "--config", "c", "--data", "d", "--out", "o"], "policy", TrainerConfig.policy),
    (["simulate-policy"], "s", OnlineGameConfig.s),
    (["simulate-policy"], "policy", OnlineGameConfig.policy_kind),
    (["simulate-policy"], "generator", OnlineGameConfig.gain_generator),
    (["simulate-policy"], "fixed_pair", OnlineGameConfig.fixed_pair),
])
def test_a_flag_defaults_to_the_field_it_sets(argv, flag, default):
    assert getattr(build_parser().parse_args(argv), flag) == default


def test_a_benchmark_pool_defaults_to_ltspecs():
    assert BenchmarkSetting().pool(3) == LTSpec(seed=3)


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
                                   "gain_max", "gain_min", "policy_entropy"}

    def test_summary_recalls_and_coverages_are_the_final_models(self, tmp_path, capsys):
        # the last cycle's SGD steps move class 1's recall after its history record
        conf = tmp_path / "train.cfg"
        conf.write_text("K=10\nd=16\nn1=300\nrho=20\ncycles=4\nsgd_steps=50\n"
                        "metric=mean_recall_coverage\nseed=2\nlr=0.5\n")
        data, out = tmp_path / "data", tmp_path / "run"
        assert run_cli("gen-data", "--config", str(conf), "--out", str(data)) == 0
        assert run_cli("train", "--config", str(conf), "--data", str(data), "--out", str(out),
                       "--pretrain-steps", "100") == 0
        capsys.readouterr()
        assert run_cli("eval", "--model", str(out / "final_model.csv"),
                       "--data", str(data / "val.csv")) == 0
        evaluated = json.loads(capsys.readouterr().out)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["recalls"] == evaluated["recalls"]
        assert summary["coverages"] == evaluated["coverages"]

    def test_ssl_mode_via_cli(self, tmp_path, small_data_dir):
        conf = tmp_path / "train.cfg"
        conf.write_text("K=4\nd=6\nmetric=mean_recall\nmode=ssl\ncycles=2\nsgd_steps=5\n"
                        "batch_size=8\nlr=0.05\nseed=4\n")
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(conf), "--data", str(small_data_dir),
                       "--out", str(out), "--pretrain-steps", "40") == 0

    @pytest.mark.parametrize("mode, code", [("supervised", 0), ("ssl", 2)])
    def test_only_an_ssl_config_reads_unlabeled_csv(self, tmp_path, small_data_dir, capsys,
                                                    mode, code):
        (small_data_dir / "unlabeled.csv").unlink()
        conf = tmp_path / "train.cfg"
        conf.write_text(f"K=4\nd=6\nmode={mode}\ncycles=1\nsgd_steps=5\nbatch_size=8\n")
        capsys.readouterr()
        assert run_cli("train", "--config", str(conf), "--data", str(small_data_dir),
                       "--out", str(tmp_path / "run")) == code
        assert ("unlabeled.csv" in capsys.readouterr().err) == (mode == "ssl")

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

    def test_tiny_tau_coverage_run_exits_0_without_a_warning(self, tmp_path, small_data_dir):
        # tau = 1e-310 overflows the multiplier slack (coverage - alpha/K) / tau
        conf = tmp_path / "train.cfg"
        conf.write_text("K=4\nd=6\nmetric=mean_recall_coverage\ntau=1e-310\ncycles=3\n"
                        "sgd_steps=5\nbatch_size=8\nlr=0.05\nseed=1\n")
        assert run_cli_raising_warnings("train", "--config", str(conf), "--data",
                                        str(small_data_dir), "--out", str(tmp_path / "run"),
                                        "--pretrain-steps", "40") == 0

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

    def test_config_gen_data_cannot_split_still_trains(self, tmp_path, small_data_dir):
        # n1=100 at rho=100 leaves the tail class one row; train never splits
        conf = tmp_path / "train.cfg"
        conf.write_text("K=4\nd=6\nn1=100\ncycles=1\nsgd_steps=1\n")
        assert run_cli("gen-data", "--config", str(conf), "--out", str(tmp_path / "gen")) == 2
        assert run_cli("train", "--config", str(conf), "--data", str(small_data_dir),
                       "--out", str(tmp_path / "run")) == 0

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


    @pytest.mark.parametrize("policy", ["uniform", "fixed", "greedy"])
    def test_policies_without_a_bound_print_strict_json_with_null(self, capsys, policy):
        assert run_cli("simulate-policy", "--K", "3", "--T", "10", "--policy", policy,
                       "--seeds", "0", "1") == 0
        reports = [strict_loads(l) for l in capsys.readouterr().out.strip().splitlines()]
        assert len(reports) == 3 and reports[-1]["aggregate"]
        assert all(r["bound"] is None for r in reports)

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
        reports = [strict_loads(line) for line in lines]   # nulls, never Infinity
        assert all(r["bound_satisfied"] for r in reports[:2])
        assert all(np.isfinite(r["rel_error"]) for r in reports[2:])


    @pytest.mark.parametrize("args, message", [
        (("--alpha-beta", "nan", "2"), "need finite alpha, beta > 1"),
        (("--alpha-beta", "2", "inf"), "need finite alpha, beta > 1"),
        (("--theta-scale", "nan"), "theta_scale must be finite"),
        (("--theta-scale=-inf",), "theta_scale must be finite"),
        (("--theta-scale", "1e308"), "theta_scale=1e+308 overflows"),
    ], ids=["alpha-nan", "beta-inf", "theta-nan", "theta-minus-inf", "theta-1e308"])
    def test_non_finite_mixup_arguments_exit_1(self, capsys, args, message):
        assert run_cli("check-theory", "--which", "mixup", "--N", "20", "--mc-pairs", "10",
                       *args) == 1
        out = capsys.readouterr()
        assert out.out == ""
        lines = out.err.strip().splitlines()
        assert len(lines) == 1 and message in lines[0]

    def test_a_representable_mean_of_huge_mixup_losses_is_reported(self, capsys):
        # 2000 losses near 1e306 overflow their sum but not their mean; the
        # draws do not depend on the scale, so the mean scales with it
        reports = []
        for scale in ("1e300", "1e305"):
            assert run_cli("check-theory", "--which", "mixup", "--N", "20",
                           "--mc-pairs", "2000", "--theta-scale", scale) == 0
            out = capsys.readouterr()
            assert out.err == ""
            reports.append(strict_loads(out.out))
        small, huge = reports
        assert all(np.isfinite(v) for v in huge.values())
        assert huge["mixup_loss_mc"] == pytest.approx(1e5 * small["mixup_loss_mc"], rel=1e-12)


class TestEval:
    def test_perfect_fixture_has_unit_recalls(self, tmp_path, capsys):
        feats = np.vstack([np.eye(3), np.eye(3)])
        ds = FeatureDataset(feats, np.tile(np.arange(3), 2), num_classes=3)
        data = tmp_path / "d.csv"
        save_dataset(ds, data)
        model = tmp_path / "m.csv"
        save_weights(10.0 * np.eye(3), model)
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
        save_weights(np.zeros((4, 4)), model)
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
        save_weights(10.0 * np.eye(4), model)
        assert run_cli("eval", "--model", str(model), "--data", str(data)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: class 3 absent from evaluation set\n"

    def test_label_beyond_model_classes_exits_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        save_dataset(FeatureDataset(np.eye(3), np.arange(3), num_classes=3), data)
        model = tmp_path / "m.csv"
        save_weights(np.eye(3)[:, :2], model)
        assert run_cli("eval", "--model", str(model), "--data", str(data)) == 1
        assert "line 4: label 2 out of range" in capsys.readouterr().err

    def test_non_finite_features_exit_1(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("label,f0,f1\n0,1.0,0.0\n1,nan,1.0\n")
        model = tmp_path / "m.csv"
        save_weights(np.eye(2), model)
        assert run_cli("eval", "--model", str(model), "--data", str(data)) == 1
        assert "line 3: non-finite feature value" in capsys.readouterr().err

    def test_header_only_csv_prints_no_data_rows(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("label,f0,f1\n")
        model = tmp_path / "m.csv"
        save_weights(np.eye(2), model)
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
    save_weights(np.eye(2), model)
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


_NO_MEMORY = "Unable to allocate 74.5 GiB for an array with shape (1, 100000, 100000)"


def _out_of_memory(cfg):
    raise MemoryError(_NO_MEMORY)


# the widest pool numpy can hold at the default K, n1 and rho: d = 10**30
# exceeds numpy's largest dimension and d = 2**60 its largest array size, so
# numpy would refuse either before allocating anything
_D_LIMIT = np.iinfo(np.intp).max // (8 * int(LTSpec().class_counts().sum()))

# rho=100 leaves the tail class one row: too few for both the labeled and
# the unlabeled split gen-data makes
_TAIL_OF_ONE = "K=3\nn1=60\n"
_TRAIN = ("train", "--config", "{tmp}/gen.cfg", "--data", "{tmp}/data", "--out", "{tmp}/out")
# clusters 1e200 apart: the warm start's logits and the gain's products overflow
_FAR_APART = "K=4\nd=6\nn1=80\nrho=8\nseed=5\ncluster_separation=1e200\n"
_TRAIN_FAR = ("train", "--config", "{tmp}/far.cfg", "--data", "{tmp}/far", "--out", "{tmp}/out")
# the 6-feature train.csv of gen.cfg beside a 5-feature val.csv
_TRAIN_NARROW = ("train", "--config", "{tmp}/gen.cfg", "--data", "{tmp}/narrow", "--out",
                 "{tmp}/out")
_EVAL = ("eval", "--model", "{tmp}/m.csv", "--data")
# s * gain overflows, so the softmax over the pairs is NaN
_HUGE_S = "K=4\nd=6\nmetric=mean_recall_coverage\ns=1e308\ncycles=3\nsgd_steps=5\n"
# a finite 6 x 4 model whose logits on the gen.cfg data overflow
_HUGE_MODEL = np.where(np.indices((6, 4)).sum(axis=0) % 2, -1e308, 1e308)


def _write_eval_inputs(tmp):
    """A 4 x 2 model, a 60,000-row ``val.csv`` of 18-byte lines whose byte
    1,050,000 (past the first MiB) is not UTF-8, and a CSV whose data lines
    are all blank."""
    save_weights(np.zeros((4, 2)), tmp / "m.csv")
    val = tmp / "val.csv"
    save_dataset(FeatureDataset(np.ones((60_000, 4)), np.arange(60_000) % 2, num_classes=2), val)
    blob = bytearray(val.read_bytes())
    blob[1_050_000] = 0xFF
    val.write_bytes(blob)
    (tmp / "blank.csv").write_text("label,f0,f1,f2,f3\n\n\n\n")


@pytest.mark.parametrize("argv, message", [
    (("simulate-policy", "--seeds", "-1"), "seed must be >= 0"),
    (("check-theory", "--seeds", "-1"), "seed must be >= 0"),
    (("check-theory", "--which", "mixup", "--seeds", "-1"), "seed must be >= 0"),
    (("check-theory", "--which", "convergence", "--K", "-1"), "K must be >= 1"),
    (("check-theory", "--which", "convergence", "--d", "-2"), "d must be >= 1"),
    (("check-theory", "--which", "convergence", "--K", "0"), "K must be >= 1"),
    (("check-theory", "--which", "convergence", "--d", "0"), "d must be >= 1"),
    (("check-theory", "--which", "mixup", "--K", "2", "--d", "-1"), "d must be >= 1"),
    (("check-theory", "--which", "mixup", "--d", "0"), "d must be >= 1"),
    (("simulate-policy", "--K", "100000", "--T", "1", "--seeds", "0"), _NO_MEMORY),
    (("simulate-policy", "--s", "1e308", "--K", "3", "--T", "5", "--seeds", "0"),
     "2 * s * T must be finite"),
    ((*_TRAIN, "--pretrain-steps", "5", "--pretrain-la", "inf"), "logit shift non-finite"),
    ((*_TRAIN, "--pretrain-steps", "5", "--pretrain-la", "1e308"), "logit shift non-finite"),
    ((*_TRAIN, "--pretrain-steps", "5", "--pretrain-la", "nan"), "logit shift non-finite"),
    ((*_TRAIN, "--pretrain-steps", "-3"), "steps must be >= 0"),
    ((*_TRAIN, "--init", "{tmp}/m.csv"), "init model shape does not match the data"),
    (_TRAIN_NARROW, "error: validation set has 5 features, train has 6\n"),
    (("train", "--config", "{tmp}/wide.cfg", "--data", "{tmp}/data", "--out", "{tmp}/out"),
     "error: train.csv has 6 features, the config's d is 8\n"),
    (("gen-data", "--config", "{tmp}/tail.cfg", "--out", "{tmp}/out"),
     "config error: class 2 too small to appear in all requested splits"),
    (("gen-data", "--config", "{tmp}/huge_k.cfg", "--out", "{tmp}/out"),
     f"config error: K must lie in [2, {LABEL_BOUND}]"),
    (("train", "--config", "{tmp}/huge_k.cfg", "--data", "{tmp}/data", "--out", "{tmp}/out"),
     f"config error: K must lie in [2, {LABEL_BOUND}]"),
    (("gen-data", "--config", "{tmp}/huge_d.cfg", "--out", "{tmp}/out"),
     f"config error: d must lie in [1, {_D_LIMIT}]\n"),
    (("train", "--config", "{tmp}/huge_d.cfg", "--data", "{tmp}/data", "--out", "{tmp}/out"),
     f"config error: d must lie in [1, {_D_LIMIT}]\n"),
    (("gen-data", "--config", "{tmp}/too_big_d.cfg", "--out", "{tmp}/out"),
     f"config error: d must lie in [1, {_D_LIMIT}]\n"),
    (("gen-data", "--config", "{tmp}/huge_pool.cfg", "--out", "{tmp}/out"),
     f"config error: a pool of {2 ** 60} rows is too large to store\n"),
    (("gen-data", "--config", "{tmp}/huge_n1.cfg", "--out", "{tmp}/out"),
     f"config error: N1 must lie in [1, {LABEL_BOUND}]"),
    (("gen-data", "--config", "{tmp}/int64_n1.cfg", "--out", "{tmp}/out"),
     f"config error: N1 must lie in [1, {LABEL_BOUND}]"),
    (("gen-data", "--config", "{tmp}/twice.cfg", "--out", "{tmp}/out"),
     "config error: line 2: key 'K' already set on line 1"),
    (("gen-data", "--config", "{tmp}/split.cfg", "--out", "{tmp}/out"),
     "config error: head_tail_split must lie in (0, 10)"),
    ((*_TRAIN_FAR, "--pretrain-steps", "5"), "error: weights must be finite"),
    ((*_TRAIN_FAR, "--pretrain-steps", "0"), "error: gain matrix must be finite"),
    ((*_EVAL, "{tmp}/val.csv"), "val.csv: not UTF-8 text (invalid start byte at byte 1050000)"),
    ((*_EVAL, "{tmp}/blank.csv"), "blank.csv: no data rows"),
    (("train", "--config", "{tmp}/huge_s.cfg", "--data", "{tmp}/data", "--out", "{tmp}/out"),
     "error: policy entries must be nonnegative and sum to 1"),
    (("eval", "--model", "{tmp}/huge.csv", "--data", "{tmp}/data/val.csv"),
     "error: logits overflow"),
    ((*_TRAIN, "--init", "{tmp}/huge.csv"), "error: logits overflow"),
], ids=["sim-seed", "theory-seed", "mixup-seed", "conv-K-neg", "conv-d-neg", "conv-K-0",
        "conv-d-0", "mixup-d-neg", "mixup-d-0", "sim-out-of-memory", "sim-s-overflow",
        "pretrain-la-inf", "pretrain-la-overflow", "pretrain-la-nan", "pretrain-steps-neg",
        "init-shape-mismatch", "narrow-validation", "train-width-other-than-d",
        "gen-data-tail-too-small",
        "gen-data-K-past-label-bound", "train-K-past-label-bound",
        "gen-data-d-past-numpy-dimension", "train-d-past-numpy-dimension",
        "gen-data-d-past-numpy-size", "gen-data-pool-past-numpy-size",
        "gen-data-n1-past-label-bound", "gen-data-n1-int64-max",
        "gen-data-key-twice", "gen-data-split-below-default", "far-apart-pretrain-overflow", "far-apart-gain-overflow",
        "eval-bad-byte-past-1mib", "eval-blank-data-lines", "policy-s-overflow",
        "eval-logit-overflow", "init-logit-overflow"])
def test_bad_arguments_exit_with_one_line_and_no_traceback(monkeypatch, request, tmp_path, capsys,
                                                           argv, message):
    # the out-of-memory case stands in a callee that raises instead of allocating
    monkeypatch.setattr("selmix.cli.run_online_game", _out_of_memory)
    (tmp_path / "tail.cfg").write_text(_TAIL_OF_ONE)
    (tmp_path / "twice.cfg").write_text("K = 3\nK = 4\n")
    (tmp_path / "huge_k.cfg").write_text(f"K = {10 ** 30}\n")
    (tmp_path / "huge_d.cfg").write_text(f"d = {10 ** 30}\n")
    (tmp_path / "too_big_d.cfg").write_text(f"d = {2 ** 60}\n")
    # 128 classes of 2**53 rows: 2**60 rows of 8 B pass numpy's size at any d
    (tmp_path / "huge_pool.cfg").write_text(f"K = 128\nn1 = {2 ** 53}\nrho = 1\n")
    (tmp_path / "huge_n1.cfg").write_text(f"n1 = {10 ** 30}\n")
    (tmp_path / "int64_n1.cfg").write_text(f"n1 = {2 ** 63 - 1}\n")
    (tmp_path / "split.cfg").write_text("head_tail_split=-5\n")
    (tmp_path / "wide.cfg").write_text("K=4\nd=8\n")         # gen.cfg's data has d=6
    (tmp_path / "huge_s.cfg").write_text(_HUGE_S)
    save_weights(_HUGE_MODEL, tmp_path / "huge.csv")
    if argv[0] == "train" or "{tmp}/data/val.csv" in argv:
        request.getfixturevalue("small_data_dir")       # gen.cfg and data/ in tmp_path
    if argv[0] == "train":
        save_weights(np.zeros((3, 5)), tmp_path / "m.csv")     # data is 6 x 4
        (tmp_path / "narrow").mkdir()
        shutil.copyfile(tmp_path / "data" / "train.csv", tmp_path / "narrow" / "train.csv")
        save_dataset(FeatureDataset(np.zeros((8, 5)), np.arange(8) % 4, num_classes=4),
                     tmp_path / "narrow" / "val.csv")
        (tmp_path / "far.cfg").write_text(_FAR_APART)
        assert run_cli("gen-data", "--config", str(tmp_path / "far.cfg"),
                       "--out", str(tmp_path / "far")) == 0
    capsys.readouterr()
    if argv[0] == "eval":
        _write_eval_inputs(tmp_path)
    code = run_cli_raising_warnings(*(arg.format(tmp=tmp_path) for arg in argv))
    out = capsys.readouterr()
    assert code == (2 if message.startswith("config error:") else 1)
    assert out.err.count("\n") == 1 and message in out.err
    assert "Traceback" not in out.err + out.out
    assert not (tmp_path / "out").exists()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=st.lists(CSV_MUTATIONS, max_size=4))
def test_eval_of_a_mutated_val_csv_prints_one_line(tmp_path, capsys, mutations):
    # the CSV half of the CLI fuzz contract: exit 0 with one JSON line on
    # stdout, or exit 1 with one line on stderr; never a traceback or warning
    rng = np.random.default_rng(7)
    val = tmp_path / "val.csv"
    save_dataset(FeatureDataset(rng.standard_normal((8, 3)), np.arange(8) % 3, num_classes=3), val)
    val.write_bytes(mutate_csv(val.read_text(encoding="utf-8"), mutations))
    model = tmp_path / "m.csv"
    save_weights(np.eye(3), model)
    code = run_cli_raising_warnings("eval", "--model", str(model), "--data", str(val))
    out = capsys.readouterr()
    assert code in (0, 1)
    lines = (out.out if code == 0 else out.err).splitlines()
    assert len(lines) == 1 and (out.err if code == 0 else out.out) == ""
    if code == 0:
        strict_loads(lines[0])
    else:
        assert lines[0].startswith("error: ")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(train_edits=st.lists(CSV_MUTATIONS, max_size=3),
       unlabeled_edits=st.lists(CSV_MUTATIONS, max_size=3))
def test_train_on_mutated_csvs_exits_with_one_line(small_data_dir, tmp_path, capsys,
                                                   train_edits, unlabeled_edits):
    # the train half of the CLI fuzz contract: exit 0, 1 or 2 with one line
    # on stderr and nothing on stdout; a failed run leaves no output directory
    data, out = tmp_path / "mutated", tmp_path / "run"
    data.mkdir(exist_ok=True)
    shutil.copyfile(small_data_dir / "val.csv", data / "val.csv")
    for name, edits in (("train.csv", train_edits), ("unlabeled.csv", unlabeled_edits)):
        text = (small_data_dir / name).read_text(encoding="utf-8")
        (data / name).write_bytes(mutate_csv(text, edits))
    conf = tmp_path / "ssl.cfg"
    conf.write_text("K=4\nd=6\nmode=ssl\ncycles=1\nsgd_steps=5\nbatch_size=8\nlr=0.05\nseed=1\n")
    code = run_cli_raising_warnings("train", "--config", str(conf), "--data", str(data),
                                    "--out", str(out), "--pretrain-steps", "0")
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    if code == 0:
        assert (out / "history.jsonl").is_file()
        shutil.rmtree(out)
    else:
        assert not out.exists()


# one edit to a headerless model CSV: (kind, where, what); ``mutate_model`` applies them
MODEL_MUTATIONS = st.one_of(
    st.tuples(st.just("value"), st.integers(0, 99),
              st.sampled_from(["1e308", "-1e308", "1.7976931348623157e308", "nan", "inf",
                               "-inf", "1e309"])),
    st.tuples(st.just("scale"), st.integers(0, 99), st.sampled_from([1e150, 1e300, -1e307])),
    st.tuples(st.just("ragged"), st.integers(0, 99), st.sampled_from([-1, 1])),
    st.tuples(st.just("insert"), st.integers(0, 99), st.sampled_from(["", " ", "\t", " , "])),
    # a row (d) or a column (K) dropped or added
    st.tuples(st.sampled_from(["rows", "cols"]), st.integers(0, 99), st.sampled_from([-1, 1])),
    st.tuples(st.just("bom"), st.just(0), st.just("")),
)


def mutate_model(weights: np.ndarray, mutations) -> bytes:
    """The bytes ``save_weights`` writes for ``weights``, after
    ``mutations`` drawn from ``MODEL_MUTATIONS``: value and shape edits on
    the array, then line edits, in order."""
    w = weights.copy()
    for kind, where, what in mutations:
        if kind == "scale":
            with np.errstate(over="ignore"):    # a second scale may overflow to inf
                w = w * what
        elif kind == "rows":
            w = w[:-1] if what < 0 and len(w) > 1 else np.vstack([w, w[where % len(w)]])
        elif kind == "cols":
            w = w[:, :-1] if what < 0 and w.shape[1] > 1 else np.hstack([w, w[:, :1]])
    lines = [",".join(repr(float(v)) for v in row) for row in w]
    for kind, where, what in mutations:
        i = where % len(lines)
        fields = lines[i].split(",")
        if kind == "value":
            fields[where % len(fields)] = what
            lines[i] = ",".join(fields)
        elif kind == "ragged":
            lines[i] = ",".join(fields[:-1] if what < 0 else fields + ["0.5"])
        elif kind == "insert":
            lines.insert(i, what)
    bom = "\ufeff" if any(kind == "bom" for kind, _, _ in mutations) else ""
    return (bom + "\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=st.lists(MODEL_MUTATIONS, max_size=3))
def test_eval_and_train_on_a_mutated_model_exit_with_one_line(small_data_dir, tmp_path, capsys,
                                                              mutations):
    # the model half of the CLI fuzz contract: exit 0, 1 or 2 with one line,
    # never a traceback or warning; a failed train leaves no output directory
    model, out = tmp_path / "mutated.csv", tmp_path / "run"
    weights = np.random.default_rng(3).standard_normal((6, 4))      # the data is 6 x 4
    model.write_bytes(mutate_model(weights, mutations))
    code = run_cli_raising_warnings("eval", "--model", str(model),
                                    "--data", str(small_data_dir / "val.csv"))
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    lines = (captured.out if code == 0 else captured.err).splitlines()
    assert len(lines) == 1 and (captured.err if code == 0 else captured.out) == ""
    if code == 0:
        strict_loads(lines[0])
    assert "Traceback" not in lines[0]

    conf = tmp_path / "init.cfg"
    conf.write_text("K=4\nd=6\nmode=ssl\ncycles=1\nsgd_steps=5\nbatch_size=8\nlr=0.05\nseed=1\n")
    code = run_cli_raising_warnings("train", "--config", str(conf), "--data", str(small_data_dir),
                                    "--out", str(out), "--init", str(model),
                                    "--pretrain-steps", "0")
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    if code == 0:
        assert (out / "history.jsonl").is_file()
        shutil.rmtree(out)
    else:
        assert not out.exists()
