"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers and wall time.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import json
import time

import numpy as np
import pytest

from conftest import fd_metric_grad, random_confusion, random_lagrange
from selmix.benchmark import benchmark_config, make_benchmark
from selmix.classifier import CentroidSet, LinearModel
from selmix.cli import main as cli_main
from selmix.config import parse_config_text
from selmix.data import LTSpec, generate_longtail, load_dataset, save_dataset
from selmix.errors import ConfigError
from selmix.gain import gain_matrix, gain_oracle_median_error
from selmix.metrics import (
    MEAN_RECALL,
    MEAN_RECALL_COVERAGE,
    METRIC_KINDS,
    MIN_RECALL,
    MetricSpec,
    metric_grad_unconstrained,
    model_confusion,
    neutral_lagrange,
)
from selmix.policy import GAIN_GENERATORS, OnlineGameConfig, run_online_game
from selmix.theory_checks import convergence_check, mixup_regularization_check
from selmix.trainer import run_selmix

SEEDS = range(10)


def report(cid, name, ok, detail, elapsed):
    print(f"[acceptance] {cid} {name}: {'PASS' if ok else 'FAIL'} "
          f"({detail}; {elapsed:.1f}s)")


# --------------------------------------------------------------------------
# benchmark runs shared by criteria 4 and 5
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def benchmark_runs():
    """Five fine-tuning runs per seed on the reference benchmark."""
    started = time.perf_counter()
    rows = []
    for seed in SEEDS:
        train, _, val, init = make_benchmark(seed)

        def final_confusion(kind, policy, **kw):
            cfg = benchmark_config(MetricSpec(kind, **kw), seed, policy=policy)
            model, _ = run_selmix(cfg, train, None, val, init)
            return model_confusion(model, val)

        rows.append(
            {
                "min_selmix": final_confusion(MIN_RECALL, "selmix"),
                "min_uniform": final_confusion(MIN_RECALL, "uniform"),
                "mean_selmix": final_confusion(MEAN_RECALL, "selmix"),
                "mean_greedy": final_confusion(MEAN_RECALL, "greedy"),
                "coverage_selmix": final_confusion(MEAN_RECALL_COVERAGE, "selmix"),
            }
        )
    return rows, time.perf_counter() - started


class TestC1GradientCorrectness:
    def test_all_kinds_match_finite_differences(self):
        started = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for kind in METRIC_KINDS:
            spec = MetricSpec(kind)
            for _ in range(200):
                k = int(rng.integers(3, 8))
                c = random_confusion(rng, k)
                lam = random_lagrange(rng, spec, k)
                analytic = metric_grad_unconstrained(spec, c, lam)
                numeric = fd_metric_grad(spec, c, lam)
                scale = np.maximum(np.abs(numeric), 1e-8 / 1e-5)
                worst = max(worst, float(np.max(np.abs(analytic - numeric) / scale)))
        elapsed = time.perf_counter() - started
        ok = worst <= 1e-5 and elapsed < 30.0
        report("C1", "gradient correctness (9 kinds x 200)", ok,
               f"worst rel err {worst:.2e}", elapsed)
        assert worst <= 1e-5
        assert elapsed < 30.0


class TestC2GainApproximation:
    def test_median_error_tightens_with_clusters(self):
        started = time.perf_counter()
        medians = [gain_oracle_median_error(10, 16, std, SEEDS) for std in (0.5, 0.1, 0.02)]
        elapsed = time.perf_counter() - started
        ok = medians[0] >= medians[1] >= medians[2] and medians[2] <= 0.15 and elapsed < 120
        report("C2", "gain vs finite-difference oracle", ok,
               f"median rel err by std {[round(m, 4) for m in medians]}", elapsed)
        assert medians[0] >= medians[1] >= medians[2]
        assert medians[2] <= 0.15
        assert elapsed < 120.0


class TestC3RegretBounds:
    def test_grid_within_bound_plus_noise(self):
        started = time.perf_counter()
        failures = []
        worst_margin = np.inf
        for policy in ("selmix_hedge", "selmix_hedge_variant"):
            for k in (3, 10):
                for horizon in (1000, 10_000):
                    for gen in GAIN_GENERATORS:
                        regrets = []
                        for seed in range(20):
                            cfg = OnlineGameConfig(K=k, T=horizon, s=10.0,
                                                   gain_generator=gen,
                                                   policy_kind=policy, seed=seed)
                            out = run_online_game(cfg)
                            regrets.append(out["regret"])
                        se = float(np.std(regrets, ddof=1) / np.sqrt(len(regrets)))
                        allowed = out["bound"] + 3.0 * se
                        margin = allowed - float(np.mean(regrets))
                        worst_margin = min(worst_margin, margin)
                        if margin < 0:
                            failures.append((policy, k, horizon, gen))
        elapsed = time.perf_counter() - started
        ok = not failures and elapsed < 60.0
        report("C3", "regret bounds (2 policies x 2K x 2T x 5 generators)", ok,
               f"worst margin {worst_margin:.2e}, failures {failures}", elapsed)
        assert not failures
        assert elapsed < 60.0


class TestC4PolicyComparison:
    def test_directional_wins(self, benchmark_runs):
        rows, elapsed = benchmark_runs
        min_wins = sum(
            r["min_selmix"].recalls().min() > r["min_uniform"].recalls().min() for r in rows
        )
        mean_wins = sum(
            r["mean_selmix"].recalls().mean() >= r["mean_greedy"].recalls().mean() for r in rows
        )
        ok = min_wins >= 8 and mean_wins >= 7 and elapsed < 600.0
        report("C4", "policy comparison direction", ok,
               f"min recall selmix>uniform {min_wins}/10, "
               f"mean recall selmix>=greedy {mean_wins}/10", elapsed)
        assert min_wins >= 8
        assert mean_wins >= 7
        assert elapsed < 600.0


class TestC5CoverageConstraint:
    def test_min_coverage_reached(self, benchmark_runs):
        rows, elapsed = benchmark_runs
        target = 0.9 * 0.95 / 10
        hits = sum(r["coverage_selmix"].coverages().min() >= target for r in rows)
        # companion behavior: the constraint costs at most 3 mean-recall points
        gentle = sum(
            r["coverage_selmix"].recalls().mean() >= r["mean_selmix"].recalls().mean() - 0.03
            for r in rows
        )
        ok = hits >= 8 and elapsed < 600.0
        report("C5", "coverage constraint satisfaction", ok,
               f"min coverage >= {target:.4f} in {hits}/10 seeds, "
               f"<=3pt mean-recall cost in {gentle}/10", elapsed)
        assert hits >= 8
        assert gentle >= 8
        assert elapsed < 600.0


class TestC6Convergence:
    def test_rate_envelope(self):
        started = time.perf_counter()
        results = {}
        for c in (0.5, 1.0):
            results[c] = [convergence_check(4, 6, c, T=300, seed=s) for s in range(20)]
        satisfied = {c: sum(r["bound_satisfied"] for r in results[c]) for c in results}
        exponents = [r["fitted_rate_exponent"] for r in results[1.0]]
        elapsed = time.perf_counter() - started
        ok = all(s >= 19 for s in satisfied.values()) and all(e <= -0.9 for e in exponents)
        ok = ok and elapsed < 60.0
        report("C6", "convergence rate envelope", ok,
               f"bound satisfied c=0.5: {satisfied[0.5]}/20, c=1: {satisfied[1.0]}/20, "
               f"max exponent {max(exponents)}", elapsed)
        assert satisfied[0.5] >= 19
        assert satisfied[1.0] >= 19
        assert all(e <= -0.9 for e in exponents)
        assert elapsed < 60.0


class TestC7MixupRegularization:
    def test_taylor_error_shrinks(self):
        started = time.perf_counter()
        decreasing = 0
        for seed in range(20):
            errs = [
                mixup_regularization_check(5, 8, (2.0, 2.0), scale, N=400,
                                           mc_pairs=100_000, seed=seed)["rel_error"]
                for scale in (0.1, 0.05, 0.025)
            ]
            decreasing += errs[0] > errs[1] > errs[2]
        exact = mixup_regularization_check(5, 8, (2.0, 2.0), 0.0, N=400,
                                           mc_pairs=100_000, seed=0)
        elapsed = time.perf_counter() - started
        ok = decreasing >= 16 and exact["rel_error"] <= 1e-10 and elapsed < 120.0
        report("C7", "mixup regularization Taylor check", ok,
               f"decreasing in {decreasing}/20 seeds, zero-weight rel err "
               f"{exact['rel_error']:.1e}", elapsed)
        assert decreasing >= 16
        assert exact["rel_error"] <= 1e-10
        assert elapsed < 120.0


class TestC8DeterminismComplexity:
    def test_history_files_bitwise_identical(self, tmp_path):
        started = time.perf_counter()
        cfg = tmp_path / "c.cfg"
        cfg.write_text("K=6\nd=8\nn1=120\nrho=10\nmetric=min_recall\ncycles=5\n"
                       "sgd_steps=20\nbatch_size=16\nlr=0.1\nseed=11\n")
        data = tmp_path / "data"
        assert cli_main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
        payloads = []
        for name in ("run_a", "run_b"):
            out = tmp_path / name
            code = cli_main(["train", "--config", str(cfg), "--data", str(data),
                             "--out", str(out), "--pretrain-steps", "200"])
            assert code == 0
            payloads.append(
                ((out / "history.jsonl").read_bytes(),
                 (out / "final_model.csv").read_bytes(),
                 (out / "summary.json").read_bytes())
            )
        identical = payloads[0] == payloads[1]

        # coarse cubic-complexity witness on the gain computation
        rng = np.random.default_rng(99)
        times = {}
        for k in (8, 32):
            model = LinearModel(rng.normal(size=(16, k)))
            cents = CentroidSet(rng.normal(size=(k, 16)))
            c = random_confusion(rng, k)
            spec = MetricSpec(MEAN_RECALL)
            lam = neutral_lagrange(spec, k)
            gain_matrix(model, cents, c, spec, lam, 0.75)
            best = np.inf
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(20):
                    gain_matrix(model, cents, c, spec, lam, 0.75)
                best = min(best, (time.perf_counter() - t0) / 20)
            times[k] = best
        ratio = times[32] / times[8]
        elapsed = time.perf_counter() - started
        ok = identical and ratio <= 70.0 and elapsed < 120.0
        report("C8", "determinism and complexity", ok,
               f"bitwise identical {identical}, K32/K8 time ratio {ratio:.1f}", elapsed)
        assert identical
        assert ratio <= 70.0
        assert elapsed < 120.0


class TestC9FormatRoundTrips:
    def test_files_and_configs(self, tmp_path):
        started = time.perf_counter()
        ds = generate_longtail(LTSpec(K=4, d=5, N1=40, rho=4.0, seed=3))
        path = tmp_path / "ds.csv"
        save_dataset(ds, path)
        back = load_dataset(path, 4)
        round_trip = (np.array_equal(back.labels, ds.labels)
                      and np.array_equal(back.features, ds.features))

        rejected = False
        try:
            parse_config_text("not_a_key=1")
        except ConfigError:
            rejected = True

        cfg = tmp_path / "c.cfg"
        cfg.write_text("K=4\nd=5\nn1=40\nrho=4\ncycles=3\nsgd_steps=5\nbatch_size=8\nseed=1\n")
        data = tmp_path / "data"
        out = tmp_path / "run"
        assert cli_main(["gen-data", "--config", str(cfg), "--out", str(data)]) == 0
        assert cli_main(["train", "--config", str(cfg), "--data", str(data),
                         "--out", str(out)]) == 0
        lines = (out / "history.jsonl").read_text().splitlines()
        jsonl_ok = len(lines) == 3 and all(isinstance(json.loads(l), dict) for l in lines)

        elapsed = time.perf_counter() - started
        ok = round_trip and rejected and jsonl_ok and elapsed < 10.0
        report("C9", "format round trips", ok,
               f"csv identity {round_trip}, unknown key rejected {rejected}, "
               f"history jsonl {jsonl_ok}", elapsed)
        assert round_trip
        assert rejected
        assert jsonl_ok
        assert elapsed < 10.0
