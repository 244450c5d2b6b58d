"""The benchmark's workloads: inputs built from a seed, one timed operation,
and the checks on that operation's output.

Each workload loads a different layer of the fine-tuning cycle:

* ``ref_k10``: the reference run's settings (K=10, d=16, batch 64, 100 SGD
  steps per cycle, min recall) for 10 cycles instead of 50.  The mixup SGD
  block does almost all the work; the per-cycle stages (confusion,
  multipliers, gain, policy) are under 1% of it.  ``step_us`` is the
  reference run's us per SGD step; a whole 50-cycle run (2-3 s) would hold
  too few repeats in a run for a steady median.
* ``wide_k100``: K=100, 10 cycles x 20 SGD steps, so the per-cycle stages
  (gain matrix, validation confusion) dominate and the SGD block is small.
  Features have d=128 >= K: below K, ``make_benchmark`` draws the
  validation clusters around other means than the training clusters, and
  every model stays at chance.  It optimises mean recall: with coverage
  multipliers psi stays negative at this K, which a relative bound cannot
  compare, and the multiplier and metric-gradient stages cost O(K^2)
  whichever metric is chosen.
* ``sims``: a reduced regret grid (both hedge policies x five generators x
  K in {3, 10} x T in {1000, 10000}, one game seed) plus both theory checks;
  it exercises ``policy`` and ``theory_checks`` with no trainer at all.
* ``cli_ssl_k10``: ``gen-data`` -> ``train`` (ssl, 10 cycles x 20 steps
  after a 2000-step warm start) -> ``eval`` through the in-process CLI, so
  CSV writing and reading, config parsing and the pseudo-label refresh are
  on the path.

Operations are kept short (0.4-1.6 s) so that a run holds many repeats for
its median.  Each workload declares ``interpreter_share``, the blend of the
speed gauge's calibration halves (see ``speed.py``) that matches its work:
1.0 for ``ref_k10`` and ``cli_ssl_k10`` (per-sample SGD loop, CSV parsing),
0.5 for ``wide_k100`` (vectorised gain matrix and confusion, Python SGD
block) and ``sims`` (vectorised policy arrays, the Python loop of the
``anticorrelated`` generator).  Over five seeds of each these blends gave
the steadiest full-speed medians.  The sizes that set psi (validation rows
per class, warm-start length) are chosen so psi varies little across seeds.

Every operation must produce the same outputs when repeated with the same
inputs; ``Outcome.digest`` is what the driver compares across repeats.

``run(inputs, timed)`` makes every program call through ``timed``, which
times it; an operation's time is the sum over its calls, and the little
glue between them is not timed.  Program functions are looked up through
their modules at call time (``trainer.run_selmix``,
``policy.run_online_game``, ...) so that the traced run's wrappers see
these calls.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from selmix import benchmark, cli, metrics, policy, theory_checks, trainer
from selmix.metrics import MEAN_RECALL, MIN_RECALL, MetricSpec

GENERATORS = ("constant", "iid_uniform", "alternating", "anticorrelated", "spiky")
GAMES_PER_CALL = 4              # one policy against one generator, K x T


@dataclass
class Outcome:
    """What the driver needs from one checked operation."""

    steps: int                  # SGD steps, or game rounds for ``sims``
    psi: float                  # the objective the operation reached
    digest: str                 # sha1 of history + final weights, or of every sims report
    problems: list[str] = field(default_factory=list)


def _sha1(*chunks: bytes) -> str:
    h = hashlib.sha1()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


class FineTune:
    """One ``run_selmix`` call on ``make_benchmark`` inputs."""

    step_unit = "sgd_step"
    psi_source = "history.final_psi"

    def __init__(self, setting, metric: MetricSpec, cycles: int, steps_per_cycle: int,
                 interpreter_share: float):
        self.interpreter_share = interpreter_share
        self.setting = setting
        self.metric = metric
        self.cycles = cycles
        self.steps_per_cycle = steps_per_cycle

    def setup(self, seed: int):
        train, _, validation, init = benchmark.make_benchmark(seed, self.setting)
        config = benchmark.benchmark_config(
            self.metric, seed, cycles=self.cycles, sgd_steps_per_cycle=self.steps_per_cycle
        )
        return config, train, validation, init

    def run(self, inputs, timed):
        config, train, validation, init = inputs
        return timed(trainer.run_selmix, config, train, None, validation, init)

    def check(self, inputs, result) -> Outcome:
        config, _, validation, _ = inputs
        model, history = result
        spec = config.metric
        conf = metrics.model_confusion(model, validation)
        psi = metrics.evaluate_metric(spec, conf, metrics.update_lagrange(spec, conf))
        problems = []
        if psi != history.final_psi:
            problems.append(f"final_psi {history.final_psi!r} != recomputed {psi!r}")
        digest = _sha1(history.to_jsonl().encode(), model.weights.tobytes())
        return Outcome(history.sgd_steps, history.final_psi, digest, problems)


class Sims:
    """Hedge policies against every gain generator, plus both theory checks."""

    step_unit = "game_round"
    interpreter_share = 0.5
    psi_source = "mean expected per-round gain of the hedge policies, anticorrelated excluded"

    def setup(self, seed: int):
        games = [
            policy.OnlineGameConfig(K=k, T=t, gain_generator=g, policy_kind=p, seed=seed)
            for p in ("selmix_hedge", "selmix_hedge_variant")
            for g in GENERATORS
            for k in (3, 10)
            for t in (1000, 10_000)
        ]
        return games, seed

    def run(self, inputs, timed):
        games, seed = inputs
        reports = []
        for start in range(0, len(games), GAMES_PER_CALL):
            reports += timed(self._play, games[start:start + GAMES_PER_CALL])
        convergence, mixup = timed(self._theory, seed)
        return reports, convergence, mixup

    @staticmethod
    def _play(games):
        return [policy.run_online_game(cfg) for cfg in games]

    @staticmethod
    def _theory(seed: int):
        convergence = theory_checks.convergence_check(K=5, d=8, alignment_c=0.5, T=2000, seed=seed)
        mixup = theory_checks.mixup_regularization_check(
            K=5, d=8, alpha_beta=(2.0, 2.0), theta_scale=0.05, N=400, mc_pairs=50_000, seed=seed
        )
        return convergence, mixup

    def check(self, inputs, result) -> Outcome:
        reports, convergence, mixup = result
        problems = []
        for r in reports:
            where = f"{r['policy']}/{r['generator']}/K={r['K']}/T={r['T']}/seed={r['seed']}"
            if not (math.isfinite(r["regret"]) and math.isfinite(r["bound"])):
                problems.append(f"{where}: non-finite regret or bound")
            if r["generator"] != "spiky" and r["clamped_rounds"] != 0:
                problems.append(f"{where}: {r['clamped_rounds']} clamped rounds")
        if not math.isfinite(convergence["final_suboptimality"]):
            problems.append("convergence_check: non-finite suboptimality")
        if not math.isfinite(mixup["rel_error"]):
            problems.append("mixup_regularization_check: non-finite relative error")
        scored = [r["avg_gain_policy_expected"] for r in reports if r["generator"] != "anticorrelated"]
        digest = _sha1(json.dumps([reports, convergence, mixup], sort_keys=True).encode())
        return Outcome(sum(r["T"] for r in reports), sum(scored) / len(scored), digest, problems)


CLI_CONFIG = """\
metric = mean_recall
mode = ssl
K = 10
d = 64
n1 = 1500
cycles = 10
sgd_steps = 20
seed = {seed}
"""


class CliPipeline:
    """``gen-data`` -> ``train`` -> ``eval`` through ``selmix.cli.main``."""

    step_unit = "sgd_step"
    psi_source = "summary.json psi"
    interpreter_share = 1.0

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def setup(self, seed: int):
        root = self.workdir / f"cli-{seed}"
        root.mkdir(parents=True, exist_ok=True)
        config = root / "run.cfg"
        config.write_text(CLI_CONFIG.format(seed=seed), encoding="utf-8")
        return root, config

    def run(self, inputs, timed):
        root, config = inputs
        data, out = root / "data", root / "run"
        commands = (
            ["gen-data", "--config", str(config), "--out", str(data)],
            ["train", "--config", str(config), "--data", str(data), "--out", str(out),
             "--pretrain-steps", "2000"],
            ["eval", "--model", str(out / "final_model.csv"), "--data", str(data / "val.csv")],
        )
        stdout, stderr = io.StringIO(), io.StringIO()
        codes = []
        with redirect_stdout(stdout), redirect_stderr(stderr):
            for argv in commands:
                codes.append(timed(cli.main, argv))
                if codes[-1] != 0:
                    break
        return codes, stdout.getvalue(), stderr.getvalue()

    def check(self, inputs, result) -> Outcome:
        root, _ = inputs
        codes, stdout, stderr = result
        if codes != [0, 0, 0]:
            return Outcome(0, math.nan, "", [f"exit codes {codes}: {stderr.strip()[-300:]}"])
        out = root / "run"
        summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
        history = (out / "history.jsonl").read_text(encoding="utf-8").splitlines()
        evaluated = json.loads(stdout.strip().splitlines()[-1])
        problems = []
        if summary["psi"] != evaluated["mean_recall"]:
            problems.append(f"summary psi {summary['psi']!r} != eval {evaluated['mean_recall']!r}")
        if summary["cycle1_psi"] != json.loads(history[0])["psi"]:
            problems.append("summary cycle1_psi differs from the first history record")
        if len(history) != summary["cycles"]:
            problems.append(f"{len(history)} history records for {summary['cycles']} cycles")
        digest = _sha1((out / "history.jsonl").read_bytes(), (out / "final_model.csv").read_bytes())
        return Outcome(summary["sgd_steps"], summary["psi"], digest, problems)


def make(name: str, workdir: Path):
    """The workload called ``name``; ``workdir`` holds any files it writes."""
    if name == "ref_k10":
        return FineTune(benchmark.BenchmarkSetting(), MetricSpec(MIN_RECALL), 10, 100, 1.0)
    if name == "wide_k100":
        setting = benchmark.BenchmarkSetting(K=100, d=128, val_per_class=150)
        return FineTune(setting, MetricSpec(MEAN_RECALL), 10, 20, 0.5)
    if name == "sims":
        return Sims()
    if name == "cli_ssl_k10":
        return CliPipeline(workdir)
    raise ValueError(f"unknown workload {name!r}")
