"""Spans around the program's layer boundaries, recorded from outside.

``Tracer.install`` replaces each function listed in ``TARGETS`` with a
wrapper in the module where its caller looks it up (``trainer`` imports its
collaborators by name, so wrapping ``selmix.gain.gain_matrix`` alone would
miss the trainer's calls).  Spans are kept in memory and reduced to the
per-layer metrics at the end of the run.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import os
import tracemalloc
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np
from selmix import gain, metrics
from selmix.classifier import CentroidSet, LinearModel

from workloads import GENERATORS

# (module where the caller looks the name up, attribute, span name)
TARGETS = (
    ("selmix.trainer", "model_confusion", "metrics.model_confusion"),
    ("selmix.trainer", "update_lagrange", "metrics.update_lagrange"),
    ("selmix.trainer", "evaluate_metric", "metrics.evaluate_metric"),
    ("selmix.trainer", "gain_matrix", "gain.gain_matrix"),
    ("selmix.trainer", "selmix_distribution", "policy.selmix_distribution"),
    ("selmix.trainer", "greedy_distribution", "policy.greedy_distribution"),
    ("selmix.trainer", "uniform_distribution", "policy.uniform_distribution"),
    ("selmix.trainer", "sgd_mixup_step", "classifier.sgd_mixup_step"),
    ("selmix.trainer", "refresh_pseudo_labels", "trainer.refresh_pseudo_labels"),
    ("selmix.trainer", "class_centroids", "classifier.class_centroids"),
    ("selmix.trainer", "run_selmix", "trainer.run_selmix"),
    ("selmix.gain", "metric_grad_unconstrained", "metrics.metric_grad_unconstrained"),
    ("selmix.benchmark", "generate_longtail", "data.generate_longtail"),
    ("selmix.benchmark", "split", "data.split"),
    ("selmix.benchmark", "pretrain_erm", "trainer.pretrain_erm"),
    ("selmix.cli", "main", "cli.main"),
    ("selmix.cli", "load_config", "config.load_config"),
    ("selmix.cli", "generate_longtail", "data.generate_longtail"),
    ("selmix.cli", "split", "data.split"),
    ("selmix.cli", "save_dataset", "data.save_dataset"),
    ("selmix.cli", "load_dataset", "data.load_dataset"),
    ("selmix.cli", "pretrain_erm", "trainer.pretrain_erm"),
    ("selmix.cli", "run_selmix", "trainer.run_selmix"),
    ("selmix.policy", "run_online_game", "policy.run_online_game"),
    ("selmix.theory_checks", "convergence_check", "theory_checks.convergence_check"),
    ("selmix.theory_checks", "mixup_regularization_check",
     "theory_checks.mixup_regularization_check"),
)

# spans whose name carries the call's first argument
LABELS = {
    "cli.main": lambda args: f"cli.main.{args[0][0]}",
    "policy.run_online_game": lambda args: f"policy.run_online_game.{args[0].gain_generator}",
}

CLI_COMMANDS = ("gen-data", "train", "eval")
PER_CYCLE = (
    "trainer.refresh_pseudo_labels", "metrics.model_confusion", "metrics.update_lagrange",
    "metrics.metric_grad_unconstrained", "metrics.evaluate_metric", "policy.selmix_distribution",
)
PER_CALL_MS = (
    "trainer.pretrain_erm", "classifier.class_centroids", "theory_checks.convergence_check",
    "theory_checks.mixup_regularization_check", "data.generate_longtail", "data.split",
    "data.save_dataset", "data.load_dataset", "config.load_config",
    *(f"cli.main.{c}" for c in CLI_COMMANDS),
    *(f"policy.run_online_game.{g}" for g in GENERATORS),
)
GAIN_PEAK_K = (10, 100, 200)


class Tracer:
    """Span recorder; ``phase`` tells set-up spans from operation spans."""

    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent index, phase]
        self.counters: Counter = Counter()
        self.phase = "setup"
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name: str):
        label = LABELS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name if label is None else label(args), perf_counter(), 0.0, parent, self.phase]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self._stack.pop()
            if self.phase == "op":
                self._count(name, args, result)
            return result

        return traced

    def _count(self, name: str, args, result) -> None:
        if name == "trainer.run_selmix":
            config, history = args[0], result[1]
            self.counters["cycles"] += len(history.records)
            self.counters["sgd_steps"] += history.sgd_steps
            self.counters["pair_draws"] += history.sgd_steps * config.batch_size
            self.counters["pair_resamples"] += history.pair_resamples
            self.counters["pseudo_empty_resamples"] += history.pseudo_empty_resamples
        elif name == "data.save_dataset":
            self.counters["csv_bytes_written"] += os.path.getsize(args[1])
        elif name == "data.load_dataset":
            self.counters["csv_bytes_read"] += os.path.getsize(args[0])

    def layer_metrics(self, traced_s: list[float], overhead_s: float,
                      peaks_mb: dict[int, float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced operations (and, for per-call
        means, the traced set-ups).  ``traced_s`` are the traced operations'
        wall times; ``overhead_s`` is what tracing added to one operation."""
        ops = max(len(traced_s), 1)
        total, self_total, calls, per_call = Counter(), Counter(), Counter(), defaultdict(list)
        children = Counter()
        for span in self.spans:
            if span[3] >= 0:
                children[span[3]] += span[2] - span[1]
        top_level = 0.0
        for index, (name, start, end, parent, phase) in enumerate(self.spans):
            per_call[name].append(end - start)
            if phase != "op":
                continue
            total[name] += end - start
            self_total[name] += end - start - children[index]
            calls[name] += 1
            if parent < 0:
                top_level += end - start
        c = self.counters
        cycles, steps = c["cycles"], c["sgd_steps"]
        attempts = c["pair_draws"] + c["pair_resamples"] + c["pseudo_empty_resamples"]

        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        out = {
            "trainer.self_us_per_step": (ratio(self_total["trainer.run_selmix"], steps, 1e6), "us"),
            "trainer.sgd_steps": (steps / ops, "count"),
            "trainer.pair_resamples": (c["pair_resamples"] / ops, "count"),
            "trainer.pseudo_empty_resamples": (c["pseudo_empty_resamples"] / ops, "count"),
            "trainer.pair_accept_ratio": (ratio(c["pair_draws"], attempts), "1"),
            "classifier.sgd_mixup_step.us_per_call": (
                ratio(total["classifier.sgd_mixup_step"], calls["classifier.sgd_mixup_step"], 1e6),
                "us"),
            "classifier.sgd_mixup_step.calls": (calls["classifier.sgd_mixup_step"] / ops, "count"),
            "gain.gain_matrix.ms_per_cycle": (ratio(total["gain.gain_matrix"], cycles, 1e3), "ms"),
            "gain.gain_matrix.self_ms_per_cycle": (
                ratio(self_total["gain.gain_matrix"], cycles, 1e3), "ms"),
            "gain.gain_matrix.calls": (calls["gain.gain_matrix"] / ops, "count"),
            "policy.run_online_game.calls": (
                sum(calls[f"policy.run_online_game.{g}"] for g in GENERATORS) / ops, "count"),
            "data.csv_bytes_written": (c["csv_bytes_written"] / ops, "B"),
            "data.csv_bytes_read": (c["csv_bytes_read"] / ops, "B"),
            "trace.overhead_s": (overhead_s, "s"),
            "trace.span_coverage": (ratio(top_level, sum(traced_s)), "1"),
        }
        for name in PER_CYCLE:
            out[f"{name}.ms_per_cycle"] = (ratio(total[name], cycles, 1e3), "ms")
        for name in PER_CALL_MS:
            out[f"{name}.ms"] = (ratio(sum(per_call[name]), len(per_call[name]), 1e3), "ms")
        for k in GAIN_PEAK_K:
            out[f"gain.peak_mb.k{k}"] = (peaks_mb.get(k, 0.0), "MB")
        return out


def gain_peak_mb(k: int, seed: int, d: int = 64) -> float:
    """Peak traced allocation of one ``gain_matrix`` call at K classes."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
    model = LinearModel(rng.standard_normal((d, k)))
    centroids = CentroidSet(rng.standard_normal((k, d)))
    spec = metrics.MetricSpec(metrics.MEAN_RECALL)
    conf = metrics.unconstrained_to_confusion(rng.standard_normal((k, k)), np.full(k, 1.0 / k))
    lam = metrics.neutral_lagrange(spec, k)
    tracemalloc.start()
    try:
        gain.gain_matrix(model, centroids, conf, spec, lam, 0.75)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20
