"""The benchmark's tracer wraps program functions by (module, name) and
reads the run history's fields; a refactor that drops or moves one of those
names must fail here, not first in a traced benchmark run."""

import importlib
import sys
from pathlib import Path

import pytest

from selmix import benchmark, trainer
from selmix.metrics import MIN_RECALL, MetricSpec

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    """The benchmark's ``tracing`` and ``workloads`` modules, freshly imported."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    return importlib.import_module("tracing"), importlib.import_module("workloads")


def test_every_traced_name_resolves(perfbench):
    tracing, _ = perfbench
    assert tracing.TARGETS
    missing = [(module, attr) for module, attr, _ in tracing.TARGETS
               if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_the_benchmark_reads_every_field_of_a_real_history(perfbench):
    tracing, workloads = perfbench
    setting = benchmark.BenchmarkSetting(N1=300, rho=20.0, val_per_class=20, pretrain_steps=100)
    train, _, validation, init = benchmark.make_benchmark(0, setting)
    config = benchmark.benchmark_config(MetricSpec(MIN_RECALL), 0, cycles=2,
                                        sgd_steps_per_cycle=3)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.phase = "op"
        model, history = trainer.run_selmix(config, train, None, validation, init)
    finally:
        tracer.uninstall()
    for name in ("records", "sgd_steps", "final_psi", "pair_resamples",
                 "pseudo_empty_resamples", "to_jsonl"):
        assert hasattr(history, name), name
    assert tracer.counters["cycles"] == 2 and tracer.counters["sgd_steps"] == 6
    workload = workloads.FineTune(setting, config.metric, 2, 3, 1.0)
    outcome = workload.check((config, train, validation, init), (model, history))
    assert outcome.problems == [] and outcome.steps == 6
