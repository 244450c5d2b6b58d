"""Reference desk-scale benchmark used by the acceptance suite and demos.

Training data is a long-tailed Gaussian cluster pool (head class 1500
samples, imbalance factor 100); metrics are measured on a balanced
validation pool drawn from the same cluster geometry, matching the usual
evaluation protocol for long-tailed benchmarks.  The starting classifier
is warm-started with logit-adjusted cross-entropy so it resembles the
debiased pretrained models the fine-tuning procedure expects: decent mean
recall, weak tails, small but nonzero coverage everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classifier import LinearModel
from .errors import DataError, check_integers
# generate_longtail stays importable here: perfbench/tracing.py wraps it by this name
from .data import (POOL_FRACTIONS, FeatureDataset, LTSpec, balanced_validation,
                   generate_longtail, split)  # noqa: F401
from .metrics import MetricSpec
from .trainer import TrainerConfig, pretrain_erm


@dataclass(frozen=True)
class BenchmarkSetting:
    K: int = 10
    d: int = 16
    N1: int = 1500
    rho: float = 100.0
    within_std: float = 0.55
    cluster_separation: float = 1.0
    val_per_class: int = 150
    pretrain_steps: int = 2000
    logit_adjust: float = 1.0

    def __post_init__(self):
        check_integers(self, DataError, K=2, d=1, N1=1, val_per_class=1, pretrain_steps=0)


def make_benchmark(
    seed: int, setting: BenchmarkSetting = BenchmarkSetting()
) -> tuple[FeatureDataset, FeatureDataset, FeatureDataset, LinearModel]:
    """Build (train, unlabeled, validation, init) for one seed."""
    pool_spec = LTSpec(
        K=setting.K,
        d=setting.d,
        N1=setting.N1,
        rho=setting.rho,
        cluster_separation=setting.cluster_separation,
        within_std=setting.within_std,
        seed=seed,
    )
    train, _, unlabeled = split(pool_spec, POOL_FRACTIONS, seed=seed)
    validation = balanced_validation(pool_spec, setting.val_per_class)
    init = pretrain_erm(
        train,
        steps=setting.pretrain_steps,
        seed=seed,
        logit_adjust=setting.logit_adjust,
    )
    return train, unlabeled, validation, init


def benchmark_config(
    metric: MetricSpec,
    seed: int,
    policy: str = "selmix",
    cycles: int = 50,
    sgd_steps_per_cycle: int = 100,
) -> TrainerConfig:
    """Fine-tuning configuration of the reference runs: the published recipe
    (``TrainerConfig``'s defaults) with 100 SGD steps per cycle; only the
    policy and target metric vary between runs."""
    return TrainerConfig(
        metric=metric,
        cycles=cycles,
        sgd_steps_per_cycle=sgd_steps_per_cycle,
        seed=seed,
        policy=policy,
    )
