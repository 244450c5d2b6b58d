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
from .errors import DataError, check_integers, check_reals
from .data import FeatureDataset, LTSpec, split
from .data import generate_longtail  # noqa: F401  (the benchmark's tracer wraps it here)
from .metrics import MetricSpec
from .trainer import TrainerConfig, pretrain_erm


@dataclass(frozen=True)
class BenchmarkSetting:
    """A benchmark's pool (``LTSpec``'s fields and defaults, less the seed),
    its validation size and its warm start."""

    K: int = LTSpec.K
    d: int = LTSpec.d
    N1: int = LTSpec.N1
    rho: float = LTSpec.rho
    within_std: float = LTSpec.within_std
    cluster_separation: float = LTSpec.cluster_separation
    val_per_class: int = 150
    pretrain_steps: int = 2000
    logit_adjust: float = 1.0

    def __post_init__(self):
        self.pool(0)
        check_integers(self, DataError, val_per_class=1, pretrain_steps=0)
        check_reals(self, "logit_adjust", error=DataError)

    def pool(self, seed: int) -> LTSpec:
        """The long-tailed pool of this setting drawn with ``seed``."""
        return LTSpec(K=self.K, d=self.d, N1=self.N1, rho=self.rho,
                      cluster_separation=self.cluster_separation, within_std=self.within_std,
                      seed=seed)


def make_benchmark(
    seed: int, setting: BenchmarkSetting = BenchmarkSetting()
) -> tuple[FeatureDataset, FeatureDataset, FeatureDataset, LinearModel]:
    """Build (train, unlabeled, validation, init) for one seed: the
    :func:`~selmix.data.split` of ``setting.pool(seed)`` with
    ``setting.val_per_class`` validation rows per class, and the warm start
    on its train part."""
    train, unlabeled, validation = split(setting.pool(seed), setting.val_per_class)
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
    policy: str = TrainerConfig.policy,
    cycles: int = TrainerConfig.cycles,
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
