"""Selective class-pair mixup fine-tuning for non-decomposable
confusion-matrix objectives, with policy and theory simulators."""

__version__ = "0.1.0"

from .benchmark import BenchmarkSetting, benchmark_config, make_benchmark
from .classifier import (
    ArgmaxCarry,
    CentroidSet,
    LinearModel,
    class_centroids,
    direction_matrix,
    predict,
    sgd_mixup_step,
)
from .data import FeatureDataset, LTSpec, generate_longtail, load_dataset, save_dataset, split
from .errors import ConfigError, DataError, SelMixError
from .gain import GainMatrix, gain_fd_oracle, gain_matrix
from .metrics import (
    ConfusionMatrix,
    MetricSpec,
    confusion_from_predictions,
    evaluate_metric,
    metric_grad_unconstrained,
    model_confusion,
    neutral_lagrange,
    soft_confusion,
    unconstrained_to_confusion,
    update_lagrange,
)
from .policy import (
    MixPolicy,
    OnlineGameConfig,
    greedy_distribution,
    run_online_game,
    sample_pairs,
    selmix_distribution,
    uniform_distribution,
)
from .theory_checks import convergence_check, mixup_regularization_check
from .trainer import (
    RunHistory,
    TrainerConfig,
    cosine_lr,
    pretrain_erm,
    refresh_pseudo_labels,
    run_selmix,
)

__all__ = [
    "ArgmaxCarry",
    "BenchmarkSetting",
    "CentroidSet",
    "ConfigError",
    "ConfusionMatrix",
    "DataError",
    "FeatureDataset",
    "GainMatrix",
    "LTSpec",
    "LinearModel",
    "MetricSpec",
    "MixPolicy",
    "OnlineGameConfig",
    "RunHistory",
    "SelMixError",
    "TrainerConfig",
    "benchmark_config",
    "class_centroids",
    "confusion_from_predictions",
    "convergence_check",
    "cosine_lr",
    "direction_matrix",
    "evaluate_metric",
    "gain_fd_oracle",
    "gain_matrix",
    "generate_longtail",
    "greedy_distribution",
    "load_dataset",
    "make_benchmark",
    "metric_grad_unconstrained",
    "mixup_regularization_check",
    "model_confusion",
    "neutral_lagrange",
    "predict",
    "pretrain_erm",
    "refresh_pseudo_labels",
    "run_online_game",
    "run_selmix",
    "sample_pairs",
    "save_dataset",
    "selmix_distribution",
    "sgd_mixup_step",
    "soft_confusion",
    "split",
    "unconstrained_to_confusion",
    "uniform_distribution",
    "update_lagrange",
]
