"""Selective class-pair mixup fine-tuning for non-decomposable
confusion-matrix objectives, with policy and theory simulators.

The package exports the names the demos use and the error types; every
other public name is imported from its own module, as in
``from selmix.benchmark import benchmark_config``."""

__version__ = "0.1.0"

from .benchmark import make_benchmark
from .classifier import LinearModel, class_centroids
from .data import LTSpec, generate_longtail
from .errors import ConfigError, DataError, SelMixError
from .gain import gain_fd_oracle, gain_matrix
from .metrics import (
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
from .policy import OnlineGameConfig, run_online_game
from .theory_checks import convergence_check, mixup_regularization_check
from .trainer import refresh_pseudo_labels, run_selmix

__all__ = [
    "ConfigError",
    "DataError",
    "LTSpec",
    "LinearModel",
    "MetricSpec",
    "OnlineGameConfig",
    "SelMixError",
    "class_centroids",
    "confusion_from_predictions",
    "convergence_check",
    "evaluate_metric",
    "gain_fd_oracle",
    "gain_matrix",
    "generate_longtail",
    "make_benchmark",
    "metric_grad_unconstrained",
    "mixup_regularization_check",
    "model_confusion",
    "neutral_lagrange",
    "refresh_pseudo_labels",
    "run_online_game",
    "run_selmix",
    "soft_confusion",
    "unconstrained_to_confusion",
    "update_lagrange",
]
