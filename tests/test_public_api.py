"""Every name the package exports refuses bad arguments with a SelMixError.

Each entry has one valid call on a K=3, d=4 set and a table of mutated
ones: a float for an integer, an array for a real number, a negative
count, NaN, a wrong shape or a wrong class count K.  A mutated call must
raise a :class:`SelMixError` subclass, nothing else, and emit no warning
(warnings are errors here).  Entries the exported ones reach with plain
integer or real arguments (``data.balanced_validation``,
``trainer.pretrain_erm``, ``policy.selmix_distribution``,
``gain.gain_from_metric_grad`` and ``classifier.direction_matrix``) are in
the table too, under their module names.
"""

import importlib
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

import selmix
from selmix.benchmark import BenchmarkSetting
from selmix.classifier import CentroidSet, LinearModel
from selmix.data import FeatureDataset, LTSpec
from selmix.errors import SelMixError
from selmix.gain import GainMatrix
from selmix.metrics import ConfusionMatrix, MetricSpec, metric_grad_unconstrained, soft_confusion
from selmix.policy import OnlineGameConfig
from selmix.trainer import TrainerConfig

K, D, NAN = 3, 4, float("nan")
ARRAY = np.ones((2, 2, 2))      # where a real number is due: its comparison is ambiguous
LABELS = np.arange(30) % K
# each row near twice its class's basis vector, so the models below predict its class
FEATURES = 2.0 * np.eye(D)[LABELS] + np.random.default_rng(0).uniform(-0.1, 0.1, (30, D))
VAL = FeatureDataset(FEATURES, LABELS, K)
VAL4 = FeatureDataset(FEATURES, LABELS, 4)              # class 3 has no rows
MODEL = LinearModel(np.eye(D, K))
MODEL2 = LinearModel(np.eye(D, 2))
MODEL4 = LinearModel(np.diag([1.0, 1.0, 1.0, -1.0]))    # never predicts its class 3 on VAL
WIDE = LinearModel(np.eye(D + 1, K))
CENTS = CentroidSet(2.0 * np.eye(K, D))
SPEC = MetricSpec("min_recall")
LAM = np.full(K, 1.0 / K)
C = soft_confusion(MODEL, VAL)
C4 = ConfusionMatrix(np.eye(4) / 4, np.full(4, 0.25))
OUT_OF_RANGE_HEAD = MetricSpec("min_recall_head_tail", head_set=(0, 7))
SMALL_LT = dict(K=K, d=D, N1=30, rho=2.0)
SMALL_BENCH = dict(SMALL_LT, val_per_class=5, pretrain_steps=5)


class Later(NamedTuple):
    """An argument built inside the mutated call: building it may be what raises."""

    build: Callable


LAGRANGE_MUTATIONS = [
    ("lam NaN", dict(lam=np.full(K, NAN))),
    ("lam negative", dict(lam=np.array([-1.0, 1.0, 1.0]))),
    ("lam shape", dict(lam=LAM[:, None])),
    ("lam K", dict(lam=np.full(K + 1, 1.0 / (K + 1)))),
    ("head_set K", dict(spec=OUT_OF_RANGE_HEAD)),
    ("priors shape", dict(c=Later(lambda: ConfusionMatrix(C.entries, C.priors[:, None])))),
]
MODEL_MUTATIONS = [
    ("model K=4", dict(model=MODEL4)),
    ("model K=2", dict(model=MODEL2)),
    ("model d", dict(model=WIDE)),
    ("data K", dict(features=VAL4)),
]

# entry name: (valid keyword arguments, [(label, mutated arguments), ...])
TABLE = {
    "MetricSpec": (dict(kind="min_recall"), [
        ("kind", dict(kind="median_recall")),
        ("omega NaN", dict(omega=NAN)),
        ("omega array", dict(omega=ARRAY)),
        ("tau array", dict(tau=ARRAY)),
        ("alpha NaN", dict(alpha=NAN)),
        ("lambda_max NaN", dict(lambda_max=NAN)),
        ("tau NaN", dict(tau=NAN)),
        ("tau negative", dict(tau=-1.0)),
        ("head_set float", dict(kind="min_recall_head_tail", head_set=(0.5,))),
        ("head_set negative", dict(kind="min_recall_head_tail", head_set=(-1,))),
    ]),
    "confusion_from_predictions": (dict(labels=LABELS, predictions=LABELS, num_classes=K), [
        ("num_classes float", dict(num_classes=2.5)),
        ("num_classes negative", dict(num_classes=-1)),
        ("num_classes K", dict(num_classes=K - 1)),
        ("labels 2-D", dict(labels=LABELS.reshape(2, -1), predictions=LABELS.reshape(2, -1))),
        ("predictions shape", dict(predictions=LABELS[:-1])),
        ("labels NaN", dict(labels=np.where(LABELS == 0, NAN, LABELS))),
        ("predictions float", dict(predictions=LABELS + 0.5)),
    ]),
    "evaluate_metric": (dict(spec=SPEC, c=C, lam=LAM), LAGRANGE_MUTATIONS),
    "metric_grad_unconstrained": (dict(spec=SPEC, c=C, lam=LAM), LAGRANGE_MUTATIONS),
    "neutral_lagrange": (dict(spec=SPEC, k=K), [
        ("k float", dict(k=2.5)),
        ("k negative", dict(k=-1)),
        ("k NaN", dict(k=NAN)),
    ]),
    "unconstrained_to_confusion": (dict(c_tilde=np.zeros((K, K)), priors=np.full(K, 1 / K)), [
        ("priors K", dict(priors=np.full(K + 1, 1 / (K + 1)))),
        ("priors shape", dict(priors=np.full((K, 1), 1 / K))),
        ("priors NaN", dict(priors=np.full(K, NAN))),
        ("priors negative", dict(priors=np.array([-0.2, 0.6, 0.6]))),
        ("c_tilde NaN", dict(c_tilde=np.full((K, K), NAN))),
        ("c_tilde shape", dict(c_tilde=np.zeros(K))),
    ]),
    "update_lagrange": (dict(spec=SPEC, c=C), [
        ("head_set K", dict(spec=OUT_OF_RANGE_HEAD)),
        ("head_set every class", dict(spec=MetricSpec("min_recall_head_tail",
                                                      head_set=tuple(range(K))))),
    ]),
    "model_confusion": (dict(model=MODEL, features=VAL), MODEL_MUTATIONS),
    "soft_confusion": (dict(model=MODEL, features=VAL), MODEL_MUTATIONS),
    "LTSpec": (SMALL_LT, [
        ("K float", dict(K=3.5)),
        ("K=1", dict(K=1)),
        ("d negative", dict(d=-1)),
        ("N1 float", dict(N1=2.5)),
        ("seed float", dict(seed=0.5)),
        ("seed negative", dict(seed=-1)),
        ("rho NaN", dict(rho=NAN)),
        ("rho array", dict(rho=ARRAY)),
        ("within_std NaN", dict(within_std=NAN)),
        ("cluster_separation array", dict(cluster_separation=ARRAY)),
        ("cluster_separation NaN", dict(cluster_separation=NAN)),
    ]),
    "generate_longtail": (dict(spec=LTSpec(**SMALL_LT)), [
        ("within_std overflows", dict(spec=LTSpec(**SMALL_LT, within_std=1e308))),
        ("rho NaN", dict(spec=Later(lambda: LTSpec(**dict(SMALL_LT, rho=NAN))))),
    ]),
    "LinearModel": (dict(weights=np.eye(D, K)), [
        ("NaN", dict(weights=np.full((D, K), NAN))),
        ("1-D", dict(weights=np.ones(D))),
        ("3-D", dict(weights=np.ones((1, D, K)))),
        ("K=1", dict(weights=np.ones((D, 1)))),
    ]),
    "class_centroids": (dict(features=VAL), [
        ("data K", dict(features=VAL4)),
        ("no rows", dict(features=FeatureDataset(np.zeros((0, D)), np.zeros(0), K))),
    ]),
    "gain_fd_oracle": (dict(model=MODEL, features=VAL, spec=SPEC, lam=LAM, centroids=CENTS,
                            i=0, j=1, beta_bar=0.75), [
        ("i out of range", dict(i=7)),
        ("i float", dict(i=0.5)),
        ("i negative", dict(i=-1)),
        ("j K", dict(j=K)),
        ("beta_bar NaN", dict(beta_bar=NAN)),
        ("beta_bar array", dict(beta_bar=ARRAY)),
        ("eta NaN", dict(eta=NAN)),
        ("eta array", dict(eta=ARRAY)),
        ("eta negative", dict(eta=-1.0)),
        ("model K=4", dict(model=MODEL4)),
        ("data K", dict(features=VAL4)),
        ("centroids K", dict(centroids=CentroidSet(np.eye(K + 1, D)))),
        ("centroids d", dict(centroids=CentroidSet(np.eye(K, D + 1)))),
        ("lam NaN", dict(lam=np.full(K, NAN))),
    ]),
    "gain_matrix": (dict(model=MODEL, centroids=CENTS, c=C, spec=SPEC, lam=LAM, beta_bar=0.75), [
        ("model K=4", dict(model=MODEL4)),
        ("model d", dict(model=WIDE)),
        ("centroids K", dict(centroids=CentroidSet(np.eye(K + 1, D)))),
        ("centroids d", dict(centroids=CentroidSet(np.eye(K, D + 1)))),
        ("confusion K", dict(c=C4)),
        ("beta_bar NaN", dict(beta_bar=NAN)),
        ("beta_bar array", dict(beta_bar=ARRAY)),
        ("lam NaN", dict(lam=np.full(K, NAN))),
        ("lam K", dict(lam=np.full(K + 1, 1.0 / (K + 1)))),
    ]),
    "OnlineGameConfig": (dict(K=K, T=20), [
        ("K float", dict(K=2.5)),
        ("T negative", dict(T=-1)),
        ("seed float", dict(seed=0.5)),
        ("s NaN", dict(s=NAN)),
        ("s array", dict(s=ARRAY)),
        ("fixed_pair float", dict(fixed_pair=(0.5, 0))),
    ]),
    "run_online_game": (dict(cfg=OnlineGameConfig(K=K, T=20)), [
        ("fixed_pair K", dict(cfg=OnlineGameConfig(K=K, T=20, policy_kind="fixed",
                                                   fixed_pair=(K, 0)))),
        ("s NaN", dict(cfg=Later(lambda: OnlineGameConfig(K=K, T=20, s=NAN)))),
    ]),
    "make_benchmark": (dict(seed=0, setting=BenchmarkSetting(**SMALL_BENCH)), [
        ("seed float", dict(seed=0.5)),
        ("seed negative", dict(seed=-1)),
        *((f"{field} {value}", dict(setting=Later(
            lambda field=field, value=value: BenchmarkSetting(**{**SMALL_BENCH, field: value}))))
          for field, value in [("val_per_class", 2.5), ("val_per_class", -1),
                               ("pretrain_steps", 2.5), ("K", 3.5), ("rho", NAN),
                               ("within_std", NAN), ("logit_adjust", NAN)]),
        *((f"{field} array", dict(setting=Later(
            lambda field=field: BenchmarkSetting(**{**SMALL_BENCH, field: ARRAY}))))
          for field in ("rho", "logit_adjust")),
    ]),
    "refresh_pseudo_labels": (dict(model=MODEL, unlabeled=VAL), [
        ("model K=4", dict(model=MODEL4)),
        ("model K=2", dict(model=MODEL2)),
        ("model d", dict(model=WIDE)),
    ]),
    "run_selmix": (dict(config=TrainerConfig(SPEC, cycles=1, sgd_steps_per_cycle=2, batch_size=4),
                        train=VAL, unlabeled=None, validation=VAL, init=MODEL), [
        ("init K", dict(init=MODEL4)),
        ("init d", dict(init=WIDE)),
        ("validation K", dict(validation=VAL4)),
        ("cycles float", dict(config=Later(lambda: TrainerConfig(SPEC, cycles=2.5)))),
        ("lr NaN", dict(config=Later(lambda: TrainerConfig(SPEC, lr=NAN)))),
        *((f"{field} array", dict(config=Later(
            lambda field=field: TrainerConfig(SPEC, **{field: ARRAY}))))
          for field in ("lr", "s", "beta_min")),
        ("ssl without a pool", dict(config=TrainerConfig(SPEC, cycles=1, mode="ssl"))),
    ]),
    "convergence_check": (dict(K=K, d=D, alignment_c=0.5, T=100, seed=0), [
        ("T float", dict(T=100.5)),
        ("K float", dict(K=3.5)),
        ("d negative", dict(d=-1)),
        ("seed float", dict(seed=0.5)),
        ("alignment_c NaN", dict(alignment_c=NAN)),
        ("alignment_c array", dict(alignment_c=ARRAY)),
    ]),
    "mixup_regularization_check": (dict(K=K, d=D, alpha_beta=(2.0, 2.0), theta_scale=0.1, N=20,
                                        mc_pairs=50, seed=0), [
        ("K float", dict(K=2.5)),
        ("d float", dict(d=4.0)),
        ("N float", dict(N=20.5)),
        ("mc_pairs float", dict(mc_pairs=50.5)),
        ("seed float", dict(seed=0.5)),
        ("N negative", dict(N=-1)),
        ("alpha NaN", dict(alpha_beta=(NAN, 2.0))),
        ("alpha_beta shape", dict(alpha_beta=(2.0, 2.0, 2.0))),
        ("alpha_beta None", dict(alpha_beta=None)),
        ("alpha array", dict(alpha_beta=(ARRAY, 2.0))),
        ("theta_scale NaN", dict(theta_scale=NAN)),
        ("theta_scale array", dict(theta_scale=ARRAY)),
        ("w NaN", dict(w=np.full((K, K), NAN))),
        ("w K", dict(w=np.eye(K + 1))),
    ]),
    "data.balanced_validation": (dict(spec=LTSpec(**SMALL_LT), per_class=5), [
        ("per_class float", dict(per_class=2.5)),
        ("per_class negative", dict(per_class=-1)),
    ]),
    "trainer.pretrain_erm": (dict(train=VAL, steps=5), [
        ("steps float", dict(steps=2.5)),
        ("batch_size float", dict(batch_size=2.5)),
        ("steps negative", dict(steps=-1)),
        ("seed negative", dict(seed=-1)),
        ("lr NaN", dict(lr=NAN)),
        ("lr array", dict(lr=ARRAY)),
        ("logit_adjust array", dict(logit_adjust=ARRAY)),
    ]),
    "policy.selmix_distribution": (dict(g=GainMatrix(np.eye(K)), s=10.0), [
        ("s array", dict(s=ARRAY)),
    ]),
    "gain.gain_from_metric_grad": (dict(model=MODEL, centroids=CENTS, beta_bar=0.75,
                                        dgrad=metric_grad_unconstrained(SPEC, C, LAM)), [
        ("beta_bar array", dict(beta_bar=ARRAY)),
    ]),
    "classifier.direction_matrix": (dict(model=MODEL, centroids=CENTS, i=0, j=1, beta_bar=0.75), [
        ("beta_bar array", dict(beta_bar=ARRAY)),
    ]),
}


def entry(name: str):
    """The exported ``name``, or ``module.name`` in its submodule."""
    module, _, attr = name.rpartition(".")
    return getattr(importlib.import_module(f"selmix.{module}") if module else selmix, attr)


def call(name: str, changes: dict):
    kwargs = {**TABLE[name][0], **changes}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return entry(name)(**{key: value.build() if isinstance(value, Later) else value
                              for key, value in kwargs.items()})


def test_the_table_covers_every_export():
    errors = {"ConfigError", "DataError", "SelMixError"}
    assert {name for name in TABLE if "." not in name} == set(selmix.__all__) - errors


@pytest.mark.parametrize("name", sorted(TABLE))
def test_the_valid_call_succeeds(name):
    call(name, {})


@pytest.mark.parametrize("name, changes", [
    pytest.param(name, changes, id=f"{name}-{label}")
    for name, (_, mutations) in TABLE.items() for label, changes in mutations])
def test_a_mutated_call_raises_only_a_selmix_error(name, changes):
    with pytest.raises(SelMixError):
        call(name, changes)


def test_a_four_class_model_fits_a_three_class_set_only_by_its_predictions():
    # the table's K=4 model on VAL predicts no row as class 3, so only the
    # class-count check refuses it
    assert np.argmax(VAL.features @ MODEL4.weights, axis=1).max() < K
