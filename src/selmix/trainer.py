"""Fine-tuning loop: validation pass, multiplier refresh, gain matrix,
pair-sampling policy, mixup SGD block, and pseudo-label refresh.

Each cycle measures the hard confusion matrix on the validation split,
refreshes the Lagrange multipliers from it, builds the gain matrix, and
turns it into the pair-sampling distribution, conditioned on the formable
pairs: those whose labeled class-Y1 pool and second class-Y2 pool are both
nonempty.  The following n SGD steps draw (Y1, Y2) from that distribution,
pick X1 uniformly from the labeled class-Y1 pool and X2 from the
pseudo-labeled (ssl) or labeled (supervised) class-Y2 pool, and descend the
mixup loss at the scheduled learning rate.  Runs are bitwise deterministic
for a given (config, seed): the root seed spawns independent streams for
pair sampling, beta draws, and batch element choice, so toggling one
consumer leaves the others unchanged.

Within a cycle the policy, both pools and their class layouts are fixed,
so none of the draws depends on the weights.  The SGD block therefore runs
in blocks of whole steps, at most ``_BLOCK_ELEMENTS`` mixed entries each: a
block is one pair draw, one draw of element choices and one of betas, one
row gather per side (``_class_layout`` lays the labeled pool out by class
once per run, the pseudo-labelled pool once per cycle) and one mix, and
``sgd_mixup_block`` then runs its steps in place on the cycle's one weights
array.  A generator's n-value draw yields the same values and end state as
n one-value draws, so blocks consume every stream exactly as per-step draws
do and the run is bitwise the same for any block size.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .classifier import (
    CentroidSet,
    LinearModel,
    class_centroids,
    label_cells,
    mix_features,
    predict,
    sgd_mixup_block,
    sgd_mixup_step,  # noqa: F401  (the benchmark's tracer wraps it here)
    softmax,  # noqa: F401  (tests reach it here)
    softmax_rows_inplace,
)
from .data import FeatureDataset
from .errors import SelMixError
from .gain import GainMatrix, gain_matrix
from .metrics import (
    MetricSpec,
    evaluate_metric,
    model_confusion,
    update_lagrange,
)
from .policy import (
    MixPolicy,
    greedy_distribution,
    sample_pairs,
    selmix_distribution,
    uniform_distribution,
)

# Mixed feature entries (steps x batch x d) drawn and gathered at once.
_BLOCK_ELEMENTS = 1 << 15


@dataclass(frozen=True)
class TrainerConfig:
    """Knobs of one fine-tuning run.

    Defaults follow the published recipe: gain scaling s = 10, batch 64,
    cosine schedule; sgd_steps_per_cycle = 50 matches the one-validation-
    every-50-steps cadence.  ``policy`` swaps the sampling distribution for
    the uniform or greedy baseline while keeping everything else fixed.
    """

    metric: MetricSpec
    cycles: int = 50
    sgd_steps_per_cycle: int = 50
    batch_size: int = 64
    lr: float = 0.2
    lr_schedule: str = "cosine"
    s: float = 10.0
    beta_min: float = 0.5
    mode: str = "supervised"
    seed: int = 0
    mask_negative: bool = True
    policy: str = "selmix"

    def __post_init__(self):
        if self.cycles < 1:
            raise SelMixError("cycles must be >= 1")
        # n = 0 is allowed: a pure evaluation pass that leaves the model alone
        if self.sgd_steps_per_cycle < 0:
            raise SelMixError("sgd_steps_per_cycle must be >= 0")
        if self.batch_size < 1:
            raise SelMixError("batch_size must be >= 1")
        if not 0 <= self.lr < np.inf:
            raise SelMixError("lr must be nonnegative and finite")
        if self.lr_schedule not in ("constant", "cosine"):
            raise SelMixError("lr_schedule must be 'constant' or 'cosine'")
        if not 0.0 <= self.beta_min <= 1.0:
            raise SelMixError("beta_min must lie in [0, 1]")
        if self.mode not in ("supervised", "ssl"):
            raise SelMixError("mode must be 'supervised' or 'ssl'")
        if self.policy not in ("selmix", "uniform", "greedy"):
            raise SelMixError("policy must be 'selmix', 'uniform', or 'greedy'")
        if not 0 < self.s < np.inf:
            raise SelMixError("s must be positive and finite")
        if self.seed < 0:
            raise SelMixError("seed must be >= 0")

    @property
    def beta_bar(self) -> float:
        """Deterministic representative of beta ~ U[beta_min, 1]."""
        return 0.5 * (1.0 + self.beta_min)


@dataclass
class CycleRecord:
    t: int
    psi: float
    recalls: list[float]
    coverages: list[float]
    lambdas: list[float]
    gain_max: float
    gain_min: float
    policy_entropy: float
    wall_ms: float

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass
class RunHistory:
    records: list[CycleRecord] = field(default_factory=list)
    sgd_steps: int = 0
    # always 0: pairs are drawn from formable cells only, so nothing is
    # redrawn; kept while the benchmark tracer still reads them
    pair_resamples: int = 0
    pseudo_empty_resamples: int = 0
    final_psi: float = float("nan")
    wall_ms_total: float = 0.0

    def to_jsonl(self) -> str:
        return "\n".join(r.to_json() for r in self.records) + "\n"


def cosine_lr(base: float, step: int, total: int) -> float:
    """Half-cosine ramp from base (step 0) to 0 (step == total)."""
    if total < 1 or not 0 <= step <= total:
        raise SelMixError("need 0 <= step <= total and total >= 1")
    return base * 0.5 * (1.0 + np.cos(np.pi * step / total))


def refresh_pseudo_labels(model: LinearModel, unlabeled: FeatureDataset) -> FeatureDataset:
    """Assign every sample the argmax class of its logits (ties to the
    smallest index) and rebuild the per-class index sets."""
    return unlabeled.with_labels(predict(model, unlabeled))


def pretrain_erm(
    train: FeatureDataset,
    dim: int,
    num_classes: int,
    steps: int = 300,
    lr: float = 0.5,
    batch_size: int = 64,
    seed: int = 0,
    logit_adjust: float = 0.0,
) -> LinearModel:
    """Softmax-CE SGD warm start on the (imbalanced) training split.

    With ``logit_adjust=0`` this is plain ERM and yields the head-biased
    classifier the fine-tuning stage is meant to repair.  A positive value
    adds that multiple of log class priors to the logits inside the loss
    (logit-adjusted training), giving the debiased starting point the
    fine-tuning recipe assumes.  Deterministic given seed.  Batch indices
    are drawn, and rows gathered, a block of steps at a time, as in the SGD
    block; each step then works in place.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E1F)))
    w = np.zeros((dim, num_classes))
    shift = 0.0
    if logit_adjust:  # a class without rows gets logit -inf; its column of w stays zero
        present = train.class_counts() > 0
        shift = np.full(num_classes, -np.inf)
        shift[present] = logit_adjust * np.log(train.priors()[present])
    block = max(1, _BLOCK_ELEMENTS // (batch_size * dim))
    p, col, grad = np.empty((batch_size, num_classes)), np.empty((batch_size, 1)), np.empty_like(w)
    for done in range(0, steps, block):
        idx = rng.integers(0, train.n, size=(min(block, steps - done), batch_size))
        for x, c in zip(train.features[idx], label_cells(train.labels[idx], num_classes)):
            np.matmul(x, w, out=p)
            p += shift
            softmax_rows_inplace(p, col)
            p.reshape(-1)[c] -= 1.0
            np.matmul(x.T, p, out=grad)       # w -= lr * (x.T @ p) / batch_size
            grad *= lr
            grad /= batch_size
            w -= grad
    return LinearModel(w)


class _ClassLayout(NamedTuple):
    """CSR-style class-row index of one pool.

    The rows of class k are ``order[start[k]:start[k] + count[k]]`` in
    ascending row order; rows labelled -1 (unassigned pseudo slots) sort
    first and belong to no class.
    """

    order: np.ndarray
    start: np.ndarray
    count: np.ndarray

    def rows(self, y: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Row per draw: the int(u * count[y])-th row of class y, u in [0, 1)."""
        return self.order[self.start[y] + (u * self.count[y]).astype(np.intp)]


def _class_layout(pool: FeatureDataset) -> _ClassLayout:
    order = np.argsort(pool.labels, kind="stable")
    count = pool.class_counts()
    start = pool.n - count.sum() + np.cumsum(count) - count
    return _ClassLayout(order, start, count)


def _cycle_policy(cfg: TrainerConfig, gains: GainMatrix, formable: np.ndarray) -> MixPolicy:
    if cfg.policy == "uniform":
        return uniform_distribution(gains.values.shape[0], formable)
    if cfg.policy == "greedy":
        return greedy_distribution(gains, formable)
    return selmix_distribution(gains, cfg.s, cfg.mask_negative, formable)


def run_selmix(
    config: TrainerConfig,
    train: FeatureDataset,
    unlabeled: FeatureDataset | None,
    validation: FeatureDataset,
    init: LinearModel,
) -> tuple[LinearModel, RunHistory]:
    """Run the full fine-tuning loop and return (final model, history).

    The recorded wall_ms field is kept at 0.0 so history files are byte
    reproducible across runs; real timing goes to ``history.wall_ms_total``
    only.
    """
    k = validation.num_classes
    if np.any(validation.class_counts() == 0):
        missing = int(np.flatnonzero(validation.class_counts() == 0)[0])
        raise SelMixError(f"class {missing} absent from validation set")
    if config.mode == "ssl" and unlabeled is None:
        raise SelMixError("ssl mode requires an unlabeled set")
    if init.classes != k or init.dim != train.dim:
        raise SelMixError("init model shape does not match the data")

    started = time.perf_counter()
    ss = np.random.SeedSequence(config.seed)
    pair_rng, beta_rng, elem_rng = (np.random.default_rng(s) for s in ss.spawn(3))

    model = init
    # frozen features: validation centroids never move, compute them once
    centroids: CentroidSet = class_centroids(validation)
    history = RunHistory()
    first = _class_layout(train)
    second_pool, second = train, first
    total_steps = max(config.cycles * config.sgd_steps_per_cycle, 1)
    spec = config.metric
    block = max(1, _BLOCK_ELEMENTS // (config.batch_size * train.dim))

    # gradient-input smoothing: half a count keeps collapsed prediction
    # columns visible to the reparameterized gradient (recorded metrics and
    # multipliers still use the exact confusion matrix)
    grad_floor = 0.5 / validation.n

    for t in range(1, config.cycles + 1):
        if config.mode == "ssl":
            second_pool = refresh_pseudo_labels(model, unlabeled)
            second = _class_layout(second_pool)
        confusion = model_confusion(model, validation)
        lam = update_lagrange(spec, confusion)
        psi = evaluate_metric(spec, confusion, lam)
        grad_input = confusion.with_floor(grad_floor)
        gains = gain_matrix(model, centroids, grad_input, spec, lam, config.beta_bar)
        policy = _cycle_policy(config, gains, np.outer(first.count > 0, second.count > 0))
        history.records.append(
            CycleRecord(
                t=t,
                psi=float(psi),
                recalls=[float(r) for r in confusion.recalls()],
                coverages=[float(c) for c in confusion.coverages()],
                lambdas=[float(v) for v in lam.lambdas],
                gain_max=float(gains.values.max()),
                gain_min=float(gains.values.min()),
                policy_entropy=policy.entropy(),
                wall_ms=0.0,
            )
        )

        weights = model.weights.copy()
        for done in range(0, config.sgd_steps_per_cycle, block):
            steps = min(block, config.sgd_steps_per_cycle - done)
            pairs = sample_pairs(policy, pair_rng, steps * config.batch_size)
            y1, y2 = np.reshape(pairs, (2, steps, config.batch_size))
            u = elem_rng.random((steps, 2, config.batch_size))
            betas = beta_rng.uniform(config.beta_min, 1.0, size=(steps, config.batch_size))
            mixed = mix_features(
                train.features[first.rows(y1, u[:, 0])],
                second_pool.features[second.rows(y2, u[:, 1])],
                betas,
            )
            lrs = [config.lr] * steps
            if config.lr_schedule == "cosine":
                start = (t - 1) * config.sgd_steps_per_cycle + done
                lrs = [cosine_lr(config.lr, start + n, total_steps) for n in range(steps)]
            sgd_mixup_block(weights, mixed, y1, lrs)
            history.sgd_steps += steps
        model = LinearModel(weights)

    final_conf = model_confusion(model, validation)
    history.final_psi = float(
        evaluate_metric(spec, final_conf, update_lagrange(spec, final_conf))
    )
    history.wall_ms_total = (time.perf_counter() - started) * 1000.0
    return model, history
