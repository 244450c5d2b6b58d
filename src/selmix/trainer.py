"""Fine-tuning loop: validation pass, multiplier refresh, gain matrix,
pair-sampling policy, mixup SGD block, and pseudo-label refresh.

Each cycle measures the hard confusion matrix on the validation split,
refreshes the Lagrange multipliers from it, builds the gain matrix, and
turns it into the pair-sampling distribution.  The following n SGD steps
draw (Y1, Y2) from that distribution, pick X1 uniformly from the labeled
class-Y1 pool and X2 from the pseudo-labeled (ssl) or labeled (supervised)
class-Y2 pool, and descend the mixup loss at the scheduled learning rate.
Runs are bitwise deterministic for a given (config, seed): the root seed
spawns independent streams for pair sampling, beta draws, and batch element
choice, so toggling one consumer leaves the others unchanged.

Within a cycle the policy, both pools and their class layouts are fixed,
so none of the draws depends on the weights.  The SGD block therefore runs
in blocks of whole steps, at most ``_BLOCK_ELEMENTS`` mixed entries each: a
block is one pair draw, one draw of element choices and one of betas, one
row gather per side (``_class_layout`` lays the labeled pool out by class
once per run, the second pool once per cycle) and one mix.  Each step then
only computes logits, softmax and gradient and updates the weights.  A
generator's n-value draw yields the same values and end state as n
one-value draws, so blocks consume every stream exactly as per-step draws
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
    mix_features,
    predict,
    sgd_mixup_step,
    softmax,
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

MAX_PAIR_RESAMPLES = 100

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
    return unlabeled.with_labels(predict(model, unlabeled.features))


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
    are drawn a block of steps at a time, as in the SGD block.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E1F)))
    w = np.zeros((dim, num_classes))
    shift = logit_adjust * np.log(train.priors()) if logit_adjust else 0.0
    rows = np.arange(batch_size)
    block = max(1, _BLOCK_ELEMENTS // (batch_size * dim))
    for done in range(0, steps, block):
        for idx in rng.integers(0, train.n, size=(min(block, steps - done), batch_size)):
            x = train.features[idx]
            p = softmax(x @ w + shift, axis=1)
            p[rows, train.labels[idx]] -= 1.0
            w -= lr * (x.T @ p) / batch_size
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


def _draw_pairs(
    policy: MixPolicy,
    count: int,
    rng: np.random.Generator,
    first_nonempty: np.ndarray,
    second_nonempty: np.ndarray,
    history: RunHistory,
) -> tuple[np.ndarray, np.ndarray]:
    """Batch of (Y1, Y2) pairs with resampling when a drawn class pool is
    empty: Y1 retries are capped, Y2 retries (pseudo-label collapse) are
    counted and retried generously.  Draws needing a retry are redrawn in
    batch order, one pair at a time."""
    y1, y2 = sample_pairs(policy, rng, count)
    for n in np.flatnonzero(~(first_nonempty[y1] & second_nonempty[y2])):
        tries_first = 0
        tries_second = 0
        while not (first_nonempty[y1[n]] and second_nonempty[y2[n]]):
            if not first_nonempty[y1[n]]:
                tries_first += 1
                history.pair_resamples += 1
                if tries_first > MAX_PAIR_RESAMPLES:
                    raise SelMixError(f"class {y1[n]} has no labeled samples to mix")
            else:
                tries_second += 1
                history.pseudo_empty_resamples += 1
                if tries_second > 10 * MAX_PAIR_RESAMPLES:
                    raise SelMixError("pseudo-labeled pools collapsed; cannot draw a pair")
            y1[n : n + 1], y2[n : n + 1] = sample_pairs(policy, rng, 1)
    return y1, y2


def _draw_block(
    policy: MixPolicy,
    steps: int,
    batch: int,
    rng: np.random.Generator,
    first_nonempty: np.ndarray,
    second_nonempty: np.ndarray,
    history: RunHistory,
) -> tuple[np.ndarray, np.ndarray]:
    """(Y1, Y2) for up to ``steps`` batches, each of shape (m, batch), m >= 1.

    One draw serves the whole block unless a drawn cell has an empty pool.
    Then the generator is rewound and the block redrawn batch by batch
    through :func:`_draw_pairs`, whose retries take the uniforms after
    their own batch, as per-step draws do.  A batch that runs out of retries
    ends the block before it, with the generator rewound to it, so it fails
    as the next block's first batch, after the steps before it have run.
    """
    start = rng.bit_generator.state
    y1, y2 = sample_pairs(policy, rng, steps * batch)
    if (first_nonempty[y1] & second_nonempty[y2]).all():
        return y1.reshape(steps, batch), y2.reshape(steps, batch)
    rng.bit_generator.state = start
    y1, y2 = np.empty((2, steps, batch), dtype=np.intp)
    for n in range(steps):
        start = rng.bit_generator.state
        try:
            y1[n], y2[n] = _draw_pairs(
                policy, batch, rng, first_nonempty, second_nonempty, history
            )
        except SelMixError:
            if n == 0:
                raise
            rng.bit_generator.state = start
            return y1[:n], y2[:n]
    return y1, y2


def _cycle_policy(cfg: TrainerConfig, gains: GainMatrix, formable: np.ndarray) -> MixPolicy:
    if cfg.policy == "uniform":
        return uniform_distribution(gains.values.shape[0])
    if cfg.policy == "greedy":
        return greedy_distribution(gains, formable)
    return selmix_distribution(gains, cfg.s, cfg.mask_negative)


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
    second_pool = train
    if config.mode == "ssl":
        second_pool = refresh_pseudo_labels(model, unlabeled)

    history = RunHistory()
    first = _class_layout(train)
    total_steps = max(config.cycles * config.sgd_steps_per_cycle, 1)
    spec = config.metric
    global_step = 0
    block = max(1, _BLOCK_ELEMENTS // (config.batch_size * train.dim))

    # gradient-input smoothing: half a count keeps collapsed prediction
    # columns visible to the reparameterized gradient (recorded metrics and
    # multipliers still use the exact confusion matrix)
    grad_floor = 0.5 / validation.n

    for t in range(1, config.cycles + 1):
        confusion = model_confusion(model, validation)
        lam = update_lagrange(spec, confusion)
        psi = evaluate_metric(spec, confusion, lam)
        grad_input = confusion.with_floor(grad_floor)
        gains = gain_matrix(model, centroids, grad_input, spec, lam, config.beta_bar)
        second = _class_layout(second_pool)
        first_nonempty, second_nonempty = first.count > 0, second.count > 0
        policy = _cycle_policy(config, gains, np.outer(first_nonempty, second_nonempty))
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

        done = 0
        while done < config.sgd_steps_per_cycle:
            y1, y2 = _draw_block(
                policy, min(block, config.sgd_steps_per_cycle - done), config.batch_size,
                pair_rng, first_nonempty, second_nonempty, history,
            )
            steps = y1.shape[0]
            u = elem_rng.random((steps, 2, config.batch_size))
            betas = beta_rng.uniform(config.beta_min, 1.0, size=(steps, config.batch_size))
            mixed = mix_features(
                train.features[first.rows(y1, u[:, 0])],
                second_pool.features[second.rows(y2, u[:, 1])],
                betas,
            )
            for n in range(steps):
                lr = config.lr
                if config.lr_schedule == "cosine":
                    lr = cosine_lr(config.lr, global_step, total_steps)
                model = sgd_mixup_step(model, mixed[n], y1[n], lr)
                global_step += 1
            done += steps
            history.sgd_steps += steps

        if config.mode == "ssl":
            second_pool = refresh_pseudo_labels(model, unlabeled)

    final_conf = model_confusion(model, validation)
    history.final_psi = float(
        evaluate_metric(spec, final_conf, update_lagrange(spec, final_conf))
    )
    history.wall_ms_total = (time.perf_counter() - started) * 1000.0
    return model, history
