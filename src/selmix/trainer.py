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

Within a cycle the policy, both pools and their class layouts are fixed, so
none of the draws depends on the weights.  The SGD block therefore runs in
blocks of whole steps, at most ``_BLOCK_ELEMENTS`` mixed entries each: a
block is one pair draw, one draw of element choices and one of betas, one
row gather per side (the labeled pool's class layout is built once per run,
the pseudo-labelled pool's once per cycle) and one mix, both
into two arrays the run allocates once, and one :func:`cosine_lr` call for
its rates; ``sgd_mixup_block`` then runs its steps in place on the cycle's
one weights array.  A generator's n-value draw yields the same values and
end state as n one-value draws, so blocks consume every stream exactly as
per-step draws do and the run is bitwise the same for any block size.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .classifier import (
    ArgmaxCarry,
    CentroidSet,
    LinearModel,
    class_centroids,
    mix_rows_inplace,
    predict,
    sgd_mixup_block,
    sgd_mixup_step,  # noqa: F401  (the benchmark's tracer wraps it here)
)
from .data import FeatureDataset
from .errors import SelMixError, check_integers, check_reals
from .gain import GainMatrix, gain_matrix
from .metrics import (
    ConfusionMatrix,
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
# At 1 << 17 a 100-step cycle at batch 64, d=16 (the reference run's) is one
# block, where 1 << 15 split it 32+32+32+4 and each block paid the draw,
# gather and mix overhead again.  Its largest fresh temporary, the (steps,
# 2, batch) element draw, is then 100 KiB, under glibc's 128 KiB mmap
# threshold; the gathered rows go into arrays allocated once per run.
_BLOCK_ELEMENTS = 1 << 17


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
        # n = 0 SGD steps is allowed: a pure evaluation pass that leaves the model alone
        check_integers(self, cycles=1, sgd_steps_per_cycle=0, batch_size=1, seed=0)
        check_reals(self, "lr", "s", "beta_min")
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
    final_confusion: ConfusionMatrix | None = None   # the final model's, on validation

    def to_jsonl(self) -> str:
        return "\n".join(r.to_json() for r in self.records) + "\n"


def cosine_lr(base: float, step, total: int):
    """Half-cosine ramp from base (step 0) to 0 (step == total).  ``step``
    may be an array of steps, as the SGD block passes them; each entry then
    equals the scalar call's value bit for bit."""
    steps = np.asarray(step)
    if total < 1 or not (steps.size and 0 <= steps.min() and steps.max() <= total):
        raise SelMixError("need 0 <= step <= total and total >= 1")
    return base * 0.5 * (1.0 + np.cos(np.pi * step / total))


def refresh_pseudo_labels(model: LinearModel, unlabeled: FeatureDataset,
                          carry: ArgmaxCarry | None = None) -> FeatureDataset:
    """``unlabeled`` with every label replaced by the argmax class of the
    row's logits (ties to the smallest index; ``carry`` as in
    :func:`predict`); the labels it had are never read."""
    return unlabeled.with_labels(predict(model, unlabeled, carry))


def pretrain_erm(
    train: FeatureDataset,
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
    block, and :func:`sgd_mixup_block` takes the steps.
    """
    check_integers(locals(), steps=0, batch_size=1, seed=0)
    check_reals(locals(), "lr", "logit_adjust")
    if steps and train.n == 0:
        raise SelMixError("pretrain needs a training set with at least one row")
    if not 0 <= lr < np.inf:
        raise SelMixError("pretrain lr must be nonnegative and finite")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E1F)))
    w = np.zeros((train.dim, train.num_classes))
    shift = None
    if logit_adjust:  # a class without rows gets logit -inf; its column of w stays zero
        present = train.class_counts() > 0
        shift = np.full(train.num_classes, -np.inf)
        with np.errstate(over="ignore", invalid="ignore"):
            shift[present] = logit_adjust * np.log(train.priors()[present])
        if not np.isfinite(shift[present]).all():
            raise SelMixError(f"pretrain logit adjustment {logit_adjust!r} makes a logit "
                              "shift non-finite")
    block = max(1, min(_BLOCK_ELEMENTS // (batch_size * train.dim), steps))
    rows = np.empty((block, batch_size, train.dim))    # every block gathers into it
    for done in range(0, steps, block):
        idx = rng.integers(0, train.n, size=(min(block, steps - done), batch_size))
        x = np.take(train.features, idx, axis=0, out=rows[:len(idx)], mode="clip")
        sgd_mixup_block(w, x, train.labels[idx], [lr] * len(idx), shift)
    return LinearModel(w)


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
    """Run the full fine-tuning loop and return (final model, history)."""
    k = validation.num_classes
    if np.any(validation.class_counts() == 0):
        missing = int(np.flatnonzero(validation.class_counts() == 0)[0])
        raise SelMixError(f"class {missing} absent from validation set")
    if config.mode == "ssl" and unlabeled is None:
        raise SelMixError("ssl mode requires an unlabeled set")
    for name, ds in (("train", train), ("validation", validation), ("unlabeled", unlabeled)):
        if ds is not None and ds.num_classes != k:
            raise SelMixError(f"{name} set has {ds.num_classes} classes, validation has {k}")
        if ds is not None and ds.dim != train.dim:
            raise SelMixError(f"{name} set has {ds.dim} features, train has {train.dim}")
    if init.classes != k or init.dim != train.dim:
        raise SelMixError("init model shape does not match the data")

    ss = np.random.SeedSequence(config.seed)
    pair_rng, beta_rng, elem_rng = (np.random.default_rng(s) for s in ss.spawn(3))

    model = init
    # frozen features: validation centroids never move, compute them once
    centroids: CentroidSet = class_centroids(validation)
    val_carry, pool_carry = ArgmaxCarry(), ArgmaxCarry()
    history = RunHistory()
    first = train.class_layout()
    second_pool, second = train, first
    formable = np.outer(first.count > 0, first.count > 0)   # ssl mode rebuilds it per cycle
    total_steps = max(config.cycles * config.sgd_steps_per_cycle, 1)
    spec = config.metric
    block = max(1, min(_BLOCK_ELEMENTS // (config.batch_size * train.dim),
                       config.sgd_steps_per_cycle))
    # every SGD block gathers and mixes its rows in these two arrays: fresh
    # block-sized arrays would each be mapped in and out by the allocator.
    # Every index is in range, and np.take's default mode="raise" would
    # first gather into a block-sized temporary of its own.
    side_a, side_b = np.empty((2, block, config.batch_size, train.dim))

    # gradient-input smoothing: half a count keeps collapsed prediction
    # columns visible to the reparameterized gradient (recorded metrics and
    # multipliers still use the exact confusion matrix)
    grad_floor = 0.5 / validation.n

    for t in range(1, config.cycles + 1):
        if config.mode == "ssl":
            second_pool = refresh_pseudo_labels(model, unlabeled, pool_carry)
            second = second_pool.class_layout()
            formable = np.outer(first.count > 0, second.count > 0)
        confusion = model_confusion(model, validation, val_carry)
        lam = update_lagrange(spec, confusion)
        psi = evaluate_metric(spec, confusion, lam)
        grad_input = confusion.with_floor(grad_floor)
        gains = gain_matrix(model, centroids, grad_input, spec, lam, config.beta_bar)
        policy = _cycle_policy(config, gains, formable)
        history.records.append(
            CycleRecord(
                t=t,
                psi=float(psi),
                recalls=confusion.recalls().tolist(),
                coverages=confusion.coverages().tolist(),
                lambdas=lam.tolist(),
                gain_max=float(gains.values.max()),
                gain_min=float(gains.values.min()),
                policy_entropy=policy.entropy(),
            )
        )

        weights = model.weights.copy()
        for done in range(0, config.sgd_steps_per_cycle, block):
            steps = min(block, config.sgd_steps_per_cycle - done)
            y1, y2 = (y.reshape(steps, config.batch_size)
                      for y in sample_pairs(policy, pair_rng, steps * config.batch_size))
            u = elem_rng.random((steps, 2, config.batch_size))
            betas = beta_rng.uniform(config.beta_min, 1.0, size=(steps, config.batch_size))
            mixed = mix_rows_inplace(
                np.take(train.features, first.rows(y1, u[:, 0]), axis=0, out=side_a[:steps],
                        mode="clip"),
                np.take(second_pool.features, second.rows(y2, u[:, 1]), axis=0,
                        out=side_b[:steps], mode="clip"),
                betas,
            )
            lrs = [config.lr] * steps
            if config.lr_schedule == "cosine":
                start = (t - 1) * config.sgd_steps_per_cycle + done
                lrs = cosine_lr(config.lr, np.arange(start, start + steps), total_steps)
            sgd_mixup_block(weights, mixed, y1, lrs)
            history.sgd_steps += steps
        model = LinearModel(weights)

    final_conf = history.final_confusion = model_confusion(model, validation, val_carry)
    history.final_psi = float(
        evaluate_metric(spec, final_conf, update_lagrange(spec, final_conf))
    )
    return model, history
