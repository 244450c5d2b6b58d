"""Sampling policies over class pairs and the online-game regret simulator.

The sampling distribution is the scaled softmax of the gain matrix with
negative entries masked out; greedy (argmax) and uniform are its s -> inf
and s = 0 limits.  The simulator plays these policies against synthetic gain
sequences and reports measured average regret against the best fixed pair
in hindsight, together with the proved bound: 2 log K / (s T) when the
cumulative sum includes the current round's observed gains, and
2 sqrt(log K) / sqrt(T) for the Hedge-style variant that only uses past
rounds (its temperature is then log(1 + 2 sqrt(log K / T))).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .classifier import softmax, softmax_rows_inplace
from .errors import SelMixError
from .gain import GainMatrix

POLICY_KINDS = ("selmix_hedge", "selmix_hedge_variant", "uniform", "fixed", "greedy")
GAIN_GENERATORS = ("constant", "iid_uniform", "alternating", "anticorrelated", "spiky")


@dataclass(frozen=True)
class MixPolicy:
    """Probability distribution over the K x K class pairs."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        object.__setattr__(self, "probs", p)
        if p.ndim != 2 or p.shape[0] != p.shape[1]:
            raise SelMixError("policy must be a square matrix")
        if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
            raise SelMixError("policy entries must be nonnegative and sum to 1")

    @cached_property
    def cdf(self) -> np.ndarray:
        """CDF of the row-major cells, built once for :func:`sample_pairs`;
        exactly 1 from the last cell with mass on, so no uniform in [0, 1)
        draws a zero-mass cell when the sum rounds below 1."""
        flat = self.probs.reshape(-1)
        cdf = np.cumsum(flat)
        cdf[np.flatnonzero(flat)[-1]:] = 1.0
        return cdf

    def entropy(self) -> float:
        p = self.probs[self.probs > 0]
        return float(-(p * np.log(p)).sum())


def _formable_cells(k: int, formable: np.ndarray | None) -> np.ndarray:
    """``formable`` as a bool matrix (every pair when None); raises when
    no pair is formable."""
    if formable is None:
        return np.ones((k, k), dtype=bool)
    formable = np.asarray(formable, dtype=bool)
    if not formable.any():
        raise SelMixError("no class pair can be formed: every pair has an empty pool")
    return formable


def selmix_distribution(g: GainMatrix, s: float, mask_negative: bool = True,
                        formable: np.ndarray | None = None) -> MixPolicy:
    """softmax(s * G) over the ``formable`` pairs (K x K bool, default all),
    optionally restricted to nonnegative gains: the unrestricted policy
    conditioned on the pairs that can be drawn.  If masking leaves no
    formable pair the softmax falls back to all formable pairs so the
    least-bad ones still dominate.
    """
    if s < 0:
        raise SelMixError("s must be nonnegative")
    values = g.values
    formable = _formable_cells(values.shape[0], formable)
    keep = formable & (values >= 0.0)
    if not (mask_negative and keep.any()):
        keep = formable
    scaled = np.where(keep, s * values, -np.inf)
    return MixPolicy(softmax(scaled.reshape(-1)).reshape(values.shape))


def greedy_distribution(g: GainMatrix, formable: np.ndarray | None = None) -> MixPolicy:
    """One-hot on the argmax gain; ties go to the smallest (i, j) row-major.

    ``formable`` (K x K bool) restricts the argmax to pairs that can be drawn.
    """
    k = g.values.shape[0]
    values = np.where(_formable_cells(k, formable), g.values, -np.inf)
    probs = np.zeros(k * k)
    probs[int(np.argmax(values))] = 1.0
    return MixPolicy(probs.reshape(k, k))


def uniform_distribution(k: int, formable: np.ndarray | None = None) -> MixPolicy:
    """Equal mass on every formable pair (every pair by default)."""
    keep = _formable_cells(k, formable)
    return MixPolicy(keep / keep.sum())


def sample_pairs(
    policy: MixPolicy, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` inverse-CDF draws over the row-major cells, one uniform
    each; returns the (i, j) index arrays."""
    flat = np.searchsorted(policy.cdf, rng.random(count), side="right")
    return np.divmod(flat, policy.probs.shape[1])


@dataclass(frozen=True)
class OnlineGameConfig:
    """One simulated online game against a synthetic gain sequence."""

    K: int
    T: int
    s: float = 10.0
    gain_generator: str = "iid_uniform"
    policy_kind: str = "selmix_hedge"
    seed: int = 0
    fixed_pair: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if self.K < 1 or self.T < 1:
            raise SelMixError("K and T must be >= 1")
        if self.seed < 0:
            raise SelMixError("seed must be >= 0")
        if self.policy_kind not in POLICY_KINDS:
            raise SelMixError(f"unknown policy kind {self.policy_kind!r}")
        if self.gain_generator not in GAIN_GENERATORS:
            raise SelMixError(f"unknown gain generator {self.gain_generator!r}")
        if not 0 < self.s < np.inf:
            raise SelMixError("s must be positive and finite")


# Rounds x cells per chunk of run_online_game: each float64 chunk array stays
# in L2 and under glibc's 128 KiB mmap threshold, so it is reused from the
# heap, not faulted in afresh.  The benchmark's 40-game grid (2 cores, numpy
# 2.4.6): 12000-16384 310-336 ms, 32768 342-381 ms with 10x the page faults.
_CHUNK_ELEMENTS = 16_000


def _generate_gains(cfg: OnlineGameConfig, rng: np.random.Generator,
                    t0: int = 0, t1: int | None = None) -> np.ndarray:
    """Synthetic gains of rounds t0..t1 (the whole horizon by default),
    shape (t1 - t0, K, K), all values in [0, 1] except ``spiky`` which
    deliberately overshoots to exercise clamping.  Drawing the horizon chunk
    by chunk from one generator gives the same gains as one draw.

    ``anticorrelated`` pays 1 in each round to the m = max(1, K²//2) cells
    with the lowest cumulative gain so far, ties going to the lower
    row-major index, and 0 to the rest.  With that tie-break the rule is a
    round-robin over the row-major cells, built here in closed form: round t
    pays cells (t·m + j) mod K² for j < m.
    """
    k = cfg.K
    rounds = np.arange(t0, cfg.T if t1 is None else t1)
    t = rounds.size
    if cfg.gain_generator == "constant":
        return np.full((t, k, k), 0.5)
    if cfg.gain_generator == "iid_uniform":
        return rng.random((t, k, k))
    if cfg.gain_generator == "alternating":
        # cell (i, j) pays (t + i + j) mod 2: one of two rows by t's parity
        parity = (np.arange(k)[:, None] + np.arange(k)) % 2
        return np.stack([parity, 1 - parity]).astype(np.float64)[rounds % 2]
    if cfg.gain_generator == "anticorrelated":
        # round t's row is the first one's, m ones then zeros, rotated right
        # by t·m mod K²: a window of two copies of that row side by side
        cells = k * k
        m = max(1, cells // 2)
        ring = np.tile(np.arange(cells) < m, 2).astype(np.float64)
        windows = np.lib.stride_tricks.sliding_window_view(ring, cells)
        return windows[cells - m * rounds % cells].reshape(t, k, k)
    # spiky: iid in [-2, 2], out of range on purpose
    return rng.random((t, k, k)) * 4.0 - 2.0


def _policy_sequence(cfg: OnlineGameConfig, flat: np.ndarray, cum: np.ndarray,
                     before: np.ndarray | None) -> np.ndarray:
    """Pair distributions of one chunk of rounds, shape (rows, K*K), from
    the chunk's clamped gains ``flat``, their running sums over the horizon
    ``cum`` (this round included; the hedge policies overwrite it) and the
    sum ``before`` of every earlier chunk's rounds (None for the first)."""
    rows, cells = flat.shape
    if cfg.policy_kind == "uniform":
        return np.full((rows, cells), 1.0 / cells)
    if cfg.policy_kind == "fixed":
        i, j = cfg.fixed_pair
        probs = np.zeros((rows, cells))
        probs[:, i * cfg.K + j] = 1.0
        return probs
    if cfg.policy_kind == "greedy":
        probs = np.zeros((rows, cells))
        probs[np.arange(rows), np.argmax(flat, axis=1)] = 1.0
        return probs
    if cfg.policy_kind == "selmix_hedge":
        cum *= cfg.s                              # includes the current round
    else:
        cum[1:] = cum[:-1]                        # Hedge: past rounds only
        cum[0] = 0.0 if before is None else before
        cum *= np.log(1.0 + 2.0 * np.sqrt(np.log(max(cfg.K, 2)) / cfg.T))
    softmax_rows_inplace(cum, np.empty((rows, 1)))
    return cum


def run_online_game(cfg: OnlineGameConfig) -> dict:
    """Play one seeded game and report measured regret against the bound.

    Gains outside the admissible range ([0, 1] for the variant policy,
    [-1, 1] otherwise) are clamped and counted in ``clamped_rounds``.

    Rounds are played in chunks of at most ``_CHUNK_ELEMENTS`` rounds x
    cells.  Every step is row-wise except the running sums, which carry the
    last row over as s[t] = s[t-1] + f[t], so the report equals
    whole-horizon play bit for bit.
    """
    k, t, cells = cfg.K, cfg.T, cfg.K * cfg.K
    if cfg.policy_kind == "fixed" and not all(0 <= v < k for v in cfg.fixed_pair):
        raise SelMixError("fixed pair out of range")
    gen_ss, play_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    gen_rng, play_rng = np.random.default_rng(gen_ss), np.random.default_rng(play_ss)
    lo = 0.0 if cfg.policy_kind == "selmix_hedge_variant" else -1.0
    step = max(1, _CHUNK_ELEMENTS // cells)
    expected, realized = np.empty(t), np.empty(t)
    clamped_rounds = 0
    total = None                                  # summed gains of the rounds played
    for t0 in range(0, t, step):
        t1 = min(t0 + step, t)
        rows = np.arange(t1 - t0)
        flat = _generate_gains(cfg, gen_rng, t0, t1).reshape(rows.size, cells)
        if flat.min() < lo or flat.max() > 1.0:      # count rows out of range only if any
            clamped_rounds += int(((flat.min(axis=1) < lo) | (flat.max(axis=1) > 1.0)).sum())
        np.clip(flat, lo, 1.0, out=flat)
        cum = flat.copy()
        if total is not None:
            cum[0] += total
        np.cumsum(cum, axis=0, out=cum)
        before, total = total, cum[-1].copy()

        probs = _policy_sequence(cfg, flat, cum, before)
        expected[t0:t1] = (probs * flat).sum(axis=1)
        # row-wise inverse-CDF sampling of one cell per round; ``<=`` is
        # searchsorted's side="right", the rule of :func:`sample_pairs`
        cdf = np.cumsum(probs, axis=1, out=probs)
        u = play_rng.random(rows.size)
        chosen = np.minimum((cdf <= u[:, None]).sum(axis=1), cells - 1)
        realized[t0:t1] = flat[rows, chosen]

    avg_expected = float(expected.mean())
    avg_policy = float(realized.mean())
    # numpy's mean over the rows of a (T, K²) array adds them in order, as
    # ``total`` did, but sums a single column pairwise: at K=1 that column
    # is every round's realized gain
    avg_best_fixed = avg_policy if cells == 1 else float((total / t).max())
    log_k = np.log(max(cfg.K, 2))
    if cfg.policy_kind == "selmix_hedge":
        bound = 2.0 * log_k / (cfg.s * cfg.T)
    elif cfg.policy_kind == "selmix_hedge_variant":
        bound = 2.0 * np.sqrt(log_k) / np.sqrt(cfg.T)
    else:
        bound = float("nan")
    return {
        "K": cfg.K,
        "T": cfg.T,
        "policy": cfg.policy_kind,
        "generator": cfg.gain_generator,
        "seed": cfg.seed,
        "avg_gain_policy": avg_policy,
        "avg_gain_policy_expected": avg_expected,
        "avg_gain_best_fixed": avg_best_fixed,
        "regret": avg_best_fixed - avg_policy,
        "regret_expected": avg_best_fixed - avg_expected,
        "bound": bound,
        "clamped_rounds": clamped_rounds,
    }
