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

from .classifier import softmax
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
        """CDF of the row-major cells, built once for :func:`sample_pairs`."""
        return np.cumsum(self.probs.reshape(-1))

    def entropy(self) -> float:
        p = self.probs[self.probs > 0]
        return float(-(p * np.log(p)).sum())


def selmix_distribution(g: GainMatrix, s: float, mask_negative: bool = True) -> MixPolicy:
    """softmax(s * G) over pairs, optionally restricted to nonnegative gains.

    If masking leaves nothing (every gain negative) the softmax falls back
    to the full matrix so the least-bad pairs still dominate.
    """
    if s < 0:
        raise SelMixError("s must be nonnegative")
    values = g.values
    keep = values >= 0.0
    if not (mask_negative and keep.any()):
        keep = np.ones_like(values, dtype=bool)
    scaled = np.where(keep, s * values, -np.inf)
    flat = scaled.reshape(-1)
    shifted = flat - flat.max()
    e = np.where(np.isneginf(shifted), 0.0, np.exp(shifted))
    return MixPolicy((e / e.sum()).reshape(values.shape))


def greedy_distribution(g: GainMatrix, formable: np.ndarray | None = None) -> MixPolicy:
    """One-hot on the argmax gain; ties go to the smallest (i, j) row-major.

    ``formable`` (K x K bool) restricts the argmax to pairs that can be drawn.
    """
    k = g.values.shape[0]
    values = g.values if formable is None else np.where(formable, g.values, -np.inf)
    probs = np.zeros(k * k)
    probs[int(np.argmax(values))] = 1.0
    return MixPolicy(probs.reshape(k, k))


def uniform_distribution(k: int) -> MixPolicy:
    return MixPolicy(np.full((k, k), 1.0 / (k * k)))


def sample_pairs(
    policy: MixPolicy, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` inverse-CDF draws over the row-major cells, one uniform
    each; returns the (i, j) index arrays."""
    flat = np.searchsorted(policy.cdf, rng.random(count), side="right")
    return np.divmod(np.minimum(flat, policy.cdf.size - 1), policy.probs.shape[1])


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
        if self.policy_kind not in POLICY_KINDS:
            raise SelMixError(f"unknown policy kind {self.policy_kind!r}")
        if self.gain_generator not in GAIN_GENERATORS:
            raise SelMixError(f"unknown gain generator {self.gain_generator!r}")
        if not 0 < self.s < np.inf:
            raise SelMixError("s must be positive and finite")


def _generate_gains(cfg: OnlineGameConfig, rng: np.random.Generator) -> np.ndarray:
    """Synthetic gain sequences, shape (T, K, K), all values in [0, 1]
    except ``spiky`` which deliberately overshoots to exercise clamping.

    ``anticorrelated`` pays 1 in each round to the m = max(1, K²//2) cells
    with the lowest cumulative gain so far, ties going to the lower
    row-major index, and 0 to the rest.  With that tie-break the rule is a
    round-robin over the row-major cells, built here in closed form: round t
    pays cells (t·m + j) mod K² for j < m.
    """
    t, k = cfg.T, cfg.K
    if cfg.gain_generator == "constant":
        return np.full((t, k, k), 0.5)
    if cfg.gain_generator == "iid_uniform":
        return rng.random((t, k, k))
    if cfg.gain_generator == "alternating":
        steps = np.arange(t)[:, None, None]
        cells = (np.arange(k)[:, None] + np.arange(k)[None, :])[None, :, :]
        return ((steps + cells) % 2).astype(np.float64)
    if cfg.gain_generator == "anticorrelated":
        # offset of each cell past round t's first paid cell, t·m mod K²
        cells = k * k
        m = max(1, cells // 2)
        offset = (np.arange(cells) - m * np.arange(t)[:, None]) % cells
        return (offset < m).astype(np.float64).reshape(t, k, k)
    # spiky: iid in [-2, 2], out of range on purpose
    return rng.random((t, k, k)) * 4.0 - 2.0


def _policy_sequence(cfg: OnlineGameConfig, gains: np.ndarray) -> np.ndarray:
    """Per-round pair distributions, shape (T, K*K)."""
    t, k = cfg.T, cfg.K
    cells = k * k
    flat = gains.reshape(t, cells)
    if cfg.policy_kind == "uniform":
        return np.full((t, cells), 1.0 / cells)
    if cfg.policy_kind == "fixed":
        i, j = cfg.fixed_pair
        if not (0 <= i < k and 0 <= j < k):
            raise SelMixError("fixed pair out of range")
        probs = np.zeros((t, cells))
        probs[:, i * k + j] = 1.0
        return probs
    if cfg.policy_kind == "greedy":
        probs = np.zeros((t, cells))
        probs[np.arange(t), np.argmax(flat, axis=1)] = 1.0
        return probs
    scores = np.empty((t, cells))
    if cfg.policy_kind == "selmix_hedge":
        np.cumsum(flat, axis=0, out=scores)       # includes the current round
        scores *= cfg.s
    else:
        s_var = np.log(1.0 + 2.0 * np.sqrt(np.log(max(k, 2)) / t))
        scores[0] = 0.0
        np.cumsum(flat[:-1], axis=0, out=scores[1:])
        scores *= s_var                           # Hedge: past rounds only
    return softmax(scores, axis=1)


def run_online_game(cfg: OnlineGameConfig) -> dict:
    """Play one seeded game and report measured regret against the bound.

    Gains outside the admissible range ([0, 1] for the variant policy,
    [-1, 1] otherwise) are clamped and counted in ``clamped_rounds``.
    """
    gen_ss, play_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    gains = _generate_gains(cfg, np.random.default_rng(gen_ss))
    lo = 0.0 if cfg.policy_kind == "selmix_hedge_variant" else -1.0
    flat = gains.reshape(cfg.T, -1)
    clamped_rounds = int(((flat.min(axis=1) < lo) | (flat.max(axis=1) > 1.0)).sum())
    np.clip(flat, lo, 1.0, out=flat)

    probs = _policy_sequence(cfg, gains)
    avg_expected = float((probs * flat).sum(axis=1).mean())
    rng = np.random.default_rng(play_ss)
    # row-wise inverse-CDF sampling of one cell per round; ``<=`` is
    # searchsorted's side="right", the rule of :func:`sample_pairs`
    cdf = np.cumsum(probs, axis=1, out=probs)
    u = rng.random(cfg.T)
    chosen = np.minimum((cdf <= u[:, None]).sum(axis=1), flat.shape[1] - 1)
    realized = flat[np.arange(cfg.T), chosen]

    avg_policy = float(realized.mean())
    avg_best_fixed = float(flat.mean(axis=0).max())
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
