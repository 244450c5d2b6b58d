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
from numbers import Integral

import numpy as np

from .classifier import softmax, softmax_rows_inplace
from .errors import SelMixError, check_integers, check_reals
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
        # positive comparisons, so a NaN entry fails them
        if not (np.all(p >= 0) and abs(p.sum() - 1.0) <= 1e-9):
            raise SelMixError("policy entries must be nonnegative and sum to 1")

    @cached_property
    def cdf(self) -> np.ndarray:
        """CDF of the row-major cells, built once for :func:`sample_pairs`;
        exactly 1 from the last cell with mass on and never above 1, so no
        uniform in [0, 1) draws a zero-mass cell when the sum rounds below
        1, and the CDF never decreases when a partial sum rounds above it."""
        flat = self.probs.reshape(-1)
        cdf = np.minimum(np.cumsum(flat), 1.0)
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
    check_reals(locals(), "s")
    if s < 0:
        raise SelMixError("s must be nonnegative")
    values = g.values
    formable = _formable_cells(values.shape[0], formable)
    keep = formable & (values >= 0.0)
    if not (mask_negative and keep.any()):
        keep = formable
    # a huge s can overflow s * G; the NaN policy it gives fails MixPolicy's check
    with np.errstate(over="ignore", invalid="ignore"):
        probs = softmax(np.where(keep, s * values, -np.inf).reshape(-1))
    return MixPolicy(probs.reshape(values.shape))


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


def _guide_table(cdf: np.ndarray, m: int) -> np.ndarray:
    """The guide table (Chen & Asau 1974) of ``cdf`` with m buckets, m a
    power of two: entry b holds the cell ``searchsorted(cdf, u, "right")``
    gives for every u in [b/m, (b+1)/m), or -1 where a CDF value splits the
    bucket.  As m is a power of two, cdf·m, u·m and b/m are exact, so each u
    falls in exactly its bucket, and the number of CDF values at or below
    b/m is the number whose ceil(cdf·m) is at most b: the table is built by
    counting them."""
    edges = np.bincount(np.ceil(cdf * m).astype(np.intp), minlength=m + 1).cumsum()
    return np.where(edges[:-1] == edges[1:], edges[:-1], -1)


def sample_pairs(
    policy: MixPolicy, rng: np.random.Generator, count: int
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` inverse-CDF draws over the row-major cells, one uniform
    each; returns the (i, j) index arrays.  Each cell is exactly
    ``np.searchsorted(policy.cdf, u, side="right")``.  From 4·K² draws up
    it is read from a :func:`_guide_table` of m buckets, the greatest power
    of two at most ``count``, where the draw's bucket is not split, so the
    table is never larger than the call's uniforms.  On the reference run's
    min-recall policies (K=10, 6400 draws, 4096 buckets) 2.0–2.3% of the
    draws search the CDF, against 15.8–18.5% with 4·K² buckets, and a
    call, its CDF and table included, took 94 µs against 134 µs (358 µs
    searching every draw; 2 cores, numpy 2.4.6).  Below 4·K² draws the CDF
    is searched outright: 1024 draws at K=100 took 131 µs through a
    1024-bucket table against 121 µs without (timeit)."""
    if count < 0:
        raise SelMixError(f"cannot draw {count} pairs: the count must be >= 0")
    u, cdf = rng.random(count), policy.cdf
    if count < 4 * cdf.size:
        flat = np.searchsorted(cdf, u, side="right")
    else:
        m = 1 << int(count).bit_length() - 1
        flat = _guide_table(cdf, m)[(u * m).astype(np.intp)]
        split = np.flatnonzero(flat < 0)
        flat[split] = np.searchsorted(cdf, u[split], side="right")
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
        check_integers(self, K=1, T=1, seed=0)
        check_reals(self, "s")
        if not (isinstance(self.fixed_pair, tuple) and len(self.fixed_pair) == 2
                and all(isinstance(v, Integral) for v in self.fixed_pair)):
            raise SelMixError(f"fixed_pair must be two integers, got {self.fixed_pair!r}")
        if self.policy_kind not in POLICY_KINDS:
            raise SelMixError(f"unknown policy kind {self.policy_kind!r}")
        if self.gain_generator not in GAIN_GENERATORS:
            raise SelMixError(f"unknown gain generator {self.gain_generator!r}")
        if not 0 < self.s < np.inf:
            raise SelMixError("s must be positive and finite")
        if not 2.0 * float(self.s) * self.T < np.inf:    # hedge scores span [-s*T, s*T]
            raise SelMixError("2 * s * T must be finite")


# Rounds x cells per chunk of run_online_game.  The game sizes its buffers by
# it once, so it only sets how many rounds each numpy call spans.  The
# benchmark's 40-game grid (one pinned CPU, numpy 2.4.6, medians of 20
# alternating runs) took 260 ms at 16,000 against 253 ms at 32,768, faster
# in 14 of 20 but inside the 15 ms spread; 65,536 and 8,000 were slower.
_CHUNK_ELEMENTS = 16_000


def _generate_gains(cfg: OnlineGameConfig, rng: np.random.Generator,
                    t0: int = 0, t1: int | None = None,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Synthetic gains of rounds t0..t1 (the whole horizon by default),
    shape (t1 - t0, K, K), all values in [0, 1] except ``spiky`` which
    deliberately overshoots to exercise clamping; written into ``out``
    when given.  Drawing the horizon chunk by chunk from one generator gives
    the same gains as one draw.

    ``anticorrelated`` pays 1 in each round to the m = max(1, K²//2) cells
    with the lowest cumulative gain so far, ties going to the lower
    row-major index, and 0 to the rest.  With that tie-break the rule is a
    round-robin over the row-major cells, built here in closed form: round t
    pays cells (t·m + j) mod K² for j < m.
    """
    k = cfg.K
    rounds = np.arange(t0, cfg.T if t1 is None else t1)
    t = rounds.size
    if out is None:
        out = np.empty((t, k, k))
    if cfg.gain_generator == "constant":
        out.fill(0.5)
    elif cfg.gain_generator == "iid_uniform":
        rng.random(out=out)
    elif cfg.gain_generator == "alternating":
        # cell (i, j) pays (t + i + j) mod 2: one of two rows by t's parity
        parity = (np.arange(k)[:, None] + np.arange(k)) % 2
        np.take(np.stack([parity, 1 - parity]).astype(np.float64), rounds % 2, 0, out)
    elif cfg.gain_generator == "anticorrelated":
        # round t's row is the first one's, m ones then zeros, rotated right
        # by t·m mod K²: a window of two copies of that row side by side
        cells = k * k
        m = max(1, cells // 2)
        ring = np.tile(np.arange(cells) < m, 2).astype(np.float64)
        windows = np.lib.stride_tricks.sliding_window_view(ring, cells)
        np.take(windows, cells - m * rounds % cells, 0, out.reshape(t, cells))
    else:
        # spiky: iid in [-2, 2], out of range on purpose
        rng.random(out=out)
        out *= 4.0
        out -= 2.0
    return out


def _policy_sequence(cfg: OnlineGameConfig, flat: np.ndarray, sums: np.ndarray,
                     col: np.ndarray) -> np.ndarray:
    """Pair distributions of one chunk of r rounds, shape (r, K*K), from
    the chunk's clamped gains ``flat`` and the (r + 1, K*K) running sums
    ``sums`` over the horizon, whose row 0 sums every earlier round: rows
    1..r include their own round, rows 0..r-1 only the past ones.  The hedge
    policies overwrite their rows of ``sums``; ``col`` is an (r, 1) scratch
    buffer."""
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
        scores = sums[1:]                         # includes the current round
        scores *= cfg.s
    else:
        scores = sums[:-1]                        # Hedge: past rounds only
        scores *= np.log(1.0 + 2.0 * np.sqrt(np.log(max(cfg.K, 2)) / cfg.T))
    softmax_rows_inplace(scores, col)
    return scores


def _inverse_cdf_rows(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per row of the (rows, cells) ``cdf``, the first cell whose entry
    exceeds that row's ``u``: the rule of :func:`sample_pairs`
    (searchsorted's side="right"), as a CDF never decreases.  Where even
    the row's sum is u or below, the last cell."""
    above = cdf > u[:, None]
    return np.where(above[:, -1], above.argmax(axis=1), cdf.shape[1] - 1)


def run_online_game(cfg: OnlineGameConfig) -> dict:
    """Play one seeded game and report measured regret against the bound.

    Gains outside the admissible range ([0, 1] for the variant policy,
    [-1, 1] otherwise) are clamped and counted in ``clamped_rounds``.

    Rounds are played in chunks of r = max(1, ``_CHUNK_ELEMENTS`` // K²)
    rounds, in buffers allocated once per game.  The running sums
    s[t] = s[t-1] + f[t] of both hedge policies fill rows 1..r of an
    (r + 1, K²) buffer whose row 0 is the sum of every earlier round, -0.0
    before the first (-0.0 + x is exactly x): that sum is added to the
    chunk's first gains and one cumsum carries it down.  Every other step
    is row-wise, so the report equals whole-horizon play bit for bit.
    """
    k, t, cells = cfg.K, cfg.T, cfg.K * cfg.K
    if cfg.policy_kind == "fixed" and not all(0 <= v < k for v in cfg.fixed_pair):
        raise SelMixError("fixed pair out of range")
    gen_ss, play_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    gen_rng, play_rng = np.random.default_rng(gen_ss), np.random.default_rng(play_ss)
    lo = 0.0 if cfg.policy_kind == "selmix_hedge_variant" else -1.0
    step = min(t, max(1, _CHUNK_ELEMENTS // cells))
    gains, prod = np.empty((step, cells)), np.empty((step, cells))
    sums = np.empty((step + 1, cells))
    total = np.full(cells, -0.0)                  # the sum of the rounds played
    col, every_row = np.empty((step, 1)), np.arange(step)
    expected, realized = np.empty(t), np.empty(t)
    clamped_rounds = 0
    for t0 in range(0, t, step):
        t1 = min(t0 + step, t)
        r = t1 - t0
        flat = gains[:r]
        _generate_gains(cfg, gen_rng, t0, t1, flat.reshape(r, k, k))
        if flat.min() < lo or flat.max() > 1.0:      # count and clamp only if any is out
            clamped_rounds += int(((flat.min(axis=1) < lo) | (flat.max(axis=1) > 1.0)).sum())
            np.clip(flat, lo, 1.0, out=flat)
        cum = sums[:r + 1]
        cum[0] = total                               # the variant's past-only row
        cum[1:] = flat
        cum[1] += total
        np.cumsum(cum[1:], axis=0, out=cum[1:])
        total[:] = cum[r]

        probs = _policy_sequence(cfg, flat, cum, col[:r])
        np.add.reduce(np.multiply(probs, flat, out=prod[:r]), 1, None, expected[t0:t1])
        cdf = np.cumsum(probs, axis=1, out=probs)
        chosen = _inverse_cdf_rows(cdf, play_rng.random(r))
        realized[t0:t1] = flat[every_row[:r], chosen]

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
