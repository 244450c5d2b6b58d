"""Online-game simulation of the pair-sampling policies.

An adversary emits a gain matrix each round; the policy picks a cell and
collects that gain.  The cumulative softmax policy (which sees the current
round's gains before acting) carries a 2 log K / (s T) guarantee against
the best fixed pair in hindsight; the Hedge-style variant (past rounds
only, horizon-tuned temperature) carries 2 sqrt(log K) / sqrt(T).
"""

import time
import tracemalloc

import numpy as np

from selmix import OnlineGameConfig, run_online_game
from selmix.policy import GAIN_GENERATORS

K, T, SEEDS = 5, 4000, 12

print(f"K={K}, T={T}, {SEEDS} seeds per cell")
print(f"{'generator':16s} {'policy':22s} {'avg gain':>9s} {'best fixed':>11s} "
      f"{'regret':>9s} {'bound':>9s}")
for generator in GAIN_GENERATORS:
    for policy in ("selmix_hedge", "selmix_hedge_variant", "uniform", "greedy"):
        regrets, gains, best = [], [], []
        for seed in range(SEEDS):
            out = run_online_game(OnlineGameConfig(
                K=K, T=T, s=10.0, gain_generator=generator,
                policy_kind=policy, seed=seed))
            regrets.append(out["regret"])
            gains.append(out["avg_gain_policy"])
            best.append(out["avg_gain_best_fixed"])
        bound = f"{out['bound']:9.4f}" if np.isfinite(out["bound"]) else f"{'-':>9s}"
        print(f"{generator:16s} {policy:22s} {np.mean(gains):9.4f} {np.mean(best):11.4f} "
              f"{np.mean(regrets):9.4f} {bound}")
    print()

print("note: negative regret means the adaptive policy beat every fixed pair;")
print("the uniform and greedy baselines carry no guarantee and can trail badly.")

# Chunked play keeps one game at O(r·K² + T) floats for r rounds per chunk: at the
# paper's K=100 scale a whole-horizon game would hold several 800 MB arrays.
wide = OnlineGameConfig(K=100, T=10_000, gain_generator="iid_uniform",
                        policy_kind="selmix_hedge_variant", seed=0)
start = time.perf_counter()
out = run_online_game(wide)
wall = time.perf_counter() - start
tracemalloc.start()
run_online_game(wide)
peak_mb = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
print()
print(f"K={wide.K}, T={wide.T} {wide.policy_kind} game: regret {out['regret']:.4f} "
      f"(bound {out['bound']:.4f}), {wall:.1f} s, tracemalloc peak {peak_mb:.1f} MB")
