"""Numerical checks of the optimization-rate and mixup-regularizer claims.

First: stochastic ascent on a concave quadratic with update directions
that only align with the gradient in expectation still converges inside
the 4 gamma R0^2 / (c^2 (t-1)) envelope.  Second: the pairwise mixup loss
is tracked by the standard loss plus a quadratic data-dependent
regularizer, with relative error vanishing as the weight scale shrinks.
"""

import numpy as np

from selmix import convergence_check, mixup_regularization_check

print("== convergence envelope, psi(W) = -||W - W*||^2 ==")
print(f"{'alignment c':>11s} {'bound holds':>12s} {'decay exponent':>15s} "
      f"{'subopt t=10':>12s} {'t=100':>10s}")
for c in (1.0, 0.75, 0.5, 0.25):
    reports = [convergence_check(4, 6, c, T=300, seed=s) for s in range(10)]
    holds = sum(r["bound_satisfied"] for r in reports)
    exps = [r["fitted_rate_exponent"] for r in reports]
    finite = [e for e in exps if np.isfinite(e)]
    exp_str = f"{np.median(finite):.1f}" if finite else "-inf"
    d10 = np.mean([r["suboptimality_decades"]["10"] for r in reports])
    d100 = np.mean([r["suboptimality_decades"]["100"] for r in reports])
    print(f"{c:11.2f} {holds:>9d}/10 {exp_str:>15s} {d10:12.2e} {d100:10.2e}")
print("(-inf: the iterate reached W* to float precision inside the fit window)")
print()

print("== mixup loss vs standard loss + quadratic regularizer ==")
print(f"{'theta scale':>11s} {'mixup (MC)':>11s} {'taylor form':>12s} {'rel error':>10s}")
for scale in (0.2, 0.1, 0.05, 0.025, 0.0):
    r = mixup_regularization_check(5, 8, (2.0, 2.0), scale, N=400,
                                   mc_pairs=200_000, seed=1)
    print(f"{scale:11.3f} {r['mixup_loss_mc']:11.6f} {r['taylor_approx']:12.6f} "
          f"{r['rel_error']:10.2e}")
r = mixup_regularization_check(5, 8, (2.0, 2.0), 0.1, N=400, mc_pairs=200_000, seed=1)
print(f"\nreweighted-mixture moment E[(1-l)^2/(2l^2)] = {r['lambda_moment']:.3f} "
      f"(alpha=beta=2), E[l] = {r['lambda_mean']:.3f}, both exact (closed form)")
