"""Confusion-matrix objectives and their gradients.

Builds a small confusion matrix from hard predictions, evaluates the whole
objective family on it, and shows that the analytic gradient through the
row-softmax reparameterization matches central finite differences.
"""

import numpy as np

from selmix import (
    MetricSpec,
    confusion_from_predictions,
    evaluate_metric,
    metric_grad_unconstrained,
    neutral_lagrange,
    unconstrained_to_confusion,
    update_lagrange,
)
from selmix.metrics import METRIC_KINDS

rng = np.random.default_rng(7)

# a sloppy 4-class classifier: class 3 is frequently confused with class 0
labels = rng.integers(0, 4, size=400)
predictions = labels.copy()
flip = rng.random(400) < 0.25
predictions[flip] = rng.integers(0, 4, size=flip.sum())
predictions[(labels == 3) & (rng.random(400) < 0.4)] = 0

c = confusion_from_predictions(labels, predictions, 4)
print("confusion matrix (rows = true class, cells sum to 1):")
print(np.round(c.entries, 3))
print("priors:   ", np.round(c.priors, 3))
print("recalls:  ", np.round(c.recalls(), 3))
print("coverages:", np.round(c.coverages(), 3))
print()

print(f"{'objective':34s} value   (multipliers refreshed from C)")
for kind in METRIC_KINDS:
    spec = MetricSpec(kind)
    lam = update_lagrange(spec, c)
    if lam.size == 0:
        lam = neutral_lagrange(spec, c.k)
    print(f"{kind:34s} {evaluate_metric(spec, c, lam):+.4f}")
print()

# gradient check for the harmonic-mean objective at this operating point
spec = MetricSpec("h_mean")
lam = neutral_lagrange(spec, c.k)
analytic = metric_grad_unconstrained(spec, c, lam)

step = 1e-5
c_tilde = np.log(c.entries + 1e-12)
numeric = np.zeros_like(analytic)
for i in range(4):
    for j in range(4):
        up, down = c_tilde.copy(), c_tilde.copy()
        up[i, j] += step
        down[i, j] -= step
        numeric[i, j] = (
            evaluate_metric(spec, unconstrained_to_confusion(up, c.priors), lam)
            - evaluate_metric(spec, unconstrained_to_confusion(down, c.priors), lam)
        ) / (2 * step)

print("h_mean gradient w.r.t. the unconstrained matrix (analytic):")
print(np.round(analytic, 5))
print(f"max |analytic - finite difference| = {np.max(np.abs(analytic - numeric)):.2e}")
print(f"row sums (softmax tangency, should be ~0): {np.round(analytic.sum(axis=1), 12)}")
