"""Selective mixup fine-tuning on the long-tailed reference benchmark.

Long-tailed Gaussian clusters (head class 1500 samples, imbalance 100),
balanced validation pool, and a logit-adjusted warm start.  Fine-tunes the
classifier for the worst-case recall and for the coverage-constrained mean
recall, comparing the adaptive pair-sampling policy against uniform and
greedy sampling under an identical step budget.
"""

import numpy as np

from selmix import MetricSpec, make_benchmark, model_confusion, refresh_pseudo_labels, run_selmix
from selmix.benchmark import benchmark_config

SEED = 0
train, unlabeled, val, init = make_benchmark(SEED)
init_conf = model_confusion(init, val)
print(f"train pool: {train.n} samples, class counts {[int(c) for c in train.class_counts()]}")
print(f"balanced validation: {val.n} samples")
print(f"warm-start model:   mean recall {init_conf.recalls().mean():.3f}, "
      f"min recall {init_conf.recalls().min():.3f}, "
      f"min coverage {init_conf.coverages().min():.4f}")
print()

print("== worst-case recall objective, 50 cycles x 100 SGD steps ==")
for policy in ("selmix", "uniform", "greedy"):
    cfg = benchmark_config(MetricSpec("min_recall"), SEED, policy=policy)
    model, history = run_selmix(cfg, train, None, val, init)
    conf = model_confusion(model, val)
    print(f"  {policy:8s} min recall {conf.recalls().min():.3f}   "
          f"mean recall {conf.recalls().mean():.3f}   "
          f"(psi {history.records[0].psi:.3f} -> {history.final_psi:.3f})")
print()

print("== mean recall s.t. every class coverage >= 0.95/K ==")
cfg = benchmark_config(MetricSpec("mean_recall_coverage"), SEED)
model, history = run_selmix(cfg, train, None, val, init)
conf = model_confusion(model, val)
print(f"  min coverage {conf.coverages().min():.4f} (target {0.95/10:.4f}), "
      f"mean recall {conf.recalls().mean():.3f}")
active = [t for t, r in enumerate(history.records, 1) if max(r.lambdas) > 1.0]
print(f"  multipliers active in {len(active)}/{len(history.records)} cycles; "
      f"final lambdas {np.round(history.records[-1].lambdas, 1)}")
print()

print("== semi-supervised: passing the unlabeled pool pseudo-labels it as the second pool ==")
cfg = benchmark_config(MetricSpec("min_recall"), SEED, cycles=20)
model, history = run_selmix(cfg, train, unlabeled, val, init)
conf = model_confusion(model, val)
pseudo = refresh_pseudo_labels(model, unlabeled)
acc = float(np.mean(pseudo.labels == unlabeled.labels))
print(f"  min recall {conf.recalls().min():.3f}, pseudo-label accuracy {acc:.3f}")
