"""Command-line entry point.

Subcommands: gen-data, train, simulate-policy, check-gain, eval.  Every
command exits 0 on success, 2 on usage or configuration errors, 1 on
runtime failures; diagnostics go to stderr, data to files or stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .classifier import LinearModel
from .config import load_config
# generate_longtail stays importable here: perfbench/tracing.py wraps it by this name
from .data import (POOL_FRACTIONS, balanced_validation, check_split_sizes,
                   generate_longtail,  # noqa: F401
                   load_dataset, load_weights, save_dataset, save_weights, split)
from .errors import ConfigError, SelMixError
from .gain import gain_oracle_median_error
from .metrics import (
    G_MEAN,
    H_MEAN,
    MEAN_RECALL,
    MIN_RECALL,
    MetricSpec,
    evaluate_metric,
    model_confusion,
    neutral_lagrange,
    update_lagrange,
)
from .policy import GAIN_GENERATORS, POLICY_KINDS, OnlineGameConfig, run_online_game
from .theory_checks import convergence_check, mixup_regularization_check
from .trainer import pretrain_erm, run_selmix


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _strict_json(value) -> str:
    """json.dumps with non-finite floats mapped to null (strict JSON); every
    JSON line a command prints goes through it."""
    def scrub(obj):
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [scrub(v) for v in obj]
        if isinstance(obj, float) and not np.isfinite(obj):
            return None
        return obj

    return json.dumps(scrub(value))


def cmd_gen_data(args) -> int:
    spec = load_config(args.config).data
    check_split_sizes(spec.class_counts(), POOL_FRACTIONS, error=ConfigError)
    train, _, unlabeled = split(spec, POOL_FRACTIONS, seed=spec.seed)
    val = balanced_validation(spec, per_class=max(10, round(spec.N1 / 10)))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(train, out / "train.csv")
    save_dataset(val, out / "val.csv")
    save_dataset(unlabeled, out / "unlabeled.csv")
    manifest = {
        "K": spec.K,
        "d": spec.d,
        "n1": spec.N1,
        "rho": spec.rho,
        "within_std": spec.within_std,
        "cluster_separation": spec.cluster_separation,
        "seed": spec.seed,
        "class_counts": [int(c) for c in spec.class_counts()],
        "pool_fractions": list(POOL_FRACTIONS),
        "splits": {
            "train": [int(c) for c in train.class_counts()],
            "val": [int(c) for c in val.class_counts()],
            "unlabeled": [int(c) for c in unlabeled.class_counts()],
        },
        "files": {"train": "train.csv", "val": "val.csv", "unlabeled": "unlabeled.csv"},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    _log(f"wrote {train.n + unlabeled.n} long-tailed + {val.n} balanced validation samples to {out}")
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    data_dir = Path(args.data)
    k = cfg.data.K
    train = load_dataset(data_dir / "train.csv", k)
    val = load_dataset(data_dir / "val.csv", k)
    unlabeled = None
    if cfg.trainer.mode == "ssl":
        unlabeled = load_dataset(data_dir / "unlabeled.csv", k)
    if args.init is not None:
        init = LinearModel(load_weights(args.init))
    else:  # zero steps give zero weights
        init = pretrain_erm(train, steps=args.pretrain_steps, seed=cfg.trainer.seed,
                            logit_adjust=args.pretrain_la)

    trainer_cfg = replace(cfg.trainer, policy=args.policy)
    started = time.perf_counter()
    model, history = run_selmix(trainer_cfg, train, unlabeled, val, init)
    run_ms = (time.perf_counter() - started) * 1000.0
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "history.jsonl").write_text(history.to_jsonl(), encoding="utf-8")
    save_weights(model.weights, out / "final_model.csv")
    summary = {
        "psi": history.final_psi,
        "cycle1_psi": history.records[0].psi,
        "metric": cfg.trainer.metric.kind,
        "policy": args.policy,
        "cycles": len(history.records),
        "sgd_steps": history.sgd_steps,
        "recalls": history.final_confusion.recalls().tolist(),
        "coverages": history.final_confusion.coverages().tolist(),
        "seed": cfg.trainer.seed,
    }
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _log(f"final psi={history.final_psi:.4f} after {history.sgd_steps} SGD steps "
         f"({run_ms:.0f} ms)")
    return 0


def cmd_simulate_policy(args) -> int:
    regrets, bounds = [], []
    for seed in args.seeds:
        cfg = OnlineGameConfig(
            K=args.K,
            T=args.T,
            s=args.s,
            gain_generator=args.generator,
            policy_kind=args.policy,
            seed=seed,
            fixed_pair=tuple(args.fixed_pair),
        )
        report = run_online_game(cfg)
        print(_strict_json(report))
        regrets.append(report["regret"])
        bounds.append(report["bound"])
    mc_se = float(np.std(regrets, ddof=1) / np.sqrt(len(regrets))) if len(regrets) > 1 else 0.0
    aggregate = {
        "aggregate": True,
        "policy": args.policy,
        "generator": args.generator,
        "K": args.K,
        "T": args.T,
        "seeds": len(args.seeds),
        "mean_regret": float(np.mean(regrets)),
        "mc_standard_error": mc_se,
        "bound": bounds[0],
        "within_bound": bool(
            np.isnan(bounds[0]) or np.mean(regrets) <= bounds[0] + 3.0 * mc_se
        ),
    }
    print(_strict_json(aggregate))
    return 0


def cmd_check_gain(args) -> int:
    rows = []
    for std in args.within_std:
        median = gain_oracle_median_error(args.K, args.d, std, args.seeds)
        rows.append({"within_std": std, "median_rel_error": median})
        print(_strict_json(rows[-1]))
    tightest = min(rows, key=lambda r: r["within_std"])
    if tightest["median_rel_error"] > 0.15:
        _log(f"tightest-cluster run exceeds rtol 0.15: {tightest}")
        return 1
    return 0


def cmd_eval(args) -> int:
    model = LinearModel(load_weights(args.model))
    ds = load_dataset(args.data, model.classes)
    conf = model_confusion(model, ds)
    spec_min = MetricSpec(kind=MIN_RECALL, omega=args.omega)
    values = {
        "mean_recall": evaluate_metric(MetricSpec(MEAN_RECALL), conf, neutral_lagrange(MetricSpec(MEAN_RECALL), conf.k)),
        "min_recall": float(conf.recalls().min()),
        "soft_min_recall": evaluate_metric(spec_min, conf, update_lagrange(spec_min, conf)),
        "g_mean": evaluate_metric(MetricSpec(G_MEAN), conf, neutral_lagrange(MetricSpec(G_MEAN), conf.k)),
        "h_mean": evaluate_metric(MetricSpec(H_MEAN), conf, neutral_lagrange(MetricSpec(H_MEAN), conf.k)),
        "min_coverage": float(conf.coverages().min()),
        "recalls": [float(r) for r in conf.recalls()],
        "coverages": [float(c) for c in conf.coverages()],
    }
    print(_strict_json(values))
    return 0


def cmd_check_theory(args) -> int:
    if args.which in ("convergence", "both"):
        for seed in args.seeds:
            print(_strict_json(convergence_check(args.K, args.d, args.alignment_c, args.T, seed)))
    if args.which in ("mixup", "both"):
        for seed in args.seeds:
            report = mixup_regularization_check(
                args.K, args.d, (args.alpha_beta[0], args.alpha_beta[1]),
                args.theta_scale, args.N, args.mc_pairs, seed,
            )
            print(_strict_json(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selmix",
        description="Fine-tune a linear classifier for confusion-matrix objectives "
        "via selective class-pair mixup; includes policy and theory simulators.",
    )
    parser.add_argument("--version", action="version", version=f"selmix {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a long-tailed synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="run the fine-tuning loop")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--policy", choices=["selmix", "uniform", "greedy"], default="selmix")
    p.add_argument("--init", default=None, help="initial model CSV (d x K)")
    p.add_argument("--pretrain-steps", type=int, default=0,
                   help="ERM warm-start steps when no --init is given (0 = zero weights)")
    p.add_argument("--pretrain-la", type=float, default=1.0,
                   help="logit-adjustment strength during the warm start")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("simulate-policy", help="online-game regret simulation")
    p.add_argument("--K", type=int, default=10)
    p.add_argument("--T", type=int, default=1000)
    p.add_argument("--s", type=float, default=10.0)
    p.add_argument("--policy", choices=list(POLICY_KINDS), default="selmix_hedge")
    p.add_argument("--generator", choices=list(GAIN_GENERATORS), default="iid_uniform")
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(20)))
    p.add_argument("--fixed-pair", type=int, nargs=2, default=(0, 0))
    p.set_defaults(func=cmd_simulate_policy)

    p = sub.add_parser("check-gain", help="gain approximation vs finite differences")
    p.add_argument("--within-std", type=float, nargs="+", default=[0.5, 0.1, 0.02])
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(3)))
    p.add_argument("--K", type=int, default=10)
    p.add_argument("--d", type=int, default=16)
    p.set_defaults(func=cmd_check_gain)

    p = sub.add_parser("eval", help="evaluate a saved model on a dataset CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--omega", type=float, default=40.0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("check-theory", help="convergence and mixup-regularizer checks")
    p.add_argument("--which", choices=["convergence", "mixup", "both"], default="both")
    p.add_argument("--K", type=int, default=5)
    p.add_argument("--d", type=int, default=8)
    p.add_argument("--T", type=int, default=300)
    p.add_argument("--alignment-c", type=float, default=1.0)
    p.add_argument("--alpha-beta", type=float, nargs=2, default=(2.0, 2.0))
    p.add_argument("--theta-scale", type=float, default=0.05)
    p.add_argument("--N", type=int, default=400)
    p.add_argument("--mc-pairs", type=int, default=100_000)
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.set_defaults(func=cmd_check_theory)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 2
    except FileNotFoundError as exc:
        _log(f"missing input: {exc}")
        return 2
    except (SelMixError, OSError) as exc:
        _log(f"error: {exc}")
        return 1
    except MemoryError as exc:
        _log(f"error: {str(exc) or 'out of memory'}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
