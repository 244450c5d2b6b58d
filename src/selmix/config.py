"""Flat key=value run configuration shared by the CLI commands.

Unknown keys are rejected; missing keys take the documented defaults (the
published recipe values where one exists: s=10, omega=40, lambda_max=100,
tau=0.01, alpha=0.95, batch_size=64, cosine schedule).  Values are checked
in one place: the trainer and data specs a config describes are built when
it is parsed, and any value they reject is a :class:`ConfigError`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .data import LTSpec
from .errors import ConfigError, SelMixError
from .metrics import MetricSpec
from .trainer import TrainerConfig

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

DEFAULTS: dict[str, object] = {
    "metric": "mean_recall",
    "omega": 40.0,
    "alpha": 0.95,
    "lambda_max": 100.0,
    "tau": 0.01,
    "head_tail_split": -1,      # -1: default split (tail = last ceil(K/10) classes)
    "s": 10.0,
    "beta_min": 0.5,
    "cycles": 50,
    "sgd_steps": 50,
    "batch_size": 64,
    "lr": 0.2,
    "lr_schedule": "cosine",
    "mode": "supervised",
    "seed": 0,
    "mask_negative": True,
    "K": 10,
    "d": 16,
    "n1": 1500,
    "rho": 100.0,
    "within_std": 0.55,
    "cluster_separation": 1.0,
}

_INT_KEYS = {"head_tail_split", "cycles", "sgd_steps", "batch_size", "seed", "K", "d", "n1"}
_FLOAT_KEYS = {
    "omega", "alpha", "lambda_max", "tau", "s", "beta_min", "lr",
    "rho", "within_std", "cluster_separation",
}
_BOOL_KEYS = {"mask_negative"}


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration; see DEFAULTS for the key set.

    Creating one builds its trainer and data specs, so every value is
    checked before any command runs.
    """

    values: dict

    def __post_init__(self):
        v = self.values
        try:
            head_set = None
            if v["head_tail_split"] >= 0:
                if not 0 < v["head_tail_split"] < v["K"]:
                    raise ConfigError(f"head_tail_split must lie in (0, {v['K']})")
                head_set = tuple(range(v["head_tail_split"]))
            metric = MetricSpec(kind=v["metric"], omega=v["omega"], alpha=v["alpha"],
                                lambda_max=v["lambda_max"], tau=v["tau"], head_set=head_set)
            trainer = TrainerConfig(
                metric=metric, cycles=v["cycles"], sgd_steps_per_cycle=v["sgd_steps"],
                batch_size=v["batch_size"], lr=v["lr"], lr_schedule=v["lr_schedule"],
                s=v["s"], beta_min=v["beta_min"], mode=v["mode"], seed=v["seed"],
                mask_negative=v["mask_negative"],
            )
            lt = LTSpec(K=v["K"], d=v["d"], N1=v["n1"], rho=v["rho"], seed=v["seed"],
                        cluster_separation=v["cluster_separation"], within_std=v["within_std"])
        except SelMixError as exc:
            raise ConfigError(str(exc)) from None
        object.__setattr__(self, "_trainer", trainer)
        object.__setattr__(self, "_lt", lt)

    def __getitem__(self, key: str):
        return self.values[key]

    def trainer_config(self) -> TrainerConfig:
        return self._trainer

    def lt_spec(self) -> LTSpec:
        return self._lt


def _parse_value(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _BOOL_KEYS:
            if raw.lower() not in _BOOL:
                raise ValueError(raw)
            return _BOOL[raw.lower()]
        return raw
    except ValueError:
        raise ConfigError(f"invalid value {raw!r} for key {key!r}") from None


def parse_config_text(text: str) -> RunConfig:
    values = dict(DEFAULTS)
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    return RunConfig(values)


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {path}: not UTF-8 text "
                          f"({exc.reason} at byte {exc.start})") from None
