"""Flat key=value run configuration shared by the CLI commands.

Unknown keys and keys given twice are rejected.  A missing key takes the
default of the dataclass field it sets (``MetricSpec``, ``TrainerConfig``
or ``LTSpec``: the published recipe values where one exists); only the
three keys no dataclass holds (``metric``, ``head_tail_split`` and
``mode``) have their defaults here.  Values are checked in one place: the
trainer and data specs a config describes are built when it is parsed, and
any value they reject is a :class:`ConfigError`.
"""

from __future__ import annotations

from typing import NamedTuple

from .data import LTSpec
from .errors import ConfigError, SelMixError
from .metrics import MEAN_RECALL, MetricSpec
from .trainer import TrainerConfig

_BOOL = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

# dataclass -> {config key: the field it sets}; ``seed`` seeds both the run
# and the data
_FIELDS = {
    MetricSpec: {"omega": "omega", "alpha": "alpha", "lambda_max": "lambda_max", "tau": "tau"},
    TrainerConfig: {"s": "s", "beta_min": "beta_min", "cycles": "cycles",
                    "sgd_steps": "sgd_steps_per_cycle", "batch_size": "batch_size", "lr": "lr",
                    "lr_schedule": "lr_schedule", "seed": "seed", "mask_negative": "mask_negative"},
    LTSpec: {"K": "K", "d": "d", "n1": "N1", "rho": "rho", "within_std": "within_std",
             "cluster_separation": "cluster_separation", "seed": "seed"},
}

DEFAULTS: dict[str, object] = {
    "metric": MEAN_RECALL,
    "head_tail_split": -1,      # -1: MetricSpec's default split (tail = last ceil(K/10) classes)
    "mode": "supervised",       # "ssl": train also loads unlabeled.csv
    **{key: getattr(cls, name) for cls, keys in _FIELDS.items() for key, name in keys.items()},
}


def _fields(cls, values: dict[str, object]) -> dict[str, object]:
    """The keyword arguments of ``cls`` that the config ``values`` set."""
    return {name: values[key] for key, name in _FIELDS[cls].items()}


class RunConfig(NamedTuple):
    """A parsed configuration: the trainer and data specs its keys (see
    DEFAULTS) describe, and whether ``train`` runs semi-supervised."""

    trainer: TrainerConfig
    data: LTSpec
    mode: str


def _parse_value(key: str, raw: str):
    """``raw`` parsed as the type of the key's default value."""
    kind = type(DEFAULTS[key])
    try:
        return _BOOL[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"invalid value {raw!r} for key {key!r}") from None


def parse_config_text(text: str) -> RunConfig:
    v = dict(DEFAULTS)
    given: dict[str, int] = {}                  # key -> the line that set it
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
        if key in given:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {given[key]}")
        given[key] = lineno
        v[key] = _parse_value(key, raw)
    if v["mode"] not in ("supervised", "ssl"):
        raise ConfigError("mode must be 'supervised' or 'ssl'")
    split = v["head_tail_split"]
    if split != -1 and not 0 < split < v["K"]:
        raise ConfigError(f"head_tail_split must lie in (0, {v['K']})")
    try:
        metric = MetricSpec(kind=v["metric"], head_split=None if split == -1 else split,
                            **_fields(MetricSpec, v))
        trainer = TrainerConfig(metric=metric, **_fields(TrainerConfig, v))
        data = LTSpec(**_fields(LTSpec, v))
    except SelMixError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(trainer, data, v["mode"])


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read config {path}: not UTF-8 text "
                          f"({exc.reason} at byte {exc.start})") from None
