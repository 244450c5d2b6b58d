"""Exception types shared across the package, and the integer check."""

from numbers import Integral


class SelMixError(Exception):
    """Base class for runtime failures raised by this package."""


class DataError(SelMixError):
    """Malformed or inconsistent dataset input (bad CSV, missing class, ...)."""


class ConfigError(SelMixError):
    """Invalid configuration file or option value."""


def check_integers(obj, error: type[SelMixError] = SelMixError, **lows: int) -> None:
    """Raise ``error`` unless each value named in ``lows`` is an integer
    (numpy integers count) at least its low bound: a field of ``obj``, or an
    entry when ``obj`` is a dict, such as a function's ``locals()``."""
    for name, low in lows.items():
        value = obj[name] if isinstance(obj, dict) else getattr(obj, name)
        if not isinstance(value, Integral):
            raise error(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise error(f"{name} must be >= {low}")
