"""Exception types shared across the package, and the integer and real
scalar checks."""

from numbers import Integral, Real


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


def check_reals(obj, *names: str, error: type[SelMixError] = SelMixError) -> None:
    """Raise ``error`` unless each value named is a real number (numpy
    scalars count), read from ``obj`` as :func:`check_integers` reads it.
    It goes before a range check, which an array would end in numpy's
    ambiguous truth value."""
    for name in names:
        value = obj[name] if isinstance(obj, dict) else getattr(obj, name)
        if not isinstance(value, Real):
            raise error(f"{name} must be a real number, got {type(value).__name__}")
