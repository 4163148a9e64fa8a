"""Shared exception types."""

import numbers


class ConfigError(ValueError):
    """A configuration document or parameter set is invalid."""


class UnsupportedOperation(RuntimeError):
    """The operation needs data the object does not carry (payoffs, oracle, ...)."""


class IndeterminateResult(RuntimeError):
    """Not enough usable data to produce a result (e.g. all sampled pairs degenerate)."""


def config_int(value, name: str) -> int:
    """An integer config field; rejects bools, strings and non-integral numbers."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and float(value).is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def config_float(value, name: str) -> float:
    """A real-valued config field; rejects bools, strings and other non-numbers."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{name} must be a number, got {value!r}")


def config_dict(value, name: str) -> dict:
    """A config section; rejects anything that is not a JSON object."""
    if isinstance(value, dict):
        return value
    raise ConfigError(f"{name} must be an object, got {value!r}")
