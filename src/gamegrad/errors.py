"""Shared exception types and the config parser's helpers.

Every config section is read through ``config_section`` and every ``kind``
tag through ``config_kind``, so a missing, unknown, mistyped or non-finite
entry is always a ConfigError that names it.
"""

import math
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
    """A finite real config field; rejects bools, strings, NaN and infinities."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the range of a double
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{name} must be finite, got {value!r}")
    return number


def config_numbers(value, name: str) -> list[float]:
    """A list of finite real config fields."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return [config_float(v, f"{name}[{i}]") for i, v in enumerate(value)]


def config_dict(value, name: str) -> dict:
    """A config section; rejects anything that is not a JSON object."""
    if isinstance(value, dict):
        return value
    raise ConfigError(f"{name} must be an object, got {value!r}")


def config_section(value, name: str, required=(), optional=()) -> dict:
    """A config section holding every key of ``required`` and no key outside
    ``required`` and ``optional``; names each unknown and each missing key."""
    doc = config_dict(value, name)
    allowed = (*required, *optional)
    unknown = sorted(set(doc) - set(allowed), key=str)
    if unknown:
        raise ConfigError(f"{name} has unknown key(s) {', '.join(map(repr, unknown))}; "
                          f"allowed: {sorted(allowed)}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise ConfigError(f"{name} is missing key(s) {', '.join(map(repr, missing))}")
    return doc


def config_kind(doc: dict, kinds: dict, what: str, default=None):
    """A section's ``kind`` tag (``default`` if absent) and its entry in ``kinds``.

    A missing tag without a default and an unknown kind are separate errors.
    """
    if "kind" not in doc and default is None:
        raise ConfigError(f"{what} section is missing its 'kind' tag; available: {sorted(kinds)}")
    kind = doc.get("kind", default)
    if not isinstance(kind, str) or kind not in kinds:
        raise ConfigError(f"unknown {what} kind {kind!r}; available: {sorted(kinds)}")
    return kind, kinds[kind]
