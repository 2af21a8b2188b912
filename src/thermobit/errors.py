"""Exception types shared across the package, and the one rule for counts."""

import operator


class ThermobitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ThermobitError, ValueError):
    """An input value lies outside the operation's domain."""


class ShapeError(ThermobitError, ValueError):
    """Dimensions of the inputs are inconsistent."""


class ContractError(ThermobitError, ValueError):
    """A strict-mode bit operation received an input of the wrong type."""


def _count(name: str, value, minimum: int) -> int:
    """value as an int, if it is an integer (np.int64 too) of at least
    minimum; else a DomainError, with the one message for every count."""
    try:
        count = operator.index(value)
    except TypeError:
        count = minimum - 1
    if count < minimum:
        raise DomainError(f"{name} must be an integer of at least {minimum}, got {value!r}")
    return count
