"""Exception types shared across the package."""


class ThermobitError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ThermobitError, ValueError):
    """An input value lies outside the operation's domain."""


class ShapeError(ThermobitError, ValueError):
    """Dimensions of the inputs are inconsistent."""


class ContractError(ThermobitError, ValueError):
    """A strict-mode bit operation received an input of the wrong type."""
