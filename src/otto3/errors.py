"""Exception types shared across the package, and the count check that raises one."""

from __future__ import annotations

import numbers


class Otto3Error(Exception):
    """Base class for all package-specific errors."""


class PhysicalityError(Otto3Error, ValueError):
    """A matrix fails the requirements for a valid covariance matrix."""


class SymplecticityError(Otto3Error, ValueError):
    """A propagator matrix does not preserve the symplectic form."""


class DegenerateRampError(Otto3Error, ValueError):
    """Ramp endpoints too close for the frequency-sweep solution."""


class EnergyBalanceError(Otto3Error, RuntimeError):
    """Per-cycle bookkeeping violated the first law beyond tolerance."""


class IntegrationError(Otto3Error, RuntimeError):
    """Numerical integration failed or missed its accuracy target."""


class ConvergenceError(Otto3Error, RuntimeError):
    """An iterative computation exhausted its budget before converging."""


class ConfigError(Otto3Error, ValueError):
    """A run configuration is malformed or inconsistent."""


def check_count(name: str, value: object, minimum: int) -> None:
    """Refuse a count unless it is an integer (numbers.Integral, not bool) >= minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
