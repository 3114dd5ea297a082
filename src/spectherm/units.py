"""Unit system threaded through every computation in the package, the one
exception type for arguments and inputs the package rejects, and the checks
and the rational pi that the modules share."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

__all__ = ["InputError", "UnitSystem", "kinetic_prefactor", "natural_units"]

# pi to 50 digits as an exact rational: its products and quotients with
# integers, rounded once, are the doubles nearest the same values with pi,
# unless one lies within 1e-50 (relative) of a midpoint between doubles
PI_RATIONAL = Fraction("3.14159265358979323846264338327950288419716939937510")


class InputError(ValueError):
    """An argument or input outside the domain a computation accepts."""


def require_positive(name: str, value: float) -> None:
    """Raise InputError unless value is positive and finite."""
    if not (math.isfinite(value) and value > 0.0):
        raise InputError(f"{name} must be positive and finite, got {value!r}")


def require_normal(name: str, value: float) -> None:
    """Raise InputError unless value is positive, finite and not subnormal."""
    if not (math.isfinite(value) and value >= 2.0**-1022):
        raise InputError(f"{name} must be positive, finite and normal, got {value!r}")


def require_at_least(name: str, value: int, k: int) -> None:
    """Raise InputError unless value >= k."""
    if value < k:
        raise InputError(f"{name} must be >= {k}, got {value!r}")


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants scaling energies, entropies and temperatures.

    hbar is the reduced Planck constant (action units), k_boltzmann the
    Boltzmann constant (energy per temperature), mass the particle mass.
    Immutable, so instances can be shared freely.
    """

    hbar: float
    k_boltzmann: float
    mass: float

    def __post_init__(self) -> None:
        for name in ("hbar", "k_boltzmann", "mass"):
            require_positive(name, getattr(self, name))


def natural_units() -> UnitSystem:
    """Default system: hbar = k_B = 1 and mass = 1/2.

    With this choice hbar^2/(2m) = 1, so kinetic eigenvalues coincide with
    squared wavenumbers and entropies are measured in units of k_B.
    """
    return UnitSystem(hbar=1.0, k_boltzmann=1.0, mass=0.5)


def kinetic_prefactor(u: UnitSystem) -> float:
    """hbar^2/(2m), the factor turning a squared wavenumber into an energy.

    Raises InputError if it overflows or underflows to zero or to a
    subnormal, where every energy built from it would lose digits.
    """
    pref = u.hbar * u.hbar / (2.0 * u.mass)
    require_normal("hbar^2/(2 mass)", pref)
    return pref
