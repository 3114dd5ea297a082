"""Unit system threaded through every computation in the package, the one exception
type for arguments and inputs the package rejects, and the checks, the rational pi
(two ints), k pi / length (pi_over) and the value base, Frozen, that the modules share."""

from __future__ import annotations

import math

__all__ = ["InputError", "UnitSystem", "kinetic_prefactor", "natural_units"]

# pi to 50 digits as (numerator, denominator): its products and quotients
# with integers, rounded once, are the doubles nearest the same values with
# pi, unless one lies within 1e-50 (relative) of a midpoint between doubles
PI_RATIONAL = (314159265358979323846264338327950288419716939937510, 10**50)


def pi_over(length: float, parts: int = 1):
    """The map k -> k pi / (parts length) on ints k >= 0: length > 0 (int or float) is taken
    exactly, so each value is one quotient of ints, rounded once (inf past the double range)."""
    c, e = length.as_integer_ratio()
    num, den = PI_RATIONAL[0] * e, PI_RATIONAL[1] * c * parts

    def times(k: int) -> float:
        try:
            return k * num / den
        except OverflowError:
            return math.inf

    return times


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


def require_level_range(top: float, key_one: float | None = None, **given) -> None:
    """Raise OverflowError naming the given inputs unless top, the highest level
    energy, is finite and key_one, the energy of the lowest key, if given, is
    normal: a subnormal one has lost digits, and distinct keys could coincide."""
    named = ", ".join(f"{name}={value!r}" for name, value in given.items())
    if not math.isfinite(top):
        raise OverflowError(f"level energies overflow at {named}")
    if key_one is not None and not key_one >= 2.0**-1022:
        raise OverflowError(f"level energies underflow at {named}")


class Frozen:
    """Immutable value: __init__ sets the subclass's __slots__ once; set and delete
    raise AttributeError. Equality (within a class), hash, copy, pickle and the
    repr Class(name=value, ...) all go by the slots."""

    __slots__ = ()

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot set or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return self._values() == other._values() if same else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        shown = (f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({', '.join(shown)})"


class UnitSystem(Frozen):
    """Physical constants scaling energies, entropies and temperatures.

    hbar is the reduced Planck constant (action units), k_boltzmann the
    Boltzmann constant (energy per temperature), mass the particle mass.
    Immutable, so instances can be shared freely.
    """

    __slots__ = ("hbar", "k_boltzmann", "mass")

    def __init__(self, hbar: float, k_boltzmann: float, mass: float) -> None:
        super().__init__(hbar, k_boltzmann, mass)
        for name in self.__slots__:
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
