import copy
import math
import pickle

import pytest

from spectherm import (
    InputError,
    Spectrum,
    UnitSystem,
    kinetic_prefactor,
    natural_units,
)


def test_natural_units_defaults():
    u = natural_units()
    assert (u.hbar, u.k_boltzmann, u.mass) == (1.0, 1.0, 0.5)


def test_natural_units_kinetic_prefactor_is_one():
    assert kinetic_prefactor(natural_units()) == 1.0


def test_entropy_unit_is_one_under_defaults():
    assert natural_units().k_boltzmann == 1.0


@pytest.mark.parametrize(
    "hbar,kb,mass,expected",
    [(1.0, 1.0, 0.5, 1.0), (2.0, 1.0, 1.0, 2.0), (1.0, 1.0, 1.0, 0.5)],
)
def test_kinetic_prefactor_examples(hbar, kb, mass, expected):
    assert kinetic_prefactor(UnitSystem(hbar, kb, mass)) == expected


@pytest.mark.parametrize("hbar", [0.3, 1.0, 2.5])
@pytest.mark.parametrize("mass", [0.5, 1.0, 3.0])
def test_prefactor_scales_quadratically_in_hbar(hbar, mass):
    base = kinetic_prefactor(UnitSystem(hbar, 1.0, mass))
    doubled = kinetic_prefactor(UnitSystem(2.0 * hbar, 1.0, mass))
    assert doubled == pytest.approx(4.0 * base, rel=1e-15)


@pytest.mark.parametrize("mass", [0.25, 1.0, 4.0])
def test_prefactor_inverse_in_mass(mass):
    base = kinetic_prefactor(UnitSystem(1.0, 1.0, mass))
    heavier = kinetic_prefactor(UnitSystem(1.0, 1.0, 2.0 * mass))
    assert heavier == pytest.approx(0.5 * base, rel=1e-15)


def test_prefactor_positive():
    assert kinetic_prefactor(UnitSystem(0.01, 7.0, 30.0)) > 0.0


# subnormal (the first two), zero, and overflowing prefactors
@pytest.mark.parametrize("hbar", [1e-155, 2.0**-511, 1e-170, 1e200])
def test_prefactor_outside_the_normal_range_rejected(hbar):
    with pytest.raises(InputError, match=r"^hbar\^2/\(2 mass\) must be .* normal"):
        kinetic_prefactor(UnitSystem(hbar, 1.0, 1.0))


def test_smallest_normal_prefactor_accepted():
    assert kinetic_prefactor(UnitSystem(2.0**-511, 1.0, 0.5)) == 2.0**-1022


@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
@pytest.mark.parametrize("field", ["hbar", "k_boltzmann", "mass"])
def test_invalid_constants_rejected(bad, field):
    kwargs = {"hbar": 1.0, "k_boltzmann": 1.0, "mass": 0.5}
    kwargs[field] = bad
    with pytest.raises(ValueError):
        UnitSystem(**kwargs)


def test_unit_system_is_immutable():
    u = natural_units()
    with pytest.raises(Exception):
        u.hbar = 2.0


# The value classes: each with its fields, given positionally and by keyword,
# its repr, and whether it compares by value (Spectrum, which holds arrays,
# compares by identity).
VALUE_CLASSES = [
    (UnitSystem, dict(hbar=1.0, k_boltzmann=1.0, mass=0.5),
     "UnitSystem(hbar=1.0, k_boltzmann=1.0, mass=0.5)", True),
    (Spectrum, dict(energies=[2.0, 1.0], multiplicities=[1.0, 3.0]),
     "Spectrum(energies=array([1., 2.]), multiplicities=array([3., 1.]))", False),
]


@pytest.mark.parametrize(
    "cls,fields,text,by_value", VALUE_CLASSES, ids=[case[0].__name__ for case in VALUE_CLASSES]
)
def test_value_class_contract(cls, fields, text, by_value):
    args, first = tuple(fields.values()), next(iter(fields))
    value, keywords = cls(*args), cls(**fields)
    assert repr(value) == repr(keywords) == text
    assert repr(copy.copy(value)) == repr(pickle.loads(pickle.dumps(value))) == text
    for name in (first, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
    with pytest.raises(AttributeError):
        delattr(value, first)
    assert repr(value) == text
    if by_value:
        assert value == keywords and hash(value) == hash(keywords)
        assert value != cls(*args[:-1], 7.0) and value != args
    else:
        assert value == value and value != keywords
        assert hash(value) == object.__hash__(value)
