import math

import pytest

from spectherm import InputError, UnitSystem, kinetic_prefactor, natural_units


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
