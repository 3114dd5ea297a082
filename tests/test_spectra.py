import itertools
import math
import re
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from spectherm import (
    InputError,
    Spectrum,
    UnitSystem,
    box_modes,
    free_difference_energies,
    hilbert_dim_min,
    interval_energies,
    kinetic_prefactor,
    natural_units,
    radial_wavefunction,
    solve_radial_numeric,
    sphere_energies,
)
from spectherm.spectra import _lapack_lowest
from spectherm.thermo import _ball_levels, _ball_partition, _cube_partition, _level_scale

from oracles import (
    adaptive_simpson,
    dirichlet_tridiagonal_eigenvalue,
    dirichlet_tridiagonal_eigenvalue_mpmath,
    key_one_energy_mpmath,
    radial_overlap_mpmath,
    shooting_ground_energy,
    wavenumber_mpmath,
)


EPS = 2.0**-52

# (grid_points, k_lowest) where the free spectrum is checked digit by digit
FREE_MATRIX_CASES = [(500, 5), (2000, 5), (20000, 50), (100000, 50)]


def ulps_from(value: float, exact) -> float:
    """Distance of a double from an mpmath value, in units of the last place."""
    return float(abs(mp.mpf(float(value)) - exact)) / math.ulp(float(exact))


def ball_levels(r0: float, n_max: int, l_max: int, u: UnitSystem) -> tuple[tuple, tuple]:
    """(energies, multiplicities) of every level of the ball, in the order of thermo's
    ground-space walk: ascending energy."""
    pref, scale = _level_scale(u, l_max), _level_scale(u, n_max, r0)
    return tuple(zip(*_ball_levels(pref, scale, n_max, l_max)))


def harmonic_polynomial_dimension(l: int) -> int:
    """Brute-force count of harmonic homogeneous polynomials of degree l."""
    x, y, z = sympy.symbols("x y z")
    monomials = [
        x**i * y**j * z ** (l - i - j)
        for i in range(l + 1)
        for j in range(l + 1 - i)
    ]
    coeffs = sympy.symbols(f"c0:{len(monomials)}")
    poly = sum(c * m for c, m in zip(coeffs, monomials))
    laplacian = sympy.expand(
        sympy.diff(poly, x, 2) + sympy.diff(poly, y, 2) + sympy.diff(poly, z, 2)
    )
    constraints = sympy.Poly(laplacian, x, y, z).coeffs() if laplacian != 0 else []
    solution = sympy.linsolve(constraints, coeffs)
    free = len(solution.free_symbols) if solution else 0
    return free if constraints else len(monomials)


class TestAngularModes:
    # the sector multiplicities are the ball's: with one radial mode, level l is sector l
    def test_l_zero_sector(self, u):
        assert sphere_energies(0, u) == (0.0,)
        assert ball_levels(1.0, 1, 0, u)[1] == (1,)

    def test_l_one_energy(self, u):
        assert sphere_energies(1, u)[1] == 2.0

    @pytest.mark.parametrize("l", [1, 2])
    def test_degeneracy_matches_harmonic_polynomial_count(self, u, l):
        assert ball_levels(1.0, 1, l, u)[1][l] == harmonic_polynomial_dimension(l)

    def test_degeneracies_are_odd_integers(self, u):
        assert ball_levels(1.0, 1, 6, u)[1] == tuple(2 * l + 1 for l in range(7))

    def test_energies_nonnegative_and_increasing(self, u):
        energies = sphere_energies(8, u)
        assert np.all(np.array(energies) >= 0.0)
        assert np.all(np.diff(energies) > 0.0)

    def test_negative_l_max_rejected(self, u):
        with pytest.raises(ValueError):
            sphere_energies(-1, u)
        with pytest.raises(ValueError):
            _ball_partition(1.0, 1, -1, 0.0, u)


class TestRadialModes:
    def test_ground_mode_unit_ball(self, u):
        assert interval_energies(1.0, 1, u)[0] == math.pi**2
        # the mode function has wavenumber pi exactly
        assert radial_wavefunction(1, 1.0, 0.3) == math.sqrt(2.0) * math.sin(math.pi * 0.3) / 0.3

    def test_wavenumber_substitution(self, u):
        energy = interval_energies(2.0, 3, u)[2]
        assert math.sqrt(energy) == pytest.approx(3.0 * math.pi / 2.0, rel=1e-15)

    def test_energy_ratios_are_squares(self, u):
        energies = interval_energies(0.7, 6, u)
        for n, energy in enumerate(energies, start=1):
            assert energy / energies[0] == pytest.approx(n**2, rel=1e-12)

    def test_validation(self, u):
        with pytest.raises(ValueError):
            interval_energies(0.0, 3, u)
        with pytest.raises(ValueError):
            interval_energies(1.0, 0, u)


class TestRadialWavefunction:
    def test_midpoint_value(self):
        assert radial_wavefunction(1, 1.0, 0.5) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-15)

    def test_vanishes_at_boundary(self):
        assert abs(radial_wavefunction(1, 1.0, 1.0)) < 1e-14

    @pytest.mark.parametrize("r", [0.0, -0.5, 1.0 + 1e-12])
    def test_domain_enforced(self, r):
        with pytest.raises(ValueError):
            radial_wavefunction(1, 1.0, r)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("r0", [0.5, 1.0, 2.0])
    def test_normalization(self, n, r0):
        def integrand(r):  # r^2 psi^2 -> 0 at r = 0, where psi is not defined
            psi = radial_wavefunction(n, r0, r) if r else 0.0
            return r * r * psi * psi

        value = adaptive_simpson(integrand, 0.0, r0, tol=1e-11, min_depth=3)
        assert value == pytest.approx(1.0, abs=1e-10)

    def test_orthonormality_gram(self):
        # r^2-weighted overlaps of the first five modes form the identity
        for r0 in (0.5, 1.0, 2.0):
            for i in range(1, 6):
                for j in range(i, 6):

                    def integrand(r):
                        if not r:  # the limit of r^2 psi_i psi_j
                            return 0.0
                        return (
                            r
                            * r
                            * radial_wavefunction(i, r0, r)
                            * radial_wavefunction(j, r0, r)
                        )

                    value = adaptive_simpson(integrand, 0.0, r0, tol=1e-10, min_depth=3)
                    expected = 1.0 if i == j else 0.0
                    assert abs(value - expected) < 1e-8

    @pytest.mark.parametrize("r0", [2.2250738585072014e-308, 1e-310, 5e-324, math.inf])
    def test_r0_too_small_or_infinite_is_rejected_input(self, r0):
        # psi overflowed to inf at the smallest normal r0, and below it sin(inf)
        # raised a bare "math domain error"; an infinite r0 returned 0
        with pytest.raises(InputError, match="r0"):
            radial_wavefunction(1, r0, min(r0, 1.0))

    def test_overlap_matches_mpmath(self):
        def integrand(r):
            if not r:  # the limit of r^2 psi_1 psi_3
                return 0.0
            return r * r * radial_wavefunction(1, 2.0, r) * radial_wavefunction(3, 2.0, r)

        ours = adaptive_simpson(integrand, 0.0, 2.0, tol=1e-11, min_depth=3)
        assert ours == pytest.approx(radial_overlap_mpmath(1, 3, 2.0), abs=1e-10)


class TestNumericSolver:
    def test_matches_discrete_eigenvalue_formula(self, u):
        energies, _ = solve_radial_numeric(1.0, 2000, 5, u)
        for k in range(1, 6):
            exact = dirichlet_tridiagonal_eigenvalue(k, 2000)
            assert energies[k - 1] == pytest.approx(exact, rel=1e-8)

    def test_converges_to_continuum_ground_energy(self, u):
        energies, _ = solve_radial_numeric(1.0, 2000, 1, u)
        assert energies[0] == pytest.approx(math.pi**2, rel=1e-4)

    def test_five_lowest_match_analytic(self, u):
        energies, _ = solve_radial_numeric(1.0, 2000, 5, u)
        for numeric, exact in zip(energies, interval_energies(1.0, 5, u)):
            assert abs(numeric - exact) / exact < 1e-4

    def test_energy_ratios(self, u):
        energies, _ = solve_radial_numeric(1.0, 2000, 5, u)
        for n in range(1, 6):
            ratio = energies[n - 1] / energies[0]
            assert ratio == pytest.approx(n**2, rel=1e-5)

    def test_second_order_convergence(self, u):
        errors = []
        for grid_points in (251, 501, 1001, 2001):
            energies, _ = solve_radial_numeric(1.0, grid_points, 1, u)
            errors.append(abs(energies[0] - math.pi**2))
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 < coarse / fine < 4.5

    def test_scaled_domain_and_units(self):
        from spectherm import UnitSystem

        u2 = UnitSystem(hbar=2.0, k_boltzmann=1.0, mass=1.0)
        r0 = 2.0
        energies, _ = solve_radial_numeric(r0, 1500, 1, u2)
        expected = kinetic_prefactor(u2) * (math.pi / r0) ** 2
        assert energies[0] == pytest.approx(expected, rel=1e-5)

    def test_constant_potential_shifts_spectrum(self, u):
        free, _ = solve_radial_numeric(1.0, 600, 4, u)
        shifted, _ = solve_radial_numeric(1.0, 600, 4, u, potential=lambda r: 5.0)
        assert np.allclose(shifted - free, 5.0, atol=1e-8)

    def test_sampled_zero_potential_equals_free(self, u):
        free = solve_radial_numeric(1.0, 400, 3, u)
        sampled = solve_radial_numeric(1.0, 400, 3, u, potential=[0.0] * 400)
        assert np.array_equal(free[0], sampled[0])
        assert np.array_equal(free[1], sampled[1])

    @pytest.mark.parametrize(
        "well", [lambda r: r, lambda r: r * r, lambda r: 5.0 * r]
    )
    def test_confining_potential_keeps_ground_state_simple(self, u, well):
        energies, _ = solve_radial_numeric(1.0, 800, 6, u, potential=well)
        assert hilbert_dim_min(Spectrum(energies)) == 1

    def test_potential_ground_energy_matches_shooting_method(self, u):
        well = lambda r: r * r
        energies, _ = solve_radial_numeric(1.0, 3000, 1, u, potential=well)
        reference = shooting_ground_energy(well, math.pi**2, math.pi**2 + 1.0)
        assert energies[0] == pytest.approx(reference, rel=1e-6)

    # stebz squares the off-diagonal -pref/h^2, which overflows from about
    # 1.3e154 (r0 ~ 8e-77 here) although the Gershgorin bound is finite. A
    # well r <= r0 shifts each level by far less than the bisection width, so
    # the solver returns the free levels, also where it must scale the matrix.
    @pytest.mark.parametrize("r0", [1e-60, 1e-77, 1e-100, 1e-150])
    def test_lapack_beyond_the_squared_off_diagonal_range(self, u, r0):
        free = free_difference_energies(r0, 10, 2, u)
        energies, modes = solve_radial_numeric(r0, 10, 2, u, lambda r: r)
        assert energies.tolist() == pytest.approx(free, rel=1e-14)
        norms = np.sum(modes**2, axis=1) * (r0 / 9)
        assert norms.tolist() == pytest.approx([1.0, 1.0], rel=1e-12)

    def test_eigenpairs_satisfy_difference_equation(self, u):
        well = lambda r: 3.0 * r
        energies, modes = solve_radial_numeric(1.0, 400, 3, u, potential=well)
        h = 1.0 / 399
        r = np.linspace(0.0, 1.0, 400)
        for k in range(3):
            mode = modes[k]
            energy = energies[k]
            interior = slice(1, -1)
            second_diff = (mode[:-2] - 2.0 * mode[1:-1] + mode[2:]) / (h * h)
            residual = -second_diff + well(r[interior]) * mode[interior] - energy * mode[interior]
            assert np.max(np.abs(residual)) < 1e-6 * abs(energy)

    def test_mode_vectors_normalized_and_pinned(self, u):
        _, modes = solve_radial_numeric(1.0, 500, 3, u)
        h = 1.0 / 499
        for k in range(3):
            mode = modes[k]
            assert mode[0] == 0.0 and mode[-1] == 0.0
            assert np.sum(mode**2) * h == pytest.approx(1.0, abs=1e-12)
            assert mode[1] > 0.0  # deterministic sign convention

    def test_ground_mode_shape_matches_sine(self, u):
        _, modes = solve_radial_numeric(1.0, 500, 1, u)
        r = np.linspace(0.0, 1.0, 500)[1:-1]
        expected = math.sqrt(2.0) * np.sin(math.pi * r)
        assert np.max(np.abs(modes[0][1:-1] - expected)) < 1e-4

    def test_energies_ascending(self, u):
        energies, _ = solve_radial_numeric(1.0, 300, 8, u)
        assert np.all(np.diff(energies) > 0.0)

    def test_deterministic_across_calls(self, u):
        first = solve_radial_numeric(1.0, 700, 4, u)
        second = solve_radial_numeric(1.0, 700, 4, u)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    @pytest.mark.parametrize("grid_points, k_lowest", FREE_MATRIX_CASES)
    def test_free_energies_within_4_ulp_of_exact(self, u, grid_points, k_lowest):
        # the levels the solver starts from, without its grid_points x k_lowest modes
        energies = free_difference_energies(1.0, grid_points, k_lowest, u)
        for j, energy in enumerate(energies, start=1):
            exact = dirichlet_tridiagonal_eigenvalue_mpmath(j, grid_points)
            assert ulps_from(energy, exact) <= 4.0, j

    def test_free_energies_scale_with_units_and_domain(self):
        from spectherm import UnitSystem

        u2 = UnitSystem(hbar=2.0, k_boltzmann=1.0, mass=0.7)
        pref = kinetic_prefactor(u2)
        energies, _ = solve_radial_numeric(3.3, 1234, 6, u2)
        for j, energy in enumerate(energies, start=1):
            exact = dirichlet_tridiagonal_eigenvalue_mpmath(j, 1234, r0=3.3, pref=pref)
            assert ulps_from(energy, exact) <= 4.0, j

    @pytest.mark.parametrize("c", [0.0, 5.0, -2.5])
    def test_constant_potentials_shift_the_closed_form_exactly(self, u, c):
        free, _ = solve_radial_numeric(1.0, 700, 6, u)
        for potential in (lambda r: c, [c] * 700):
            shifted, _ = solve_radial_numeric(1.0, 700, 6, u, potential=potential)
            assert np.array_equal(shifted, free + c)

    # a well a + b r + c r^2 as a callable and as samples on the full grid,
    # given as a list, a tuple and an ndarray
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.floats(-50.0, 50.0), st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
        st.floats(0.1, 10.0), st.integers(5, 300), st.integers(1, 3),
    )
    def test_callable_and_sample_forms_agree_bitwise(self, a, b, c, r0, grid_points, k_lowest):
        well = lambda r: a + b * r + c * r * r
        samples = [well(r) for r in np.linspace(0.0, r0, grid_points)]
        first, *others = [
            solve_radial_numeric(r0, grid_points, k_lowest, natural_units(), p)
            for p in (well, samples, tuple(samples), np.array(samples))
        ]
        for other in others:
            assert np.array_equal(other[0], first[0])
            assert np.array_equal(other[1], first[1])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        st.floats(-1e6, 1e6), st.floats(0.1, 10.0), st.integers(3, 2000), st.integers(1, 5)
    )
    def test_constant_well_is_exactly_free_plus_c(self, c, r0, grid_points, k_lowest):
        k_lowest = min(k_lowest, grid_points - 2)
        free = solve_radial_numeric(r0, grid_points, k_lowest, natural_units())
        for potential in (lambda r: c, [c] * grid_points):
            shifted = solve_radial_numeric(r0, grid_points, k_lowest, natural_units(), potential)
            assert np.array_equal(shifted[0], free[0] + c)
            assert np.array_equal(shifted[1], free[1])

    def test_closed_form_modes_satisfy_difference_equation(self, u):
        energies, modes = solve_radial_numeric(1.0, 400, 3, u, potential=lambda r: 2.0)
        h = 1.0 / 399
        for mode, energy in zip(modes, energies):
            second_diff = (mode[:-2] - 2.0 * mode[1:-1] + mode[2:]) / (h * h)
            residual = -second_diff + 2.0 * mode[1:-1] - energy * mode[1:-1]
            assert np.max(np.abs(residual)) < 1e-9 * energy

    def test_free_eigenvalues_build_nothing_of_grid_size(self, u):
        # `spectrum --kind numeric` takes this path. The grid alone would be
        # 80 MB of float64; the closed form needs k sines.
        tracemalloc.start()
        try:
            energies = free_difference_energies(1.0, 10**7, 3, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(energies) == 3
        assert peak < 2**20

    def test_overflowing_free_energies_raise(self):
        from spectherm import UnitSystem

        tiny_mass = UnitSystem(hbar=1.0, k_boltzmann=1.0, mass=1e-307)
        with pytest.raises(OverflowError):
            solve_radial_numeric(1.0, 100000, 2, tiny_mass)

    @pytest.mark.parametrize("grid_points, k_lowest", FREE_MATRIX_CASES[:3])
    def test_lapack_within_bisection_width_of_closed_form(self, grid_points, k_lowest):
        # The LAPACK path on the free matrix, which the solver itself no
        # longer sends there: each value lies within EPS * |T|_1 of the
        # exact eigenvalue, |T|_1 = 4 pref / h^2 (natural units, r0 = 1).
        h = 1.0 / (grid_points - 1)
        inv_h2 = 1.0 / (h * h)
        energies, vectors = _lapack_lowest(
            np.full(grid_points - 2, 2.0 * inv_h2), np.full(grid_points - 3, -inv_h2), k_lowest
        )
        assert len(energies) == k_lowest and vectors.shape == (grid_points - 2, k_lowest)
        assert np.sum(vectors**2, axis=0).tolist() == pytest.approx([1.0] * k_lowest, rel=1e-12)
        width = EPS * 4.0 * inv_h2
        for j, energy in enumerate(energies, start=1):
            exact = dirichlet_tridiagonal_eigenvalue_mpmath(j, grid_points)
            assert float(abs(mp.mpf(float(energy)) - exact)) <= width, j

    def test_nonfinite_potential_rejected(self, u):
        with pytest.raises(ValueError):
            solve_radial_numeric(1.0, 50, 2, u, potential=lambda r: math.inf if r > 0.5 else 0.0)

    def test_sample_count_must_match_grid(self, u):
        with pytest.raises(ValueError):
            solve_radial_numeric(1.0, 50, 2, u, potential=[0.0] * 49)

    def test_grid_too_coarse(self, u):
        with pytest.raises(ValueError):
            solve_radial_numeric(1.0, 2, 1, u)

    def test_k_lowest_bounds(self, u):
        with pytest.raises(ValueError):
            solve_radial_numeric(1.0, 10, 9, u)
        with pytest.raises(ValueError):
            solve_radial_numeric(1.0, 10, 0, u)


class TestHilbertDimMin:
    def test_free_ball_ground_space(self, u):
        assert hilbert_dim_min(Spectrum(interval_energies(1.0, 8, u))) == 1

    def test_sphere_kernel(self, u):
        expanded = np.repeat(sphere_energies(4, u), [2 * l + 1 for l in range(5)])
        assert hilbert_dim_min(Spectrum(expanded)) == 1

    def test_cube_first_excited_level(self, u):
        _, energies = box_modes(1.0, 3, 3, u)
        assert hilbert_dim_min(Spectrum(energies[1:])) == 3

    def test_all_equal(self):
        assert hilbert_dim_min(Spectrum([5.0, 5.0, 5.0])) == 3

    def test_multiplicities_sum_exactly_past_2_to_the_53(self):
        # a float sum rounded 2**53 + 1 to 2**53
        assert hilbert_dim_min(Spectrum([0.0, 0.0], [2**53, 1])) == 2**53 + 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            hilbert_dim_min(Spectrum([]))

    # energies 0 or of magnitude 1e-100 .. 1e100, so scaling by 2**k with
    # |k| <= 200 is exact and keeps every product and gap a normal double
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        levels=st.lists(
            st.tuples(
                st.floats(min_value=-1e100, max_value=1e100).filter(
                    lambda e: e == 0.0 or abs(e) >= 1e-100
                ),
                st.integers(min_value=1, max_value=5),
            ),
            min_size=1,
            max_size=12,
        ),
        k=st.integers(min_value=-200, max_value=200),
    )
    def test_unchanged_when_energies_scale_by_a_power_of_two(self, levels, k):
        energies, multiplicities = zip(*levels)
        spectrum = Spectrum(energies, multiplicities)
        scaled = Spectrum([e * 2.0**k for e in spectrum.energies], spectrum.multiplicities)
        assert hilbert_dim_min(scaled) == hilbert_dim_min(spectrum)


def box_modes_by_tuples(side, d, n_max_per_axis, u):
    """Reference enumeration: one Python tuple per mode, sorted by (energy, tuple),
    each energy the correctly rounded key-1 energy times the mode's key."""
    scale = float(key_one_energy_mpmath(kinetic_prefactor(u), side))
    modes = sorted(
        (scale * sum(n * n for n in numbers), numbers)
        for numbers in itertools.product(range(1, n_max_per_axis + 1), repeat=d)
    )
    return [numbers for _, numbers in modes], [energy for energy, _ in modes]


class TestBoxModes:
    def test_ground_state_cube(self, u):
        numbers, energies = box_modes(1.0, 3, 2, u)
        assert numbers[0] == (1, 1, 1)
        assert energies[0] == pytest.approx(3.0 * math.pi**2, rel=1e-14)

    def test_ground_state_unique(self, u):
        _, energies = box_modes(1.0, 3, 2, u)
        assert hilbert_dim_min(Spectrum(energies)) == 1

    def test_one_dimensional_box_equals_radial_spectrum(self, u):
        _, box = box_modes(1.0, 1, 5, u)
        assert box == interval_energies(1.0, 5, u)

    # Every builder forms a level as the one key-1 energy times the int n^2
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        log_length=st.floats(min_value=-5.0, max_value=5.0),
        log_hbar=st.floats(min_value=-3.0, max_value=3.0),
        log_mass=st.floats(min_value=-3.0, max_value=3.0),
        n_max=st.integers(min_value=1, max_value=3000),
    )
    def test_interval_levels_are_one_dimensional_box_levels_bit_for_bit(
        self, log_length, log_hbar, log_mass, n_max
    ):
        length = math.exp(log_length)
        u = UnitSystem(math.exp(log_hbar), 1.0, math.exp(log_mass))
        levels = list(interval_energies(length, n_max, u))
        assert list(ball_levels(length, n_max, 0, u)[0]) == levels
        assert list(box_modes(length, 1, n_max, u)[1]) == levels

    def test_degenerate_levels_in_lexicographic_order(self, u):
        numbers, _ = box_modes(1.0, 3, 2, u)
        assert numbers[1:4] == ((1, 1, 2), (1, 2, 1), (2, 1, 1))

    def test_energies_sorted(self, u):
        _, energies = box_modes(2.0, 2, 4, u)
        assert np.all(np.diff(energies) >= 0.0)

    def test_mode_count(self, u):
        numbers, energies = box_modes(1.0, 3, 3, u)
        assert len(numbers) == len(energies) == 27
        assert {len(q) for q in numbers} == {3}

    @pytest.mark.parametrize(
        "side, d, n_max, units",
        [
            (1.0, 3, 4, UnitSystem(1.0, 1.0, 0.5)),
            (0.3, 2, 9, UnitSystem(1.3, 1.0, 0.7)),
            (2.0, 4, 3, UnitSystem(1e-3, 1.0, 1.9)),
            (5.5, 1, 7, UnitSystem(17.0, 1.0, 0.5)),
            (0.37, 5, 2, UnitSystem(2.9, 1.0, 0.5)),
        ],
    )
    def test_matches_tuple_enumeration_bit_for_bit(self, side, d, n_max, units):
        numbers, energies = box_modes(side, d, n_max, units)
        reference_numbers, reference_energies = box_modes_by_tuples(side, d, n_max, units)
        assert {type(n) for q in numbers for n in q} == {int}
        assert list(numbers) == reference_numbers
        assert list(energies) == reference_energies

    def test_one_mode_in_any_dimension(self, u):
        # as cheap as the mode count, whatever d
        numbers, energies = box_modes(1.0, 100_000, 1, u)
        assert numbers == ((1,) * 100_000,)
        assert energies == (math.pi**2 * 100_000,)
        # one level, key 10**6: the partition's ground term carries its bits
        assert _cube_partition(1.0, 10**6, 1, 0.0, u) == (1.0, 1, 1, None, None)
        ground = math.exp(-1e-7 * (math.pi**2 * 10**6))
        assert _cube_partition(1.0, 10**6, 1, 1e-7, u) == (ground, 1, 1, ground, 1.0)

    def test_validation(self, u):
        with pytest.raises(ValueError):
            box_modes(0.0, 3, 2, u)
        with pytest.raises(ValueError):
            box_modes(1.0, 0, 2, u)
        with pytest.raises(ValueError):
            box_modes(1.0, 3, 0, u)
        with pytest.raises(InputError, match=r"2\*\*54 box modes"):
            box_modes(1.0, 54, 2, u)


class TestLevelOverflow:
    # an energy beyond the double range is a computational failure naming
    # the inputs, raised before numpy can warn
    @pytest.mark.parametrize(
        "build, named",
        [
            (lambda u: interval_energies(1e-200, 5, u), "length=1e-200, n_max=5"),
            (lambda u: _ball_partition(1e-200, 5, 0, 1.0, u), "length=1e-200, n_max=5"),
            # the sectors overflow first, and their check names l_max
            (lambda u: _ball_partition(1e10, 5, 10, 1.0, UnitSystem(1e154, 1.0, 0.5)),
             "at l_max=10"),
            # neither the top sector nor the top radial level overflows, their sum does
            (lambda u: _ball_partition(11.0, 5, 1, 1.0, UnitSystem(1e154, 1.0, 1.0)),
             "r0=11.0, n_max=5, l_max=1"),
            (lambda u: sphere_energies(3, UnitSystem(1.0, 1.0, 1e-308)), "at l_max=3"),
            (lambda u: box_modes(1e-200, 3, 4, u), "side=1e-200, n_max=4"),
            (lambda u: box_modes(1e-153, 3, 4, u), "side=1e-153, n_max=4"),
            (lambda u: solve_radial_numeric(1.0, 100000, 2, UnitSystem(1.0, 1.0, 1e-307)),
             "r0=1.0, grid_points=100000, k_lowest=2"),
        ],
    )
    def test_overflow_names_the_inputs(self, u, build, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=named):
                build(u)

    # h^2 underflows to 0 with no potential; pref/h^2 overflows under a
    # potential LAPACK would solve; and only the Gershgorin bound
    # 4 pref/h^2 + max|U| overflows, the free levels do not
    @pytest.mark.parametrize(
        "r0, potential",
        [
            (1e-170, None),
            (1e-155, lambda r: r),
            (1e-150, lambda r: -1.7976931348623157e308 if r > 5e-151 else 0.0),
        ],
        ids=["h2-zero", "lapack", "gershgorin"],
    )
    def test_finite_difference_overflow_line(self, u, r0, potential):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError) as excinfo:
                solve_radial_numeric(r0, 10, 2, u, potential)
        assert str(excinfo.value) == (
            f"level energies overflow at r0={r0!r}, grid_points=10, k_lowest=2"
        )

    # (l_max + 1) n_max levels past 2**53, as for the box: refused before any sum
    @pytest.mark.parametrize(
        "n_max, l_max",
        [(25, 2**63 + 5), (2**26, 2**27), (1, 2**53), (2**53 + 1, 0)],
    )
    def test_more_than_2_53_ball_levels_is_rejected_input(self, u, n_max, l_max):
        with pytest.raises(InputError) as excinfo:
            _ball_partition(1.0, n_max, l_max, 1.0, u)
        assert str(excinfo.value) == (
            f"(l_max + 1)*n_max ball levels at l_max={l_max}, n_max={n_max}: more than 2**53"
        )

    def test_largest_finite_levels_accepted(self, u):
        side = math.pi * math.sqrt(48.0 / 1.7e308)
        assert box_modes(side, 3, 4, u)[1][-1] < math.inf
        assert interval_energies(1e-150, 4, u)[-1] < math.inf

    # a key-1 energy below the normal range would merge or blur levels
    @pytest.mark.parametrize(
        "build, named",
        [
            (lambda u: _cube_partition(1e200, 3, 4, 1.0, u), "side=1e+200, n_max=4"),
            (lambda u: _cube_partition(1e155, 3, 1, 1.0, u), "side=1e+155, n_max=1"),
            (lambda u: box_modes(1e200, 2, 3, u), "side=1e+200, n_max=3"),
            # the radial tower's n = 1 level underflows first
            (lambda u: _ball_partition(1e200, 4, 0, 1.0, u), "length=1e+200, n_max=4"),
            (lambda u: interval_energies(1e200, 3, u), "length=1e+200, n_max=3"),
            # the solver's closed form: pref/h^2 is 0 (h^2 overflows) or subnormal
            (lambda u: solve_radial_numeric(1e160, 10, 2, u),
             "r0=1e+160, grid_points=10, k_lowest=2"),
            (lambda u: free_difference_energies(1e156, 10, 2, u),
             "r0=1e+156, grid_points=10, k_lowest=2"),
            (lambda u: solve_radial_numeric(1e156, 10, 2, u, [5.0] * 10),
             "r0=1e+156, grid_points=10, k_lowest=2"),
        ],
    )
    def test_underflow_names_the_inputs(self, u, build, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match=re.escape(f"underflow at {named}") + "$"):
                build(u)

    # a subnormal hbar^2/(2m) is rejected input before any level is built
    @pytest.mark.parametrize(
        "build",
        [
            lambda v: _ball_partition(1.0, 4, 2, 1.0, v),
            lambda v: interval_energies(1.0, 2, v),
            lambda v: _cube_partition(1e-150, 3, 2, 1.0, v),
        ],
        ids=["ball", "interval", "box"],
    )
    def test_subnormal_prefactor_rejected(self, build):
        with pytest.raises(InputError, match=re.escape("hbar^2/(2 mass) must be")):
            build(UnitSystem(1e-155, 1.0, 1.0))

    def test_smallest_normal_key_energy_accepted(self, u):
        side = math.pi / math.sqrt(2.0**-1022) / 2.0  # key-1 energy 2**-1020
        # the cube's ground level 3 * 2**-1020, through its term at tau = 2**1018
        assert _cube_partition(side, 3, 2, 2.0**1018, u)[0] == math.exp(-0.75)
        assert ball_levels(side, 2, 0, u)[0][0] == 2.0**-1020
        assert interval_energies(side, 2, u)[0] == 2.0**-1020


def test_all_mode_families_have_nonnegative_energies(u):
    assert min(sphere_energies(6, u)) >= 0.0
    assert min(interval_energies(0.3, 6, u)) >= 0.0
    assert min(box_modes(1.5, 2, 4, u)[1]) >= 0.0
    energies, _ = solve_radial_numeric(1.0, 200, 5, natural_units())
    assert np.all(energies >= 0.0)
