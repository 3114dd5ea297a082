import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from spectherm import (
    NEGATIVE_INFINITE_ENTROPY,
    InputError,
    NoRealSolution,
    Spectrum,
    UnitSystem,
    boltzmann_weight_from_entropy,
    duality_map,
    duality_map_from_temperature,
    entropy_expectation,
    entropy_from_density,
    hilbert_dim_min,
    ideal_gas_entropy,
    interval_spectrum,
    natural_units,
    integrate,
    qm_partition,
    quasistatic_partition,
    radial_wavefunction,
    solve_fiducial_wavenumber,
    thermal_partition,
)

from oracles import ENTROPY_EXPECTATION, entropy_expectation_mpmath, wavenumber_mpmath

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
log_uniform = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)


def radial_levels(n_max, r0=1.0, u=None):
    return interval_spectrum(r0, n_max, u or natural_units())


class TestFundamentalEquation:
    """The reference state (S0, V0) of S(V) = S0 + k_B ln(V/V0), checked by
    each function that reads it, with one message."""

    @pytest.mark.parametrize("bad_s0", [math.nan, math.inf])
    def test_bad_s0_rejected(self, u, bad_s0):
        message = rf"^s0 must be finite or -inf, got {bad_s0!r}$"
        with pytest.raises(InputError, match=message):
            ideal_gas_entropy(1.0, bad_s0, 1.0, u)
        with pytest.raises(InputError, match=message):
            solve_fiducial_wavenumber(bad_s0, 1.0, 1, u)

    def test_bad_v0_rejected(self, u):
        with pytest.raises(InputError, match=r"^v0 must be positive and finite, got 0.0$"):
            ideal_gas_entropy(1.0, 0.0, 0.0, u)


class TestIdealGasEntropy:
    def test_fiducial_volume_returns_s0(self, u):
        assert ideal_gas_entropy(2.0, 3.25, 2.0, u) == 3.25

    def test_volume_e_fold_adds_one_kb(self, u):
        assert ideal_gas_entropy(math.e, 1.0, 1.0, u) == pytest.approx(2.0, abs=1e-15)

    def test_doubling_adds_kb_log_two(self, u):
        for v in (0.4, 1.0, 5.0):
            delta = ideal_gas_entropy(2.0 * v, 0.7, 0.4, u) - ideal_gas_entropy(v, 0.7, 0.4, u)
            assert delta == pytest.approx(math.log(2.0), abs=1e-13)

    def test_sentinel_propagates(self, u):
        s = ideal_gas_entropy(7.0, NEGATIVE_INFINITE_ENTROPY, 1.0, u)
        assert s == NEGATIVE_INFINITE_ENTROPY

    def test_nonpositive_volume_rejected(self, u):
        with pytest.raises(ValueError):
            ideal_gas_entropy(0.0, 0.0, 1.0, u)

    def test_kb_scales_entropy(self):
        from spectherm import UnitSystem

        u2 = UnitSystem(hbar=1.0, k_boltzmann=2.0, mass=0.5)
        assert ideal_gas_entropy(math.e, 0.0, 1.0, u2) == pytest.approx(2.0, abs=1e-15)


class TestEntropyExpectation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_closed_form_frozen_values(self, u, n):
        value = entropy_expectation(n, 1.0, "closed_form", u)
        assert value == pytest.approx(ENTROPY_EXPECTATION[n], abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_closed_form_vs_quadrature(self, u, n):
        closed = entropy_expectation(n, 1.0, "closed_form", u)
        quad = entropy_expectation(n, 1.0, "quadrature", u)
        assert abs(closed - quad) < 1e-8

    def test_quadrature_against_mpmath(self, u):
        ours = entropy_expectation(1, 1.0, "quadrature", u)
        assert ours == pytest.approx(entropy_expectation_mpmath(1), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_metric_freeness_of_quadrature(self, u, n):
        reference = entropy_expectation(n, 1.0, "quadrature", u)
        for r0 in (0.5, 2.0, 10.0):
            value = entropy_expectation(n, r0, "quadrature", u)
            assert abs(value - reference) < 1e-8

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(n=st.integers(1, 2000), r0=log_uniform, kb=log_uniform)
    def test_quadrature_integrates_the_radial_wavefunction_bit_for_bit(self, n, r0, kb):
        u = UnitSystem(1.0, kb, 0.5)

        def integrand(r):
            psi = radial_wavefunction(n, r0, r)
            return r * r * psi * psi * math.log(r / r0)

        expected = 3.0 * kb * integrate(integrand, 0.0, r0)
        assert entropy_expectation(n, r0, "quadrature", u).hex() == expected.hex()

    def test_closed_form_ignores_r0_exactly(self, u):
        assert entropy_expectation(2, 0.5, "closed_form", u) == entropy_expectation(
            2, 10.0, "closed_form", u
        )

    def test_large_n_limit(self, u):
        value = entropy_expectation(1000, 1.0, "closed_form", u)
        assert abs(value + 3.0) < 0.001

    def test_kb_scales_result(self):
        from spectherm import UnitSystem

        u2 = UnitSystem(hbar=1.0, k_boltzmann=3.0, mass=0.5)
        assert entropy_expectation(1, 1.0, "closed_form", u2) == pytest.approx(
            3.0 * ENTROPY_EXPECTATION[1], rel=1e-14
        )

    def test_validation(self, u):
        with pytest.raises(ValueError):
            entropy_expectation(0, 1.0, "closed_form", u)
        with pytest.raises(ValueError):
            entropy_expectation(1, -1.0, "closed_form", u)
        with pytest.raises(ValueError):
            entropy_expectation(1, 1.0, "series", u)


class TestDensityEntropyRelation:
    def test_unit_density(self, u):
        assert entropy_from_density(1.0, u) == 0.0

    def test_e_density(self, u):
        assert entropy_from_density(math.e, u) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("x", [1e-8, 0.2, 1.0, 3.7, 1e6])
    def test_round_trip(self, u, x):
        assert boltzmann_weight_from_entropy(entropy_from_density(x, u), u) == pytest.approx(
            x, rel=1e-14
        )

    @pytest.mark.parametrize("s", [-5.0, 0.0, 2.5])
    def test_inverse_round_trip(self, u, s):
        assert entropy_from_density(boltzmann_weight_from_entropy(s, u), u) == pytest.approx(
            s, abs=1e-13
        )

    def test_nonpositive_density_rejected(self, u):
        with pytest.raises(ValueError):
            entropy_from_density(0.0, u)


class TestBoltzmannWeight:
    def test_zero_entropy(self, u):
        assert boltzmann_weight_from_entropy(0.0, u) == 1.0

    def test_log_two(self, u):
        assert boltzmann_weight_from_entropy(math.log(2.0), u) == pytest.approx(
            2.0, rel=1e-15
        )

    @pytest.mark.parametrize("s1,s2", [(0.3, 1.1), (-2.0, 0.5), (4.0, 4.0)])
    def test_multiplicative(self, u, s1, s2):
        w = boltzmann_weight_from_entropy
        assert w(s1 + s2, u) == pytest.approx(w(s1, u) * w(s2, u), rel=1e-14)

    def test_overflow_reported(self, u):
        with pytest.raises(OverflowError, match=r"^exp\(800\) exceeds the double-precision"):
            boltzmann_weight_from_entropy(800.0, u)

    def test_nonfinite_rejected(self, u):
        with pytest.raises(ValueError):
            boltzmann_weight_from_entropy(NEGATIVE_INFINITE_ENTROPY, u)


class TestFiducialWavenumber:
    def test_half_amplitude_root_is_pi_over_six(self, u):
        s0 = 2.0 * math.log(0.5)
        c = solve_fiducial_wavenumber(s0, 1.0, 1, u)
        assert abs(c - math.pi / 6.0) < 1e-10
        assert c == pytest.approx(math.asin(0.5), abs=1e-12)

    def test_second_branch_is_reflected_root(self, u):
        s0 = 2.0 * math.log(0.5)
        c = solve_fiducial_wavenumber(s0, 1.0, 2, u)
        assert c == pytest.approx(math.pi - math.asin(0.5), abs=1e-12)

    def test_third_branch_shifts_by_full_period(self, u):
        s0 = 2.0 * math.log(0.5)
        c = solve_fiducial_wavenumber(s0, 1.0, 3, u)
        assert c == pytest.approx(2.0 * math.pi + math.asin(0.5), abs=1e-12)

    def test_no_real_solution(self, u):
        s0 = 2.0 * math.log(1.5)
        with pytest.raises(NoRealSolution):
            solve_fiducial_wavenumber(s0, 1.0, 1, u)

    def test_oversized_entropy_does_not_overflow(self, u):
        s0 = 5000.0
        with pytest.raises(NoRealSolution):
            solve_fiducial_wavenumber(s0, 1.0, 1, u)

    @pytest.mark.parametrize("r0", [1.0, 2.0])
    @pytest.mark.parametrize("branch", [1, 2, 3, 4, 5])
    def test_sentinel_gives_exact_sine_nodes(self, u, r0, branch):
        s0 = NEGATIVE_INFINITE_ENTROPY
        # the sine node correctly rounded: its 60-digit value rounded once
        assert solve_fiducial_wavenumber(s0, r0, branch, u) == float(wavenumber_mpmath(branch, r0))

    @pytest.mark.parametrize(
        "s0,r0,branch",
        [
            (2.0 * math.log(0.5), 1.0, 1),
            (2.0 * math.log(0.5), 1.0, 4),
            (2.0 * math.log(0.2), 2.0, 2),
            (-3.0, 0.7, 3),
        ],
    )
    def test_constraint_residual(self, u, s0, r0, branch):
        c = solve_fiducial_wavenumber(s0, r0, branch, u)
        assert math.sin(c * r0) / r0 == pytest.approx(
            math.exp(s0 / 2.0), abs=1e-12
        )

    def test_tangency_case(self, u):
        # exp(s0/2kB) = 1 with r0 = 1 puts the root at the sine maximum
        s0 = 0.0
        assert solve_fiducial_wavenumber(s0, 1.0, 1, u) == pytest.approx(
            0.5 * math.pi, abs=1e-12
        )
        assert solve_fiducial_wavenumber(s0, 1.0, 2, u) == pytest.approx(
            2.5 * math.pi, abs=1e-12
        )

    @PROPERTY
    @given(
        r0=log_uniform,
        y=st.one_of(
            st.floats(min_value=-12.0, max_value=0.0).map(lambda e: 10.0**e),
            st.floats(min_value=0.9, max_value=1.0),
        ),
        branch=st.one_of(st.integers(1, 4), st.integers(1, 10**6)),
    )
    def test_root_within_3_ulp_of_mpmath(self, r0, y, branch):
        u = natural_units()
        s0 = 2.0 * math.log(y / r0)
        target = math.exp(s0 / 2.0) * r0  # the sine value the solver forms
        assume(target < 1.0)
        c = solve_fiducial_wavenumber(s0, r0, branch, u)
        period, falling = divmod(branch - 1, 2)
        with mp.workdps(50):
            rising = mp.asin(mp.mpf(target))
            x = 2 * mp.pi * period + (mp.pi - rising if falling else rising)
            assert abs(mp.mpf(c) - x / r0) <= 3 * math.ulp(c)

    def test_deep_entropy_limit_approaches_sine_nodes(self, u):
        # as s0 drops, the k-th positive root slides toward (k-1) pi; the
        # sentinel indexing counts the quantized modes n pi instead
        s0 = -80.0
        assert solve_fiducial_wavenumber(s0, 1.0, 2, u) == pytest.approx(
            math.pi, rel=1e-9
        )
        assert solve_fiducial_wavenumber(s0, 1.0, 3, u) == pytest.approx(
            2.0 * math.pi, rel=1e-9
        )

    def test_validation(self, u):
        s0 = -1.0
        with pytest.raises(ValueError):
            solve_fiducial_wavenumber(s0, 0.0, 1, u)
        with pytest.raises(ValueError):
            solve_fiducial_wavenumber(s0, 1.0, 0, u)


class TestDuality:
    def test_unit_point(self, u):
        assert duality_map(1.0, u) == 1.0

    @pytest.mark.parametrize("tau", [0.25, 0.5, 1.0, 2.0, 3.0, 5.0])
    def test_doubling_tau_halves_temperature(self, u, tau):
        assert duality_map(2.0 * tau, u) == duality_map(tau, u) / 2.0

    @pytest.mark.parametrize("tau", [0.125, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 8.0, math.pi])
    def test_round_trip_exact(self, u, tau):
        temperature = duality_map(tau, u)
        assert duality_map_from_temperature(temperature, u) == tau

    @pytest.mark.parametrize("tau", [0.3, 0.9, 1.7, 6.1, 49.0])
    def test_round_trip_within_one_ulp(self, u, tau):
        temperature = duality_map(tau, u)
        back = duality_map_from_temperature(temperature, u)
        assert abs(back - tau) <= math.ulp(tau)

    def test_residual_tiny(self):
        u2 = UnitSystem(hbar=3.0, k_boltzmann=0.7, mass=1.0)
        tau, temperature = 2.2, duality_map(2.2, u2)
        assert abs(tau * u2.k_boltzmann * temperature / u2.hbar - 1.0) < 1e-15

    def test_nonpositive_rejected(self, u):
        with pytest.raises(ValueError):
            duality_map(0.0, u)
        with pytest.raises(ValueError):
            duality_map_from_temperature(-1.0, u)

    def test_subnormal_dual_rejected(self):
        # hbar/(k_B x) = 1e-310 is subnormal and has lost digits
        u2 = UnitSystem(hbar=1e-10, k_boltzmann=1.0, mass=0.5)
        with pytest.raises(OverflowError, match="tau=1e[+]300 is not a normal double"):
            duality_map(1e300, u2)
        with pytest.raises(OverflowError, match="temperature=1e[+]300 is not a normal double"):
            duality_map_from_temperature(1e300, u2)

    def test_zero_product_is_an_infinite_dual(self):
        # k_B * x underflows to 0.0, so hbar/(k_B x) is infinite, not a division by zero
        u2 = UnitSystem(hbar=1.0, k_boltzmann=5e-324, mass=0.5)
        with pytest.raises(OverflowError, match="tau=0.3 is not a normal double"):
            duality_map(0.3, u2)
        with pytest.raises(OverflowError, match="temperature=0.3 is not a normal double"):
            duality_map_from_temperature(0.3, u2)

    def test_smallest_normal_dual_accepted(self):
        u2 = UnitSystem(hbar=2.0**-1022, k_boltzmann=1.0, mass=0.5)
        assert duality_map(1.0, u2) == 2.0**-1022
        assert duality_map_from_temperature(1.0, u2) == 2.0**-1022


class TestQmPartition:
    @pytest.mark.parametrize("tau", [0.1, 1.0, 10.0])
    def test_single_zero_level(self, u, tau):
        assert qm_partition(Spectrum([0.0], [1]), tau, u) == 1.0

    def test_two_level_example(self, u):
        levels = Spectrum([0.0, 1.0], [2, 1])
        assert qm_partition(levels, 1.0, u) == pytest.approx(
            2.0 + math.exp(-1.0), abs=1e-15
        )

    def test_dominated_by_ground_at_large_tau(self, u):
        levels = radial_levels(12)
        tau = 2.0
        expected = math.exp(-math.pi**2 * tau)
        assert qm_partition(levels, tau, u) == pytest.approx(expected, rel=1e-10)

    def test_strictly_decreasing_in_tau(self, u):
        levels = radial_levels(8)
        taus = [0.05, 0.1, 0.4, 1.0, 2.0]
        values = [qm_partition(levels, t, u) for t in taus]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_log_convex_in_tau(self, u):
        levels = Spectrum([0.0, 1.0, 3.0], [1, 2, 1])
        for t1 in (0.2, 0.5, 1.1):
            t3 = t1 + 0.6
            t2 = 0.5 * (t1 + t3)
            mid = math.log(qm_partition(levels, t2, u))
            ends = 0.5 * (
                math.log(qm_partition(levels, t1, u))
                + math.log(qm_partition(levels, t3, u))
            )
            assert mid <= ends + 1e-12

    def test_hbar_scales_tau(self):
        from spectherm import UnitSystem

        u2 = UnitSystem(hbar=2.0, k_boltzmann=1.0, mass=0.5)
        levels = Spectrum([1.0], [1])
        assert qm_partition(levels, 2.0, u2) == qm_partition(
            levels, 1.0, natural_units()
        )

    def test_zero_level_kept_where_tau_over_hbar_overflows(self):
        # tau/hbar = inf: exp(-inf E) is 1 at E = 0, 0 above and overflows below
        u2 = UnitSystem(hbar=1e-10, k_boltzmann=1.0, mass=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # inf * 0 must not reach numpy as nan
            assert qm_partition(Spectrum([0.0, 1.0]), 1e300, u2) == 1.0
            assert quasistatic_partition(Spectrum([0.0, 1.0]), 1e300, u2) == 1.0
            assert qm_partition(Spectrum([0.0, 0.0, 2.0], [2, 3, 1]), 1e300, u2) == 5.0
            assert qm_partition(Spectrum([1.0, 2.0]), 1e300, u2) == 0.0
            with pytest.raises(OverflowError):
                qm_partition(Spectrum([-1.0, 0.0]), 1e300, u2)

    def test_validation(self, u):
        with pytest.raises(ValueError):
            qm_partition(Spectrum([], []), 1.0, u)
        with pytest.raises(ValueError):
            qm_partition(Spectrum([0.0], [1]), 0.0, u)


class TestThermalDualityConsistency:
    @pytest.mark.parametrize("tau", [0.25, 0.5, 1.0, 2.0, 3.0, 4.0])
    def test_bit_for_bit_duality(self, u, tau):
        levels = radial_levels(10)
        temperature = duality_map(tau, u)
        assert thermal_partition(levels, temperature, u) == qm_partition(levels, tau, u)

    def test_thermal_partition_directly(self, u):
        levels = Spectrum([0.0, 2.0], [1, 1])
        # T = 2 corresponds to tau = 1/2 in natural units
        assert thermal_partition(levels, 2.0, u) == pytest.approx(
            1.0 + math.exp(-1.0), abs=1e-15
        )


class TestQuasistaticPartition:
    def test_unit_ball_ground_dimension(self, u):
        assert quasistatic_partition(radial_levels(10), 0.0, u) == 1.0

    def test_multiplicity_three_at_zero(self, u):
        assert quasistatic_partition(Spectrum([0.0], [3]), 0.0, u) == 3.0

    def test_exponential_decay(self, u):
        levels = radial_levels(5)
        tau = 0.7
        expected = math.exp(-math.pi**2 * tau)
        assert quasistatic_partition(levels, tau, u) == pytest.approx(expected, rel=1e-14)

    def test_ratio_to_full_partition_approaches_one(self, u):
        levels = radial_levels(20)
        gap = levels.energies[1] - levels.energies[0]
        tau = 10.0 / gap
        ratio = qm_partition(levels, tau, u) / quasistatic_partition(levels, tau, u)
        assert 1.0 <= ratio < 1.001

    def test_matches_hilbert_dim_min(self, u):
        cases = [
            radial_levels(10),
            Spectrum([0.0, 1.0], [3, 2]),
            Spectrum([1.0, 1.0 + 1e-12, 5.0], [2, 1, 1]),
        ]
        for levels in cases:
            expanded = np.repeat(levels.energies, levels.multiplicities.astype(int))
            dim = hilbert_dim_min(Spectrum(expanded))
            assert quasistatic_partition(levels, 0.0, u) == float(dim)

    # spectra whose ground eigenspace is their first level: a cluster of
    # distinct near-degenerate levels is counted at E_min, above its own sum
    @PROPERTY
    @given(
        levels=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=100.0), st.integers(1, 10**6)),
            min_size=1,
            max_size=20,
        ),
        hbar=log_uniform,
        tau=log_uniform,
    )
    def test_never_exceeds_qm_partition(self, levels, hbar, tau):
        u = UnitSystem(hbar, 1.0, 0.5)
        spectrum = Spectrum(*zip(*levels))
        assume(hilbert_dim_min(spectrum) == spectrum.multiplicities[0])
        ground = Spectrum(spectrum.energies[:1], spectrum.multiplicities[:1])
        quasistatic = quasistatic_partition(spectrum, tau, u)
        assert qm_partition(spectrum, tau, u) >= quasistatic
        assert qm_partition(ground, tau, u) == quasistatic

    def test_overflow_names_tau_and_lowest_energy(self, u):
        # exp(709.0) is finite; 3 * exp(709.0) and exp(1418.0) are not
        for levels, tau in [(Spectrum([-709.0, 2.0], [3, 1]), 1.0), (Spectrum([-709.0]), 2.0)]:
            with pytest.raises(OverflowError, match=f"tau={tau!r} with E_min=-709.0 "):
                quasistatic_partition(levels, tau, u)

    def test_validation(self, u):
        with pytest.raises(ValueError):
            quasistatic_partition(Spectrum([], []), 0.0, u)
        with pytest.raises(ValueError):
            quasistatic_partition(Spectrum([0.0], [1]), -1.0, u)


def test_negative_infinite_entropy_constant():
    assert NEGATIVE_INFINITE_ENTROPY == float("-inf")
    assert math.isinf(NEGATIVE_INFINITE_ENTROPY)
