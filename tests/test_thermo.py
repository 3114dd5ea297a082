import math
import sys
import warnings
from unittest import mock

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from spectherm import (
    NEGATIVE_INFINITE_ENTROPY,
    InputError,
    NoRealSolution,
    Spectrum,
    UnitSystem,
    boltzmann_weight_from_entropy,
    box_modes,
    duality_map,
    duality_map_from_temperature,
    entropy_expectation,
    entropy_from_density,
    hilbert_dim_min,
    ideal_gas_entropy,
    interval_energies,
    natural_units,
    qm_partition,
    quasistatic_partition,
    solve_fiducial_wavenumber,
    sphere_energies,
    thermal_partition,
)

from spectherm.spectra import _custom_partition
from spectherm.thermo import (
    _LOG_PAIRS, _UNIT_LEGENDRE, _ball_partition, _cube_partition, _entropy_quadrature,
    _level_scale, _sin2_rule,
)

from oracles import (
    ENTROPY_EXPECTATION, cube_levels, entropy_expectation_mpmath, gauss_rule_mpmath,
    wavenumber_mpmath,
)

EPS = 2.0**-52

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
log_uniform = st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0**e)


def radial_levels(n_max, r0=1.0, u=None):
    return Spectrum(interval_energies(r0, n_max, u or natural_units()))


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

    # The bound, fixed before measuring: the printed quadrature_bound, which assumes that
    # math.log, log1p and sin are within 1 ulp and math.lgamma within 2.5 eps |lgamma| + 8 eps,
    # and which is itself at most 1e-13 k_B. n reaches 2**53 and r0 the edges of the double
    # range, and every call evaluates the two 12-point rules once: 24 sines.
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(log_n=st.floats(0.0, math.log10(2**53)), log_r0=st.floats(-300.0, 300.0),
           kb=log_uniform)
    @example(log_n=0.0, log_r0=-300.0, kb=1.0)
    @example(log_n=math.log10(4999), log_r0=155.0, kb=2.0)
    @example(log_n=math.log10(13117595275), log_r0=0.0, kb=1.0)
    @example(log_n=math.log10(2**53), log_r0=0.0, kb=1.0)
    def test_quadrature_within_its_tolerance_of_mpmath(self, log_n, log_r0, kb):
        n, r0, u = min(round(10.0**log_n), 2**53), 10.0**log_r0, UnitSystem(1.0, kb, 0.5)
        with mock.patch("math.sin", wraps=math.sin) as sines:
            try:
                value, bound = _entropy_quadrature(n, r0, u)
            except InputError as exc:  # only where one lobe's width is not a normal double
                assert r0 / n < 2.0**-1022, exc
                assert str(exc) == f"w = r0/n is not a normal double at r0={r0!r}, n={n!r}"
                return
        assert sines.call_count == 24
        assert value == entropy_expectation(n, r0, "quadrature", u)
        with mp.workdps(40):
            x = 2 * mp.pi * n
            exact = 3 * mp.mpf(kb) * (mp.si(x) / x - 1)
            assert abs(value - exact) <= bound <= 1e-13 * kb

    # The library calls at the arguments the quadrature passes them, against 40-digit mpmath,
    # within the errors its bound assumes (fixed before this test was measured).
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(log_n=st.floats(0.0, math.log10(2**53)), log_r0=st.floats(-300.0, 300.0))
    def test_library_calls_within_the_assumed_error(self, log_n, log_r0):
        n, r0 = min(round(10.0**log_n), 2**53), 10.0**log_r0
        assume(r0 / n >= 2.0**-1022)
        v = r0 / n / r0
        calls = [(math.log, mp.log, v), (math.log, mp.log, n * v)]
        for x, _ in _UNIT_LEGENDRE:
            calls += [(math.log1p, mp.log1p, x / n), (math.log, mp.log, n + x)]
            calls += [(math.lgamma, mp.loggamma, n + x), (math.lgamma, mp.loggamma, 1 + x)]
        calls += [(math.sin, mp.sin, math.pi * x) for x, _ in _UNIT_LEGENDRE + _LOG_PAIRS]
        with mp.workdps(40):
            for ours, exact, arg in calls:
                got, want = ours(arg), exact(mp.mpf(arg))
                allowed = (2.5 * abs(want) + 8) * EPS if ours is math.lgamma else math.ulp(got)
                assert abs(got - want) <= allowed, (ours, arg)

    def test_bound_constants_hold(self):
        # The fixed terms of the quadrature's bound, against mpmath: the log rule's remainder,
        # (2 pi)^24/2/24! int pi_12^2 (-ln x); the Legendre rule's on sin^2(pi x), by its 24th
        # derivative; the error of the Legendre literals against the exact rule, weighted by
        # sin^2 and (for the nodes) by pi; and the log rule's sum of sin^2 against its integral.
        legendre, _ = gauss_rule_mpmath(lambda k: mp.mpf(1) / (k + 1))
        _, norm = gauss_rule_mpmath(lambda k: mp.mpf(1) / (k + 1) ** 2)
        with mp.workdps(40):
            derivative = (2 * mp.pi) ** 24 / 2
            assert derivative / mp.factorial(24) * norm <= 2.8e-20
            assert mp.factorial(12) ** 4 / (25 * mp.factorial(24) ** 3) * derivative <= 6.4e-20
            literals = mp.fsum(abs(mp.mpf(ours) - w) * mp.sin(mp.pi * x) ** 2
                               + mp.pi * ours * abs(mp.mpf(node) - x)
                               for (node, ours), (x, w) in zip(_UNIT_LEGENDRE, legendre))
            assert literals <= 1.9 * EPS
            integral = mp.quad(lambda x: -mp.sin(mp.pi * x) ** 2 * mp.log(x), [0, 1])
            assert abs(_sin2_rule(_LOG_PAIRS, lambda y: 1.0) - integral) <= 4 * EPS

    def test_quadrature_takes_n_up_to_2_53(self, u):
        with mp.workdps(40):
            x = 2 * mp.pi * 2**53
            exact = 3 * (mp.si(x) / x - 1)
            assert abs(entropy_expectation(2**53, 1.0, "quadrature", u) - exact) <= 1e-13
        with pytest.raises(InputError) as excinfo:
            entropy_expectation(2**53 + 1, 1.0, "quadrature", u)
        assert str(excinfo.value) == (
            f"n={2**53 + 1} is too large for the entropy quadrature: more than 2**53"
        )

    def test_closed_form_names_an_n_past_the_double_range(self, u):
        # 2 pi n rounds to inf past n of about 2.86e307, where Si's own check spoke
        assert entropy_expectation(10**307, 1.0, "closed_form", u) == -3.0
        with pytest.raises(InputError) as excinfo:
            entropy_expectation(10**308, 1.0, "closed_form", u)
        assert str(excinfo.value) == (
            f"n={10**308} is too large for the closed form: 2 pi n is not finite"
        )

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
            warnings.simplefilter("error")  # inf * 0 must not become a nan term
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
            pairs = zip(levels.energies, levels.multiplicities)
            expanded = [e for e, m in pairs for _ in range(int(m))]
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


def within_budget(got: float, terms, xs, scale=1) -> bool:
    """|got - Z| <= eps (8 sum(t x) + 4 Z), Z = scale * sum(t), at 50 digits."""
    z, zx = scale * mp.fsum(terms), scale * mp.fsum(t * x for t, x in zip(terms, xs))
    return abs(got - z) <= 2.0**-52 * (8 * zx + 4 * z)


class TestFactoredPartition:
    # The ball's and the cube's sums from their factors, against the sums over every
    # level, at 50 digits from the double inputs. The bound eps (8 sum(t x) + 4 Z) for
    # terms t = m exp(-x) is the benchmark's: a few roundings of each exponent x and of
    # each term, and the sum's. The ground exponent x_0 = s E_min is drawn from 1e-8 to
    # 700, so that every result is a normal double.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        hbar=log_uniform,
        mass=log_uniform,
        log_length=st.floats(min_value=-2.0, max_value=2.0),
        log_x0=st.floats(min_value=-8.0, max_value=math.log10(700.0)),
        cube=st.booleans(),
        extent=st.integers(min_value=1, max_value=4),
        l_max=st.integers(min_value=0, max_value=20),
        n_max=st.integers(min_value=1, max_value=30),
    )
    def test_sums_within_their_budget_of_mpmath(
        self, hbar, mass, log_length, log_x0, cube, extent, l_max, n_max
    ):
        u, length = UnitSystem(hbar, 1.0, mass), 10.0**log_length
        scale = _level_scale(u, n_max, length)
        if cube:  # extent is d
            tau = 10.0**log_x0 * hbar / (scale * extent)
            quasistatic, dim_min, _, qm, ratio = _cube_partition(length, extent, n_max, tau, u)
            levels = cube_levels(extent, n_max)
        else:
            tau = 10.0**log_x0 * hbar / scale
            quasistatic, dim_min, _, qm, ratio = _ball_partition(length, n_max, l_max, tau, u)
        with mp.workdps(50):
            pref = mp.mpf(hbar) ** 2 / (2 * mp.mpf(mass))
            key_one, s = pref * (mp.pi / mp.mpf(length)) ** 2, mp.mpf(tau) / mp.mpf(hbar)
            if cube:
                levels = [(key_one * key, m) for key, m in levels]
            else:
                levels = [(pref * l * (l + 1) + key_one * n * n, 2 * l + 1)
                          for l in range(l_max + 1) for n in range(1, n_max + 1)]
            x0 = s * min(e for e, _ in levels)
            xs = [s * e for e, _ in levels]
            terms = [m * mp.exp(-x) for x, (_, m) in zip(xs, levels)]
            shifted = [t * mp.exp(x0) for t in terms]
            assert within_budget(quasistatic, [dim_min * mp.exp(-x0)], [x0])
            assert within_budget(qm, terms, xs)
            assert within_budget(ratio, shifted, [x - x0 for x in xs], mp.mpf(1) / dim_min)

    # Many axes: the d-th power must not multiply the rounding of a term or of the
    # interval's sum by d. The reference factors as the sum does: Z = B^d, and
    # sum(t x) = d B^(d-1) sum_n(t_n x_n), exactly.
    @pytest.mark.parametrize("d, n_max", [(8, 15), (20, 6), (53, 2), (1000, 1), (10**6, 1)])
    @pytest.mark.parametrize("x0", [1e-8, 1e-3, 0.5, 50.0])
    def test_many_axes_within_their_budget_of_mpmath(self, u, d, n_max, x0):
        tau = x0 / (_level_scale(u, n_max, 1.0) * d)
        quasistatic, _, _, qm, ratio = _cube_partition(1.0, d, n_max, tau, u)
        with mp.workdps(60):
            a = mp.mpf(tau) * mp.pi**2
            assert within_budget(quasistatic, [mp.exp(-a * d)], [a * d])
            for got, shift in [(qm, 0), (ratio, 1)]:
                xs = [a * (n * n - shift) for n in range(1, n_max + 1)]
                b = mp.fsum(mp.exp(-x) for x in xs)
                sum_tx = d * b ** (d - 1) * mp.fsum(mp.exp(-x) * x for x in xs)
                assert abs(got - b**d) <= 2.0**-52 * (8 * sum_tx + 4 * b**d), shift

    # The ground dimension and the level count against the full level list, built from
    # the tables and counted by hilbert_dim_min. At r0 below about 1e-4 the lowest
    # sectors chain: their relative gaps fall under the degeneracy tolerance.
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        hbar=log_uniform,
        mass=log_uniform,
        log_length=st.floats(min_value=-6.0, max_value=2.0),
        cube=st.booleans(),
        d=st.integers(min_value=1, max_value=4),
        l_max=st.integers(min_value=0, max_value=100),
        n_max=st.integers(min_value=1, max_value=30),
    )
    def test_counts_match_the_full_level_list(
        self, hbar, mass, log_length, cube, d, l_max, n_max
    ):
        u, length = UnitSystem(hbar, 1.0, mass), 10.0**log_length
        if cube:
            scale = interval_energies(length, 1, u)[0]
            keys, counts = zip(*cube_levels(d, n_max))
            levels = Spectrum([scale * key for key in keys], counts)
            got = _cube_partition(length, d, n_max, 0.0, u)
        else:
            tower = interval_energies(length, n_max, u)
            energies = [e + en for e in sphere_energies(l_max, u) for en in tower]
            counts = [2 * l + 1 for l in range(l_max + 1) for _ in tower]
            levels = Spectrum(energies, counts)
            got = _ball_partition(length, n_max, l_max, 0.0, u)
        assert got[:3] == (float(hilbert_dim_min(levels)), hilbert_dim_min(levels), len(levels))

    def test_chained_sectors_of_a_tiny_ball(self, u):
        # every sector l <= 100 of the lowest radial level chains: 101**2 states in 303 levels
        assert _ball_partition(1e-6, 3, 100, 0.0, u) == (10201.0, 10201, 303, None, None)
        assert _ball_partition(1e-6, 3, 100, 1e-12, u)[1:3] == (10201, 303)

    def test_cube_counts_the_keys_box_modes_lists(self, u):
        for d, n_max in [(1, 7), (2, 5), (3, 4), (5, 3)]:
            assert _cube_partition(1.0, d, n_max, 0.0, u)[2] == len(set(box_modes(1.0, d, n_max, u)[1]))


class TestCustomPartition:
    # A level file's partition sums against the sums over its levels at 50 digits from the
    # double inputs, within the bound of TestFactoredPartition, eps (8 sum(t |x|) + 4 Z),
    # with |x| for the exponents of negative levels. Drawn: the ground exponent x_0 = s E_min,
    # 0 or of either sign with |x_0| in [1e-8, 700]; levels up to 800 above it, whose
    # shifted terms are subnormal past 708 and 0.0 past 745; multiplicities up to 1e30; and
    # s = inf (tau = 1e300 with hbar = 1e-150) in about half the draws. A ground space of
    # 2**53 or more states is refused, and a sum past the double range raises OverflowError.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        sign=st.sampled_from([-1.0, 0.0, 1.0]),
        size=st.floats(min_value=1e-8, max_value=700.0),
        ground=st.integers(min_value=1, max_value=2**40),
        excited=st.lists(st.tuples(st.floats(min_value=0.0, max_value=800.0),
                                   st.integers(min_value=1, max_value=10**30)), max_size=30),
        s=st.floats(min_value=1e-3, max_value=1e3),
        infinite=st.booleans(),
    )
    # shifting by E_min < 0 would put this qm 7.9 budgets off: the shift rounds to eps 43.7
    @example(sign=-1.0, size=43.737928027616505, ground=1,
             excited=[(43.74156060003703, 10**30)], s=55.57440184062024, infinite=False)
    def test_sums_within_their_budget_of_mpmath(self, sign, size, ground, excited, s, infinite):
        x0 = sign * size
        levels = Spectrum([(x0 + dx) / s for dx, _ in [(0.0, ground), *excited]],
                          [m for _, m in [(0.0, ground), *excited]])
        u, tau = (UnitSystem(1e-150, 1.0, 0.5), 1e300) if infinite else (natural_units(), s)
        dim_min = hilbert_dim_min(levels)
        if dim_min >= 2**53:
            with pytest.raises(InputError, match="2\\*\\*53 or more"):
                _custom_partition(levels, tau, u, "levels.txt")
            return
        e_min = levels.energies[0]
        with mp.workdps(50):
            s_exact = mp.inf if infinite else mp.mpf(s)

            def sums(energies, scale=1):  # (t, |x|) of the nonzero terms, and their sum
                xs = [s_exact * mp.mpf(e) if e else mp.mpf(0) for e, _ in energies]
                pairs = [(m * mp.exp(-x), abs(x)) for x, (_, m) in zip(xs, energies)]
                pairs = [(t, x) for t, x in pairs if t]
                return pairs, scale * mp.fsum(t for t, _ in pairs)

            quasistatic, z = sums([(e_min, dim_min)]), sums(list(levels))
            shifted = sums([(mp.mpf(e) - e_min, m) for e, m in levels], mp.mpf(1) / dim_min)
            if max(quasistatic[1], z[1]) > sys.float_info.max:
                with pytest.raises(OverflowError):
                    _custom_partition(levels, tau, u, "levels.txt")
                return
            got = _custom_partition(levels, tau, u, "levels.txt")
            assert got[1:3] == (dim_min, len(levels))
            for value, (pairs, _), scale in [(got[0], quasistatic, 1), (got[3], z, 1),
                                              (got[4], shifted, mp.mpf(1) / dim_min)]:
                assert within_budget(value, *zip(*pairs), scale) if pairs else value == 0.0


def test_negative_infinite_entropy_constant():
    assert NEGATIVE_INFINITE_ENTROPY == float("-inf")
    assert math.isinf(NEGATIVE_INFINITE_ENTROPY)
