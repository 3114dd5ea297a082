import math
import re
import sys
import warnings
from array import array
from collections import Counter
from functools import partial

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spectherm import (
    InputError,
    Spectrum,
    UnitSystem,
    box_modes,
    heat_trace,
    hilbert_dim_min,
    kinetic_prefactor,
    interval_heat_trace,
    interval_energies,
    natural_units,
    qm_partition,
    quasistatic_partition,
    weyl_convergence_scan,
    weyl_volume_estimate,
)
from spectherm import thermo
from spectherm.thermo import _cube_partition

from oracles import (
    CUBE_VOLUME_ESTIMATE_1E6,
    EXP_MINUS_PI2_OVER_10,
    INTERVAL_VOLUME_ESTIMATE,
    boltzmann_sum_mpmath,
    cube_levels,
    interval_heat_trace_mpmath,
    interval_trace_direct,
    key_one_energy_mpmath,
)

EPS = 2.0**-52
U = natural_units()
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)

# (energy, multiplicity) lists; with the scales below every exponent
# s * E stays under 700, so each term is a normal double.
level_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),
        st.integers(min_value=1, max_value=10**30),
    ),
    min_size=1,
    max_size=40,
)
scales = st.floats(min_value=1e-6, max_value=7.0)


def interval_levels(n_max, length=1.0, u=None):
    u = u or natural_units()
    return Spectrum([
        (n * math.pi / length) ** 2 * (u.hbar**2 / (2 * u.mass))
        for n in range(1, n_max + 1)
    ])


class TestSpectrum:
    def test_validation(self):
        with pytest.raises(ValueError):
            Spectrum([math.nan], [1])
        with pytest.raises(ValueError):
            Spectrum([1.0], [0])

    def test_multiplicity_count_must_match(self):
        with pytest.raises(InputError, match=r"^got 1 multiplicities for 2 energies$"):
            Spectrum([1.0, 2.0], [1.0])

    def test_numpy_arrays_in_and_out(self):
        # any sequence of numbers goes in; np.asarray reads a column without a copy
        levels = Spectrum(np.array([2.0, 1.0]), np.array([1, 3]))
        energies = np.asarray(levels.energies)
        assert energies.tolist() == [1.0, 2.0] and not energies.flags.writeable
        assert np.shares_memory(energies, np.asarray(levels.energies))
        assert levels.multiplicities.tobytes() == np.array([3.0, 1.0]).tobytes()
        with pytest.raises(TypeError):
            levels.energies[0] = 0.0

    def test_zero_energy_level_accepted(self, u):
        result = heat_trace(Spectrum([0.0], [2]), 3.0, u)
        assert result == 2.0

    # The order is the pair sort's: by energy, then multiplicity, then input order, with
    # -0.0 == 0.0. Energies come from a small pool, so that ties are common.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        levels=st.lists(
            st.tuples(
                st.sampled_from([-0.0, 0.0, 1.0, -1.0, 2.5, 5e-324, -1e300, 1e300])
                | st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([1.0, 2.0, 3.0, 2.0**53, 2.0**53 + 2, 1e30, 1e308])
                | st.integers(min_value=1, max_value=10**6).map(float),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_order_is_the_pair_sort(self, levels):
        spectrum = Spectrum(*zip(*levels))
        energies, multiplicities = zip(*sorted(levels))
        assert spectrum.energies.tobytes() == array("d", energies).tobytes()
        assert spectrum.multiplicities.tobytes() == array("d", multiplicities).tobytes()
        assert list(spectrum) == list(zip(energies, multiplicities))


class TestHeatTrace:
    @pytest.mark.parametrize("t", [1e-3, 0.1, 1.0, 50.0])
    def test_single_zero_level(self, u, t):
        assert heat_trace(Spectrum([0.0], [1]), t, u) == 1.0

    def test_single_level_exponential(self, u):
        result = heat_trace(Spectrum([math.pi**2], [1]), 0.1, u)
        assert result == pytest.approx(EXP_MINUS_PI2_OVER_10, abs=1e-15)

    def test_interval_trace_matches_direct_summation(self, u):
        levels = interval_levels(2500)
        for t in (1e-2, 1e-4, 1e-6):
            ours = heat_trace(levels, t, u)
            direct = interval_trace_direct(t)
            assert ours == pytest.approx(direct, rel=1e-13)

    def test_mass_and_hbar_enter_through_laplacian_scaling(self):
        # trace depends on the Laplacian eigenvalue -E/(hbar^2/2m) only
        u2 = UnitSystem(hbar=2.0, k_boltzmann=1.0, mass=1.0)
        levels_natural = interval_levels(50)
        levels_scaled = Spectrum(
            [e * 2.0 for e in levels_natural.energies], levels_natural.multiplicities
        )
        a = heat_trace(levels_natural, 0.05, natural_units())
        b = heat_trace(levels_scaled, 0.05, u2)
        assert a == pytest.approx(b, rel=1e-14)

    def test_permutation_invariance(self, u):
        energies = interval_levels(400).energies.tolist()
        levels = Spectrum(energies)
        scrambled = Spectrum(energies[::-1][::3] + energies[::-1][1::3] + energies[::-1][2::3])
        a = heat_trace(levels, 1e-3, u)
        b = heat_trace(scrambled, 1e-3, u)
        assert abs(a - b) / a < 1e-13

    def test_strictly_decreasing_in_t(self, u):
        levels = interval_levels(30)
        ts = [0.01, 0.03, 0.1, 0.5, 2.0]
        traces = [heat_trace(levels, t, u) for t in ts]
        assert all(b < a for a, b in zip(traces, traces[1:]))

    def test_validation(self, u):
        with pytest.raises(ValueError):
            heat_trace(Spectrum([], []), 0.1, u)
        with pytest.raises(ValueError):
            heat_trace(Spectrum([1.0], [1]), 0.0, u)
        with pytest.raises(ValueError):
            heat_trace(Spectrum([-1.0], [1]), 0.1, u)


def ulps_over_max_1_a(length, t):
    """Error of interval_heat_trace in ulps of the 50-digit value, over max(1, a)."""
    reference = interval_heat_trace_mpmath(length, t)
    error = abs(mp.mpf(interval_heat_trace(length, t)) - reference)
    a = t * (math.pi / length) ** 2
    return float(error / math.ulp(float(reference))) / max(1.0, a)


class TestIntervalHeatTrace:
    @pytest.mark.parametrize("length", [0.3, 1.0, 10.0, 1e3])
    def test_grid_within_2_max_1_a_ulp(self, length):
        # t every 0.1 decade from 1e-16 to 1e3: a from 1e-21 to 1e5, both sides
        worst = max(ulps_over_max_1_a(length, 10.0 ** (k / 10)) for k in range(-160, 31))
        assert worst <= 2.0

    @PROPERTY
    @given(log_length=st.floats(-4.0, 4.0), log_a=st.floats(-14.0, 3.0))
    def test_within_2_max_1_a_ulp(self, log_length, log_a):
        length = 10.0**log_length
        t = 10.0**log_a * (length / math.pi) ** 2
        assert ulps_over_max_1_a(length, t) <= 2.0

    def test_lengths_far_out_of_scale(self):
        # (pi/L)^2 overflows or underflows; no term raises
        assert interval_heat_trace(1e-200, 1.0) == 0.0
        assert ulps_over_max_1_a(1e200, 1.0) <= 2.0

    def test_subnormal_t_rejected(self):
        with pytest.raises(InputError):
            interval_heat_trace(1.0, 5e-324)
        with pytest.raises(InputError):
            weyl_convergence_scan(partial(interval_heat_trace, 1.0), [1e-2, 1e-310], 1)

    def test_cube_trace_overflow_names_t(self):
        with pytest.raises(OverflowError, match="t=1.0"):
            weyl_convergence_scan(partial(interval_heat_trace, 1e150), [1.0], 3, 3)


class TestWeylVolumeEstimate:
    @pytest.mark.parametrize("t", [1e-2, 1e-4, 1e-6])
    def test_unit_interval_frozen_values(self, u, t):
        estimate = weyl_volume_estimate(interval_levels(2500), t, 1, u)
        assert estimate == pytest.approx(INTERVAL_VOLUME_ESTIMATE[t], abs=1e-13)

    @pytest.mark.parametrize("t", [1e-4, 1e-5, 1e-6])
    def test_unit_interval_error_is_sqrt_pi_t(self, u, t):
        estimate = weyl_volume_estimate(interval_levels(2500), t, 1, u)
        assert abs((1.0 - estimate) - math.sqrt(math.pi * t)) < 1e-6

    def test_cube_factorization_identity(self, u):
        # full tuple enumeration agrees with the power of the one-axis trace
        t = 0.05
        for d in (2, 3):
            _, energies = box_modes(1.0, d, 12, u)
            full = heat_trace(Spectrum(energies), t, u)
            axis = heat_trace(interval_levels(12), t, u)
            assert full == pytest.approx(axis**d, rel=1e-10)

    def test_cube_estimate_via_factorization(self, u):
        t = 1e-6
        axis = weyl_volume_estimate(interval_levels(2500), t, 1, u)
        assert axis**3 == pytest.approx(CUBE_VOLUME_ESTIMATE_1E6, abs=1e-12)

    def test_scaling_relation(self, u):
        # lambda -> lambda/s^2 with t -> t s^2 rescales the estimate by s^d
        s = 2.5
        levels = interval_levels(200)
        scaled = Spectrum([e / s**2 for e in levels.energies], levels.multiplicities)
        t = 1e-3
        base = weyl_volume_estimate(levels, t, 1, u)
        stretched = weyl_volume_estimate(scaled, t * s**2, 1, u)
        assert stretched == pytest.approx(s * base, rel=1e-12)

    def test_dimension_validated(self, u):
        with pytest.raises(ValueError):
            weyl_volume_estimate(interval_levels(5), 0.1, 0, u)


class TestWeylConvergenceScan:
    def test_rows_in_input_order(self, u):
        levels = interval_levels(2500)
        ts = [1e-2, 1e-4, 1e-6]
        rows = weyl_convergence_scan(partial(heat_trace, levels, u=u), ts, 1)
        assert [row.t for row in rows] == ts
        for row in rows:
            assert row.volume_estimate == pytest.approx(
                INTERVAL_VOLUME_ESTIMATE[row.t], abs=1e-13
            )

    def test_estimates_approach_the_volume(self, u):
        rows = weyl_convergence_scan(
            partial(heat_trace, interval_levels(2500), u=u), [1e-2, 1e-4, 1e-6], 1
        )
        gaps = [abs(1.0 - row.volume_estimate) for row in rows]
        assert gaps == sorted(gaps, reverse=True)

    def test_single_t_consistent_with_estimate(self, u):
        levels = interval_levels(100)
        row = weyl_convergence_scan(partial(heat_trace, levels, u=u), [1e-3], 1)[0]
        assert row.volume_estimate == weyl_volume_estimate(levels, 1e-3, 1, u)
        assert row.trace == heat_trace(levels, 1e-3, u)

    def test_empty_t_list_rejected(self, u):
        with pytest.raises(ValueError):
            weyl_convergence_scan(partial(heat_trace, interval_levels(5), u=u), [], 1)

    def test_zero_trace_where_the_power_overflows(self):
        # (4 pi t)^(d/2), and from 1.43e307 on 4 pi t itself, is beyond the
        # double range; the trace is exactly 0, and so is the estimate
        ts = [1e300, 1.5e307, sys.float_info.max]
        for d, axes in [(3, 1), (3, 3), (1, 1)]:
            rows = weyl_convergence_scan(partial(interval_heat_trace, 1.0), ts, d, axes)
            assert rows == [(t, 0.0, 0.0) for t in ts]

    @PROPERTY
    @given(
        d=st.sampled_from([1, 3, 4, 5, 7, 12]),
        log_a=st.floats(min_value=-1.0, max_value=math.log10(740.0)),
        share=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_estimate_where_the_power_alone_overflows(self, d, log_a, share):
        # t from just past the first t at which (4 pi t)^(d/2), or 4 pi t,
        # overflows to 1.78e308; the length sets a = t (pi/L)^2 and so how
        # small the trace is. The reference power is of 4 pi t rounded to
        # 53 bits, as the scan forms it, with an unbounded exponent.
        top = math.log10(sys.float_info.max)
        low = top * min(2 / d, 1) - math.log10(4 * math.pi) + 0.01
        t = 10.0 ** (low + share * (308.25 - low))
        a = 10.0**log_a
        with mp.workdps(50):
            length = float(mp.pi * mp.sqrt(mp.mpf(t) / mp.mpf(a)))
            trace = interval_heat_trace(length, t)
            x = mp.fmul(4.0 * math.pi, t, prec=53)
            exact = mp.mpf(trace) * x ** (mp.mpf(d) / 2)
            if exact > mp.mpf(sys.float_info.max):
                with pytest.raises(OverflowError, match=re.escape(f"t={t!r}")):
                    weyl_convergence_scan(partial(interval_heat_trace, length), [t], d)
                return
            row = weyl_convergence_scan(partial(interval_heat_trace, length), [t], d)[0]
            assert row.trace == trace
            assert abs(mp.mpf(row.volume_estimate) - exact) <= 3 * math.ulp(float(exact))

    def test_estimate_past_the_power_overflow_matches_mpmath(self):
        # trace 8.7e-4 at a = 7.04, (4 pi t)^(3/2) = 1.0e310
        r0, t = 7.2e102, 3.7e205
        row = weyl_convergence_scan(partial(interval_heat_trace, r0), [t], 3)[0]
        with mp.workdps(50):
            exact = interval_heat_trace_mpmath(r0, t) * (4 * mp.pi * mp.mpf(t)) ** 1.5
        assert float(exact) == pytest.approx(8.7463407029189e306, rel=1e-13)
        assert abs(mp.mpf(row.volume_estimate) - exact) <= 4 * math.ulp(float(exact))


class TestLevelHelpers:
    # The cube's partition against the pure-Python Counter convolution: it counts the
    # keys exactly, and its ground term carries the bits of scale * d, scale the 60-digit
    # key-1 energy rounded once; where box_modes lists every mode (up to 10**5 of them),
    # each key's level appears as often as the oracle counts. 15**8 and 2**33 modes
    # exceed 2**31.
    BOX_GRID = [(1, 1), (1, 500), (3, 1), (2, 7), (3, 4), (3, 40), (4, 12), (5, 6),
                (8, 15), (33, 2)]
    BOX_UNITS = [
        (1.0, natural_units()),
        (1.0, UnitSystem(hbar=1.3, k_boltzmann=1.0, mass=0.7)),
        (2.7e-6, UnitSystem(hbar=1e-10, k_boltzmann=1.0, mass=3.0)),
    ]

    @pytest.mark.parametrize("d, n_max", BOX_GRID)
    @pytest.mark.parametrize("units", range(len(BOX_UNITS)))
    def test_box_spectrum_matches_counter_oracle(self, d, n_max, units):
        side, u = self.BOX_UNITS[units]
        scale = float(key_one_energy_mpmath(kinetic_prefactor(u), side))
        keys, counts = zip(*cube_levels(d, n_max))
        assert _cube_partition(side, d, n_max, 0.0, u) == (1.0, 1, len(keys), None, None)
        tau = 0.5 * u.hbar / (scale * d)  # the ground exponent s * E_min is 0.5
        assert _cube_partition(side, d, n_max, tau, u)[0] == math.exp(-(tau / u.hbar) * (scale * d))
        if n_max**d <= 10**5:
            modes = Counter(box_modes(side, d, n_max, u)[1])
            assert sorted(modes.items()) == [(scale * key, n) for key, n in zip(keys, counts)]

    def test_box_spectrum_clusters_ties(self, u):
        modes = Counter(box_modes(1.0, 3, 2, u)[1])
        assert modes == {math.pi**2 * k: n for k, n in zip((3, 6, 9, 12), (1, 3, 3, 1))}
        assert _cube_partition(1.0, 3, 2, 0.0, u)[1:3] == (1, 4)

    def test_box_spectrum_expands_to_box_modes(self, u):
        # the factored sums against the 50-digit sum over every mode box_modes lists,
        # within eps (8 sum(t x) + 4 Z) for terms t = exp(-x), x = s E
        for side, d, n_max in [(1.0, 3, 5), (0.3, 2, 9), (2.0, 4, 3)]:
            energies = box_modes(side, d, n_max, u)[1]
            for tau in (1e-3, 0.05, 2.0):
                quasistatic, dim_min, count, qm, ratio = _cube_partition(side, d, n_max, tau, u)
                assert (dim_min, count) == (1, len(set(energies)))
                with mp.workdps(50):
                    xs = [mp.mpf(tau) * mp.mpf(e) for e in energies]
                    terms = [mp.exp(-x) for x in xs]
                    z, zx = mp.fsum(terms), mp.fsum(t * x for t, x in zip(terms, xs))
                    ground, x0 = terms[0], xs[0]
                    for got, want, wx in [(quasistatic, ground, ground * x0), (qm, z, zx),
                                          (ratio, z / ground, (zx - z * x0) / ground)]:
                        assert abs(got - want) <= EPS * (8 * wx + 4 * want), (side, d, tau)

    def test_box_spectrum_counts_exactly_up_to_2_to_the_53(self, u):
        # 54 keys 53 + 3k, k of the 53 axes at n = 2: comb(53, k) modes each, 2**53 in all
        assert _cube_partition(1.0, 53, 2, 0.0, u)[1:3] == (1, 54)
        assert _cube_partition(1.0, 53, 2, 1e-300, u)[4] == 2.0**53
        for d, n_max in [(54, 2), (40, 5), (10**9, 2), (2, 94906267)]:
            with pytest.raises(InputError, match=rf"{n_max}\*\*{d} box modes"):
                _cube_partition(1.0, d, n_max, 0.0, u)

    def test_box_spectrum_rejects_an_empty_box(self, u):
        for side, d, n_max in [(0.0, 3, 2), (1.0, 0, 2), (1.0, 3, 0)]:
            with pytest.raises(InputError):
                _cube_partition(side, d, n_max, 0.0, u)

    def test_dim_min_respects_relative_gaps(self):
        assert hilbert_dim_min(Spectrum([1.0, 1.0 + 5e-10, 2.0], [2, 1, 1])) == 3
        assert hilbert_dim_min(Spectrum([1.0, 1.0 + 2e-9, 2.0], [2, 1, 1])) == 2
        # no absolute floor: tiny energies are compared relative to themselves
        assert hilbert_dim_min(Spectrum([1e-12, 1.5e-12])) == 1
        assert hilbert_dim_min(Spectrum([0.0, 0.0, 1e-300])) == 2


def boltzmann_sum_budget(levels, s):
    """The sum of m exp(-s E) over the double (E, m) at 60 digits, and the kernel's budget:
    2 eps of the sum (math.exp is within an ulp, each product and the sum within half of
    one), eps/2 |s E| of each term (the rounded exponent), and 2**-1074 per unit of the
    multiplicity of each term whose weight is subnormal or underflows."""
    with mp.workdps(60):
        terms, budget = [], mp.mpf(0)
        for e, m in levels:
            x = mp.mpf(s) * e if e else mp.mpf(0)  # s = inf: a zero level still weighs 1
            weight = mp.exp(-x)
            terms.append(m * weight)
            budget += EPS / 2 * m * weight * abs(x) if weight else 0
            budget += 2.0**-1074 * m if weight < 2.0**-1022 else 0
        total = mp.fsum(terms)
        return total, budget + 2 * EPS * total


class TestSpectralSumKernel:
    @PROPERTY
    @given(levels=level_lists, s=scales, data=st.data())
    def test_permutation_gives_identical_bits(self, levels, s, data):
        shuffled = data.draw(st.permutations(levels))
        a, b = Spectrum(*zip(*levels)), Spectrum(*zip(*shuffled))
        assert heat_trace(a, s, U) == heat_trace(b, s, U)
        assert qm_partition(a, s, U) == qm_partition(b, s, U)

    @PROPERTY
    @given(levels=level_lists, x=scales)
    def test_heat_trace_equals_partition_in_natural_units(self, levels, x):
        spectrum = Spectrum(*zip(*levels))
        assert heat_trace(spectrum, x, U) == qm_partition(spectrum, x, U)

    @PROPERTY
    @given(levels=level_lists, s=scales)
    def test_matches_mpmath_oracle(self, levels, s):
        spectrum = Spectrum(*zip(*levels))
        reference = boltzmann_sum_mpmath(
            spectrum.energies.tolist(), spectrum.multiplicities.tolist(), s
        )
        assert abs(heat_trace(spectrum, s, U) - reference) <= 2 * EPS * reference

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        exponents=st.lists(st.floats(min_value=-660.0, max_value=800.0), min_size=1, max_size=30),
        multiplicities=st.lists(st.integers(min_value=1, max_value=10**30), min_size=33, max_size=33),
        s=st.floats(min_value=1e-3, max_value=1e3),
        zeros=st.integers(min_value=0, max_value=3),
        infinite=st.booleans(),
    )
    def test_sums_within_their_rounding_budget_of_mpmath(
        self, exponents, multiplicities, s, zeros, infinite
    ):
        energies = [x / s for x in exponents] + [0.0] * zeros
        spectrum = Spectrum(energies, multiplicities[: len(energies)])
        # in these units tau/hbar and t/(hbar^2/2m) overflow to s = inf
        u, arg = (UnitSystem(1e-150, 1.0, 0.5), 1e300) if infinite else (U, s)
        levels = list(zip(spectrum.energies, spectrum.multiplicities))
        cases = [(qm_partition, levels),
                 (quasistatic_partition, [(levels[0][0], hilbert_dim_min(spectrum))])]
        if levels[0][0] >= 0.0:
            cases.append((heat_trace, levels))
        for function, summed in cases:
            exact, budget = boltzmann_sum_budget(summed, math.inf if infinite else s)
            if exact > sys.float_info.max:
                with pytest.raises(OverflowError):
                    function(spectrum, arg, u)
            else:
                assert abs(mp.mpf(function(spectrum, arg, u)) - exact) <= budget, function

    def test_huge_multiplicity_behind_a_gap_is_summed(self, u):
        # the last term is 1e30 * exp(-101), about 1.4e-14 of the total
        spectrum = Spectrum([0.0, 1.0, 100.0, 101.0], [1, 1, 1, 10**30])
        exact_terms = [1.0, math.exp(-1.0), math.exp(-100.0), float(10**30) * math.exp(-101.0)]
        assert heat_trace(spectrum, 1.0, u) == math.fsum(exact_terms)
        assert qm_partition(spectrum, 1.0, u) == math.fsum(exact_terms)

    @PROPERTY
    @given(
        levels=level_lists,
        s=scales,
        padding=st.lists(
            st.tuples(
                st.floats(min_value=747.0, max_value=1e6),
                st.integers(min_value=1, max_value=10**30),
            ),
            min_size=1,
            max_size=40,
        ),
    )
    def test_underflowed_levels_change_no_bit(self, levels, s, padding):
        # s * E > 746 makes exp(-s * E) exactly 0.0, whatever the multiplicity
        pad = [(x / s, m) for x, m in padding]
        assert all(math.exp(-s * e) == 0.0 for e, _ in pad)
        base, padded = Spectrum(*zip(*levels)), Spectrum(*zip(*(levels + pad)))
        assert heat_trace(padded, s, U) == heat_trace(base, s, U)
        assert qm_partition(padded, s, U) == qm_partition(base, s, U)

    def test_zero_level_kept_where_s_overflows(self):
        # t/pref = 1e10/1e-300 overflows to s = inf, where only E = 0 keeps a weight
        u = UnitSystem(1e-150, 1.0, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # inf * 0 must not become a nan term
            assert heat_trace(Spectrum([0.0, 1.0]), 1e10, u) == 1.0
            assert heat_trace(Spectrum([0.0, 1.0], [4, 1]), 1e10, u) == 4.0
            assert heat_trace(Spectrum([1.0]), 1e10, u) == 0.0

    def test_every_sum_reaches_the_one_kernel(self, u):
        # the s of each call of thermo._exp_sum's code, under whatever name it is bound
        code = thermo._exp_sum.__code__

        def kernel_calls(function, *args):
            calls = []

            def profile(frame, event, arg):
                if event == "call" and frame.f_code is code:
                    calls.append(frame.f_locals["s"])

            sys.setprofile(profile)
            try:
                function(*args)
            finally:
                sys.setprofile(None)
            return calls

        spectrum, a = Spectrum([0.0, 1.0], [2, 1]), float(mp.pi**2)
        assert kernel_calls(heat_trace, spectrum, 0.3, u) == [0.3]
        assert kernel_calls(qm_partition, spectrum, 0.3, u) == [0.3]
        assert kernel_calls(quasistatic_partition, spectrum, 0.3, u) == [0.3]
        assert kernel_calls(interval_heat_trace, 1.0, 1.0) == [a]  # the series side
        assert kernel_calls(interval_heat_trace, 1.0, 1e-3) == [1e3]  # the theta side
        # the quasistatic term, then the sectors and the radial tower
        assert kernel_calls(thermo._ball_partition, 1.0, 5, 2, 0.3, u) == [0.3] * 3
        # the quasistatic term and the shifted levels; the levels themselves below E_min = 0
        assert kernel_calls(thermo._custom_partition, spectrum, 0.3, u, "") == [0.3] * 2
        below = Spectrum([-1.0, 1.0], [2, 1])
        assert kernel_calls(thermo._custom_partition, below, 0.3, u, "") == [0.3] * 3

    def test_subnormal_terms_are_all_summed(self, u):
        energies = [740.0 + k / 2 for k in range(9)]
        multiplicities = [k + 1.0 for k in range(9)]
        terms = [m * math.exp(-e) for e, m in zip(energies, multiplicities)]
        assert all(0.0 < term < sys.float_info.min for term in terms)
        spectrum = Spectrum(energies, multiplicities)
        assert heat_trace(spectrum, 1.0, u) == math.fsum(terms) > 0.0
        assert qm_partition(spectrum, 1.0, u) == math.fsum(terms)


def test_radial_levels_feed_heat_trace(u):
    levels = Spectrum(interval_energies(1.0, 50, u))
    result = heat_trace(levels, 0.1, u)
    assert result == pytest.approx(math.fsum(
        math.exp(-0.1 * energy) for energy in levels.energies.tolist()
    ), rel=1e-14)
