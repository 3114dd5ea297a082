import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from spectherm import (
    DEFAULT_QUADRATURE,
    QuadratureError,
    QuadratureSpec,
    integrate,
    sine_integral,
)

from oracles import SI_1, SI_10, SI_2PI, SI_PI, si_by_quadrature, si_mpmath


class TestSineIntegral:
    def test_zero(self):
        assert sine_integral(0.0) == 0.0

    @pytest.mark.parametrize(
        "x,expected",
        [(1.0, SI_1), (math.pi, SI_PI), (2.0 * math.pi, SI_2PI), (10.0, SI_10)],
    )
    def test_frozen_values(self, x, expected):
        assert sine_integral(x) == pytest.approx(expected, abs=5e-15)

    @pytest.mark.parametrize("x", [1.0, math.pi, 2.0 * math.pi, 10.0])
    def test_against_independent_quadrature(self, x):
        assert abs(sine_integral(x) - si_by_quadrature(x)) < 1e-12

    @pytest.mark.parametrize("x", [0.3, 2.0, 4.0, 7.5, 25.0, 100.0, 1e3, 1e4])
    def test_against_mpmath(self, x):
        assert abs(sine_integral(x) - si_mpmath(x)) < 1e-13

    def test_against_scipy(self):
        from scipy.special import sici

        for k in range(1, 200):
            x = 0.11 * k
            assert abs(sine_integral(x) - sici(x)[0]) < 1e-13

    def test_odd_on_grid(self):
        for k in range(1, 101):
            x = 0.2 * k
            assert sine_integral(-x) == -sine_integral(x)

    def test_strictly_increasing_up_to_pi(self):
        xs = [math.pi * k / 100.0 for k in range(101)]
        values = [sine_integral(x) for x in xs]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_asymptotic_tail_bound(self):
        # |Si(x) - pi/2| <= 2/x once the oscillations settle
        for k in range(100):
            x = 10.0 * 2.0 ** (k / 10.0)
            if x > 1e4:
                break
            assert abs(sine_integral(x) - 0.5 * math.pi) <= 2.0 / x

    def test_branch_seam_is_smooth(self):
        # series below 4, continued fraction above; values must agree across
        below = sine_integral(4.0 - 1e-9)
        above = sine_integral(4.0 + 1e-9)
        assert abs(above - below) < 1e-8  # |Si'| <= 1 bounds the true gap
        assert abs(sine_integral(4.0) - si_mpmath(4.0)) < 1e-14

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_nonfinite(self, bad):
        with pytest.raises(ValueError):
            sine_integral(bad)

    @pytest.mark.parametrize("x", [1e11, 2.0 * math.pi * 13117595275, 1.5213460680681109e308])
    def test_continued_fraction_stops_at_large_arguments(self, x):
        # its stop test once asked for |delta - 1| < 1e-17, below an ulp of 1,
        # and never passed at the first two: RuntimeError after 300 terms; at
        # the third the fraction's subnormal terms kept it from settling
        assert sine_integral(x) == pytest.approx(si_mpmath(x), abs=1e-15)
        assert sine_integral(-x) == -sine_integral(x)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(log_x=st.floats(min_value=math.log(4.0), max_value=math.log(1e16)))
    def test_within_4_ulp_of_mpmath_up_to_1e16(self, log_x):
        """Finite and within 4 ulp of Si(x) for x log-uniform in [4, 1e16].

        The bound was fixed before measuring, from the 3.4 ulp seen earlier
        near the series cutoff x = 4; x is taken as exact."""
        x = math.exp(log_x)
        value = sine_integral(x)
        assert math.isfinite(value)
        with mp.workdps(40):
            assert abs(mp.mpf(value) - mp.si(mp.mpf(x))) <= 4 * math.ulp(value)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_sin_over_half_period(self):
        assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)

    def test_quadratic(self):
        assert integrate(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_empty_interval(self):
        assert integrate(math.exp, 2.0, 2.0) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 1.0, 0.0)

    def test_nonfinite_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate(math.sin, 0.0, math.inf)

    def test_log_endpoint_singularity(self):
        # integrable singularity at the lower endpoint; exact value -1
        value = integrate(math.log, 0.0, 1.0)
        assert value == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("x", [1.0, math.pi, 2.0 * math.pi, 10.0])
    def test_agrees_with_sine_integral(self, x):
        def integrand(t):
            return math.sin(t) / t if t != 0.0 else 1.0

        spec = QuadratureSpec(abs_tolerance=1e-12, max_subdivisions=60)
        assert abs(integrate(integrand, 0.0, x, spec) - sine_integral(x)) < 2e-12

    def test_nonconvergence_reports_estimate_and_bound(self):
        spec = QuadratureSpec(abs_tolerance=1e-10, max_subdivisions=8)
        with pytest.raises(QuadratureError) as excinfo:
            integrate(lambda x: 1.0 / x, 0.0, 1.0, spec)
        err = excinfo.value
        assert err.error_bound > spec.abs_tolerance
        assert math.isfinite(err.best_estimate)
        assert err.abs_tolerance == spec.abs_tolerance

    # nan everywhere, and -inf on part of the interval, so that the panel
    # difference (-inf) - (-inf) is nan
    @pytest.mark.parametrize(
        "f", [lambda x: math.nan, lambda x: -math.inf if x > 0.3 else 0.0], ids=["nan", "inf"]
    )
    def test_nonfinite_panel_difference_raises_at_once(self, f):
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        with pytest.raises(QuadratureError) as excinfo:
            integrate(counted, 0.0, 1.0)
        assert math.isnan(excinfo.value.best_estimate)
        assert not math.isfinite(excinfo.value.error_bound)
        assert len(calls) <= 3 * 12  # the interval and its two halves, 12 nodes each

    def test_default_spec_values(self):
        assert DEFAULT_QUADRATURE.abs_tolerance == 1e-10
        assert DEFAULT_QUADRATURE.max_subdivisions == 60

    @pytest.mark.parametrize("tol,depth", [(0.0, 10), (-1.0, 10), (1e-10, 0)])
    def test_spec_validation(self, tol, depth):
        with pytest.raises(ValueError):
            QuadratureSpec(abs_tolerance=tol, max_subdivisions=depth)

    def test_deterministic(self):
        def wiggle(x):
            return math.sin(40.0 * x) * math.exp(-x)

        first = integrate(wiggle, 0.0, 5.0)
        second = integrate(wiggle, 0.0, 5.0)
        assert first == second


def test_gauss_legendre_literals_are_the_bits_of_leggauss_12():
    import numpy as np

    from spectherm.specfun import _GL_PAIRS

    nodes, weights = np.polynomial.legendre.leggauss(12)
    expected = [(x.hex(), w.hex()) for x, w in zip(nodes.tolist(), weights.tolist())]
    assert [(x.hex(), w.hex()) for x, w in _GL_PAIRS] == expected
