import math

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from spectherm import sine_integral

from oracles import SI_1, SI_10, SI_2PI, SI_PI, gauss_rule_mpmath, si_by_quadrature, si_mpmath


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


def _legendre(f, a: float, b: float, panels: int = 1) -> float:
    # the 12-point Gauss-Legendre rule on each of `panels` equal parts of [a, b], summed once
    from spectherm.thermo import _GL_PAIRS

    h = (b - a) / panels
    return math.fsum(
        0.5 * h * w * f(a + h * (k + 0.5 + 0.5 * t)) for k in range(panels) for t, w in _GL_PAIRS
    )


class TestIntegrate:
    """The fixed rules that replaced adaptive quadrature, on integrals with known values."""

    def test_constant(self):
        assert _legendre(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_sin_over_half_period(self):
        assert _legendre(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-12)

    def test_quadratic(self):
        assert _legendre(lambda x: x * x, 0.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_log_endpoint_singularity(self):
        # int_0^1 ln x dx = -1, by the rule for the weight -ln x on f = -1; no node is at 0
        from spectherm.thermo import _LOG_PAIRS

        assert min(x for x, _ in _LOG_PAIRS) > 0.0
        assert math.fsum(-w for _, w in _LOG_PAIRS) == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize("x", [1.0, math.pi, 2.0 * math.pi, 10.0])
    def test_agrees_with_sine_integral(self, x):
        def integrand(t):
            return math.sin(t) / t if t != 0.0 else 1.0

        value = _legendre(integrand, 0.0, x, panels=math.ceil(x))
        assert abs(value - sine_integral(x)) < 2e-12


def test_gauss_legendre_literals_are_the_bits_of_leggauss_12():
    import numpy as np

    from spectherm.thermo import _GL_PAIRS

    nodes, weights = np.polynomial.legendre.leggauss(12)
    expected = [(x.hex(), w.hex()) for x, w in zip(nodes.tolist(), weights.tolist())]
    assert [(x.hex(), w.hex()) for x, w in _GL_PAIRS] == expected


def test_log_rule_literals_are_the_bits_of_golub_welsch_12():
    # regenerated from the moments 1/(k+1)^2 of the weight -ln x at 80 digits, each rounded once
    from spectherm.thermo import _LOG_PAIRS

    pairs, _ = gauss_rule_mpmath(lambda k: mp.mpf(1) / (k + 1) ** 2)
    expected = [(float(x).hex(), float(w).hex()) for x, w in pairs]
    assert [(x.hex(), w.hex()) for x, w in _LOG_PAIRS] == expected


@pytest.mark.parametrize("weight", ["legendre", "log"])
def test_rules_are_exact_through_degree_23(weight):
    # x^k against its moment, 1/(k+1) on [0, 1] or 1/(k+1)^2 with the weight -ln x, at each
    # rule's own literals; the sums are rounded only in the last bits
    from spectherm.thermo import _GL_PAIRS, _LOG_PAIRS

    if weight == "legendre":
        pairs, moment = [(0.5 + 0.5 * t, 0.5 * w) for t, w in _GL_PAIRS], lambda k: 1 / (k + 1)
    else:
        pairs, moment = _LOG_PAIRS, lambda k: 1 / (k + 1) ** 2
    with mp.workdps(40):
        for k in range(24):
            rule = mp.fsum(mp.mpf(w) * mp.mpf(x) ** k for x, w in pairs)
            assert abs(rule - mp.mpf(moment(k))) <= 2e-15 * moment(k)
