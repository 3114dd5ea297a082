"""Special functions and quadrature rules: the sine integral Si and two fixed Gauss rules.

Si(x) = int_0^x sin(t)/t dt is evaluated by a power series for small
arguments and through the exponential integral of imaginary argument beyond,
within 2.2 ulp of mpmath on [4, 1e16] (a property test allows 4), and pi/2
past 2**60, where Si(x) rounds to it.

The rules are 12-point (node, weight) tables, exact through polynomial degree
23: Gauss-Legendre on [-1, 1], and the rule for the weight -ln x on [0, 1],
whose nodes never reach the log's singularity at 0. thermo's entropy
quadrature applies one to each part of its integrand.
"""

from __future__ import annotations

import cmath
import math

from .units import InputError

__all__ = ["sine_integral"]

# 12-point Gauss-Legendre rule on [-1, 1], exact through polynomial degree 23:
# (node, weight) pairs, the bits of numpy.polynomial.legendre.leggauss(12)
_GL_PAIRS = (
    (-0.9815606342467192, 0.04717533638651141),
    (-0.9041172563704748, 0.10693932599531907),
    (-0.7699026741943047, 0.16007832854334642),
    (-0.5873179542866175, 0.20316742672306573),
    (-0.3678314989981802, 0.2334925365383546),
    (-0.1252334085114689, 0.2491470458134027),
    (0.1252334085114689, 0.2491470458134027),
    (0.3678314989981802, 0.2334925365383546),
    (0.5873179542866175, 0.20316742672306573),
    (0.7699026741943047, 0.16007832854334642),
    (0.9041172563704748, 0.10693932599531907),
    (0.9815606342467192, 0.04717533638651141),
)

# 12-point Gauss rule for the weight -ln x on [0, 1]: int_0^1 f(x) (-ln x) dx = sum w f(x)
# through degree 23. The nodes and weights of Golub & Welsch (1969) from the moments
# 1/(k+1)^2, at 80 digits, each rounded once to a double.
_LOG_PAIRS = (
    (0.006548722279080058, 0.09319269144393133),
    (0.038946809560449956, 0.14975182757632235),
    (0.09815026310600664, 0.16655745436459302),
    (0.18113858159063156, 0.15963355943698765),
    (0.28322006766737257, 0.13842483186483562),
    (0.39843443516343663, 0.11001657063572116),
    (0.5199526267923527, 0.07996182177082897),
    (0.6405109167161065, 0.05240695482464177),
    (0.7528650120518305, 0.030071088873761188),
    (0.8502400241623022, 0.01424924558799828),
    (0.9267496832239142, 0.004899924582321761),
    (0.9777561296899975, 0.0008340290380569034),
)


def _si_power_series(x: float) -> float:
    # Si(x) = sum_{k>=0} (-1)^k x^(2k+1) / ((2k+1) (2k+1)!), fast for |x| <= 4.
    x2 = x * x
    term = x
    total = x
    k = 0
    while True:
        k += 1
        term *= -x2 / ((2 * k) * (2 * k + 1))
        updated = total + term / (2 * k + 1)
        if updated == total:
            return total
        total = updated
        if k > 200:  # unreachable for |x| <= 4; defensive cap
            return total


def _exp1_imag_axis(x: float) -> complex:
    # Modified Lentz continued fraction for E1(z) at z = i x, x > 0:
    #   E1(z) = exp(-z) / (z + 1 - 1/(z + 3 - 4/(z + 5 - 9/(z + 7 - ...))))
    z = complex(0.0, x)
    tiny = 1e-300
    b = z + 1.0
    c = complex(1.0 / tiny, 0.0)
    d = 1.0 / b
    h = d
    for i in range(1, 300):
        numerator = -float(i * i)
        b += 2.0
        d = 1.0 / (numerator * d + b)
        c = b + numerator / c
        if c == 0:
            c = complex(tiny, 0.0)
        delta = c * d
        h *= delta
        if abs(delta - 1.0) <= 2.0**-52:  # within an ulp of 1: below that it may never stop
            return cmath.exp(-z) * h
    raise RuntimeError(f"continued fraction for E1 did not settle at x={x!r}")


_SERIES_CUTOFF = 4.0


def sine_integral(x: float) -> float:
    """Si(x), the integral of sin(t)/t from 0 to x.

    Odd in x. Within 2.2 ulp of mpmath on [4, 1e16] (observed over 3000
    samples; a property test allows 4). The integrand's removable singularity
    at t = 0 is absorbed by the series representation.
    """
    if not math.isfinite(x):
        raise InputError(f"sine_integral requires finite input, got {x!r}")
    ax = abs(x)
    if ax <= _SERIES_CUTOFF:
        return _si_power_series(x)
    # past 2**60 Si(x) rounds to pi/2, and above ~4.5e307 the fraction's 1/(x i) is subnormal
    value = 0.5 * math.pi + (_exp1_imag_axis(ax).imag if ax < 2.0**60 else 0.0)
    return value if x > 0 else -value
