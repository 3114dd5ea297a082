"""Special functions and quadrature: the sine integral Si and an adaptive integrator.

Si(x) = int_0^x sin(t)/t dt is evaluated by a power series for small
arguments and through the exponential integral of imaginary argument beyond,
which keeps the absolute error near machine precision over the whole
supported range (|x| <= 1e4 contractually, in practice much further).

The integrator is a deterministic adaptive panel scheme built on a fixed
Gauss-Legendre rule. Panels never evaluate their endpoints, so integrable
endpoint singularities (a log divergence, say) are handled without special
casing by the caller. Its accuracy contract is two keywords, whose defaults
are the module constants ABS_TOLERANCE and MAX_SUBDIVISIONS.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

from .units import InputError, require_at_least, require_positive

__all__ = [
    "ABS_TOLERANCE",
    "MAX_SUBDIVISIONS",
    "QuadratureError",
    "integrate",
    "sine_integral",
]

ABS_TOLERANCE = 1e-10
MAX_SUBDIVISIONS = 60


class QuadratureError(Exception):
    """Adaptive refinement exhausted without meeting the requested tolerance.

    Carries the best available estimate and the accumulated error bound so
    callers can still inspect the partial result.
    """

    def __init__(self, best_estimate: float, error_bound: float, abs_tolerance: float):
        self.best_estimate = best_estimate
        self.error_bound = error_bound
        self.abs_tolerance = abs_tolerance
        super().__init__(
            f"quadrature did not converge: error bound {error_bound:.3e} "
            f"exceeds tolerance {abs_tolerance:.3e} (best estimate {best_estimate!r})"
        )


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


def _panel(f: Callable[[float], float], a: float, b: float) -> float:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    total = 0.0
    for node, weight in _GL_PAIRS:
        total += weight * f(mid + half * node)
    return total * half


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    abs_tolerance: float = ABS_TOLERANCE,
    max_subdivisions: int = MAX_SUBDIVISIONS,
) -> float:
    """Integrate f over [a, b] to within abs_tolerance.

    Deterministic refinement: each panel is compared against its own
    bisection; panels failing the width-proportional share of the tolerance
    are split, depth-first, up to max_subdivisions levels. InputError unless
    abs_tolerance is positive and finite and max_subdivisions >= 1. Leftover
    panel discrepancies accumulate into an error bound, and a
    QuadratureError is raised if that bound ends up above the tolerance, or
    at once, with no estimate (nan), when a panel to split has a difference
    that is not finite.
    """
    require_positive("abs_tolerance", abs_tolerance)
    require_at_least("max_subdivisions", max_subdivisions, 1)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise InputError(f"integration bounds must be finite, got [{a!r}, {b!r}]")
    if a > b:
        raise InputError(f"lower bound {a!r} exceeds upper bound {b!r}")
    if a == b:
        return 0.0

    values: list[float] = []
    errors: list[float] = []
    # Stack entries: (lo, hi, single-panel value, local tolerance, depth).
    stack = [(a, b, _panel(f, a, b), abs_tolerance, 0)]
    while stack:
        lo, hi, coarse, tol, depth = stack.pop()
        mid = 0.5 * (lo + hi)
        left = _panel(f, lo, mid)
        right = _panel(f, mid, hi)
        fine = left + right
        err = abs(fine - coarse)
        if err <= tol or depth >= max_subdivisions:
            values.append(fine)
            errors.append(err)
        elif not math.isfinite(err):  # splitting would follow it to max depth everywhere
            raise QuadratureError(math.nan, err, abs_tolerance)
        else:
            half_tol = 0.5 * tol
            stack.append((mid, hi, right, half_tol, depth + 1))
            stack.append((lo, mid, left, half_tol, depth + 1))

    estimate = math.fsum(values)
    error_bound = math.fsum(errors)
    if not (error_bound <= abs_tolerance):  # also trips on NaN
        raise QuadratureError(estimate, error_bound, abs_tolerance)
    return estimate


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

    Odd in x. Absolute error stays below 1e-12 for |x| <= 1e4 (observed to
    be at the last-bit level). The integrand's removable singularity at
    t = 0 is absorbed by the series representation.
    """
    if not math.isfinite(x):
        raise InputError(f"sine_integral requires finite input, got {x!r}")
    ax = abs(x)
    if ax <= _SERIES_CUTOFF:
        return _si_power_series(x)
    # past 2**60 Si(x) rounds to pi/2, and above ~4.5e307 the fraction's 1/(x i) is subnormal
    value = 0.5 * math.pi + (_exp1_imag_axis(ax).imag if ax < 2.0**60 else 0.0)
    return value if x > 0 else -value
