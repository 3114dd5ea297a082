"""Closed-form heat traces and the small-time volume estimate.

The heat trace of a Laplacian sums exp(t * lambda_n) over its eigenvalues
lambda_n <= 0. Multiplying it by (4 pi t)^(d/2) recovers the domain volume
as t -> 0, which is what the convergence scan tabulates.

The Dirichlet interval trace, which the ball and the cube need, has a
closed form with nothing truncated (interval_heat_trace). The convergence
scan takes the one-axis trace as a callable: that closed form, or a sum
over a level list (spectra.heat_trace). This module uses no arrays, so
scans of the closed form never load numpy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count
from typing import Callable, NamedTuple, Sequence

from .thermo import _exp_sum
from .units import PI_RATIONAL, InputError, require_at_least, require_normal, require_positive

_PI = Fraction(*PI_RATIONAL)

__all__ = ["WeylScanRow", "interval_heat_trace", "weyl_convergence_scan"]


class WeylScanRow(NamedTuple):
    t: float
    trace: float
    volume_estimate: float


def interval_heat_trace(length: float, t: float) -> float:
    """sum_{n>=1} exp(-t (n pi/length)^2), the Dirichlet interval trace, untruncated.

    With a = t (pi/length)^2 >= 0.1 every nonzero term is summed (at most
    86). Below that it is (c (1 + 2 S) - 1)/2 with c = length/sqrt(pi t),
    where S sums every nonzero exp(-k^2 length^2/t) (at most 2): Jacobi's
    theta inversion, DLMF 20.7.32. a and c^2 are exact rationals rounded
    once, c carries a Newton correction, and each side is one thermo._exp_sum.
    """
    require_positive("length", length)
    require_normal("t", t)
    a = Fraction(t) * _PI**2 / Fraction(length) ** 2
    if a >= Fraction(1, 10):  # float(a) may overflow; exp(-746) == 0
        return _exp_sum(float(min(a, 746)), ((k * k, 1) for k in count(1)))
    e = (a.denominator.bit_length() - a.numerator.bit_length()) // 2
    s = _PI / a / Fraction(4) ** e  # c^2 / 4^e, near 1
    root = math.sqrt(s)
    c = math.ldexp(root, e)  # OverflowError if the trace does not fit a double
    c_low = math.ldexp(float((s - Fraction(root) ** 2) / (2 * Fraction(root))), e)
    dual = ((k * k, 2.0 * c) for k in count(1))  # 2 c exp(-k^2 length^2/t)
    return 0.5 * _exp_sum(length / t * length, dual, [c, c_low, -1.0])


def _times_weyl_power(a: float, t: float, p: Fraction) -> float:
    """a * (4 pi t)**p, also where (4 pi t)**p, or 4 pi t itself, overflows.

    There it writes a = a_m 2^a_e and 4 pi t = x_m 2^x_e with frexp, x_m
    from 4 pi times the mantissa of t, and splits x_e p = k + f exactly, k
    an integer and 0 <= f < 1: the product is ldexp(a_m x_m**p 2**f, a_e + k),
    a few roundings and no log or exp. A zero a gives 0.0; OverflowError if
    the product is out of range, or if x_m**p has lost digits to underflow
    (p above about 1000).
    """
    x = 4.0 * math.pi * t
    if math.isfinite(x):
        try:
            return a * x ** float(p)
        except OverflowError:
            pass
    if a == 0.0:
        return 0.0
    (a_m, a_e), (t_m, t_e) = math.frexp(a), math.frexp(t)
    x_m, x_e = math.frexp(4.0 * math.pi * t_m)
    k, f = divmod((x_e + t_e) * p, 1)
    scaled = a_m * x_m ** float(p) * 2.0 ** float(f)
    if scaled < 2.0**-1022:
        raise OverflowError(f"(4 pi t)**p at t={t!r}, p={p} has no accurate double scaling")
    return math.ldexp(scaled, a_e + k)


def weyl_convergence_scan(
    axis_trace: Callable[[float], float], t_values: Sequence[float], d: int, axes: int = 1
) -> list[WeylScanRow]:
    """One (t, trace, volume estimate) row per requested t, in input order.

    axis_trace(t) is the heat trace of one axis. With axes > 1 the domain
    is a product of `axes` identical factors, such as the d-cube with
    axes = d: the trace is the axes-th power of the one-axis trace, and so
    is the volume estimate. OverflowError names the first t whose trace or
    estimate leaves the double-precision range.
    """
    if len(t_values) == 0:
        raise InputError("t_values must be nonempty")
    require_at_least("d", d, 1)
    require_at_least("axes", axes, 1)
    rows = []
    for t in t_values:
        require_normal("t", t)  # 4 pi t keeps every digit of a normal t only
        try:
            axis = axis_trace(t)
            estimate = _times_weyl_power(axis, t, Fraction(d, 2 * axes))
            row = WeylScanRow(t=t, trace=axis**axes, volume_estimate=estimate**axes)
        except OverflowError:
            row = None
        if row is None or math.isinf(row.volume_estimate):
            raise OverflowError(f"the Weyl scan at t={t!r} exceeds the double-precision range")
        rows.append(row)
    return rows
