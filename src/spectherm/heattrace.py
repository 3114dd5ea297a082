"""Heat trace over a discrete spectrum and the small-time volume estimate.

The trace sums exp(t * lambda_n) over Laplacian eigenvalues lambda_n <= 0,
supplied here as kinetic energies E >= 0 through lambda = -E / (hbar^2/2m).
Multiplying the trace by (4 pi t)^(d/2) recovers the domain volume as
t -> 0, which is what the convergence scan tabulates.

The heat trace at diffusion time t and the partition function at imaginary
time tau are the same sum of m * exp(-s * E), with s = t/(hbar^2/2m) or
s = tau/hbar. One kernel evaluates it for both: every term of the finite
spectrum is summed exactly by math.fsum (Shewchuk's algorithm) and rounded
once, so the result does not depend on the order of the levels and nothing
is truncated: terms that underflowed to exactly 0.0 are skipped, which cannot
change an fsum, and every nonzero term, subnormal ones too, is summed.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .spectra import Spectrum
from .units import InputError, UnitSystem, kinetic_prefactor, require_at_least, require_positive

__all__ = [
    "WeylScanRow",
    "heat_trace",
    "trace_axis_modes",
    "weyl_volume_estimate",
    "weyl_convergence_scan",
]


_TAIL_LOG = -math.log(1e-18)
_MAX_AUTO_MODES = 2_000_000


class WeylScanRow(NamedTuple):
    t: float
    trace: float
    volume_estimate: float


def _boltzmann_sum(spectrum: Spectrum, s: float) -> float:
    """Sum of multiplicity * exp(-s * energy) over every level, rounded once."""
    with np.errstate(over="ignore"):
        terms = spectrum.multiplicities * np.exp(-s * spectrum.energies)
    total = math.fsum(terms[terms != 0.0].tolist())
    if not math.isfinite(total):
        raise OverflowError(f"spectral sum at s={s!r} exceeds the double-precision range")
    return total


def heat_trace(spectrum: Spectrum, t: float, u: UnitSystem) -> float:
    """Sum of multiplicity * exp(t * lambda) with lambda = -energy/(hbar^2/2m).

    Every level is summed exactly, so permutations of the input change
    nothing. Requires t > 0 and nonnegative energies.
    """
    require_positive("t", t)
    if spectrum.energies[0] < 0.0:
        raise InputError(f"energies must be >= 0, got {float(spectrum.energies[0])!r}")
    return _boltzmann_sum(spectrum, t / kinetic_prefactor(u))


def trace_axis_modes(length: float, t_min: float) -> int:
    """Dirichlet modes per axis of an interval for heat traces at t >= t_min.

    Past this count every term exp(-(pi n / length)^2 t) is below 1e-18,
    negligible against the leading ones. Counts above two million are
    rejected: such a t needs n_max chosen explicitly.
    """
    require_positive("length", length)
    require_positive("t", t_min)
    bound = length / math.pi * math.sqrt(_TAIL_LOG / t_min)
    if bound > _MAX_AUTO_MODES - 2:
        raise InputError(
            f"t={t_min!r} with length={length!r} needs more than {_MAX_AUTO_MODES} "
            "modes per axis; choose n_max explicitly"
        )
    return math.ceil(bound) + 2


def weyl_volume_estimate(spectrum: Spectrum, t: float, d: int, u: UnitSystem) -> float:
    """Volume recovered from the trace: heat_trace * (4 pi t)^(d/2)."""
    return weyl_convergence_scan(spectrum, [t], d, u)[0].volume_estimate


def weyl_convergence_scan(
    spectrum: Spectrum,
    t_values: Sequence[float],
    d: int,
    u: UnitSystem,
    axes: int = 1,
) -> list[WeylScanRow]:
    """One (t, trace, volume estimate) row per requested t, in input order.

    With axes > 1 the spectrum is one axis of a product domain made of
    `axes` identical factors, such as the d-cube with axes = d: the trace
    factorizes into the axes-th power of the one-axis trace, and so does
    the volume estimate.
    """
    if len(t_values) == 0:
        raise InputError("t_values must be nonempty")
    require_at_least("d", d, 1)
    require_at_least("axes", axes, 1)
    rows = []
    for t in t_values:
        axis = heat_trace(spectrum, t, u)
        estimate = axis * (4.0 * math.pi * t) ** (0.5 * d / axes)
        rows.append(WeylScanRow(t=t, trace=axis**axes, volume_estimate=estimate**axes))
    return rows
