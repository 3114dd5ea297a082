"""Level lists of the kinetic operator and every sum over them.

This is the array side of the package, and the only module that imports
numpy: units, specfun, heattrace and thermo compute scalars and never load
it. A level file (cli.load_levels) is a `Spectrum`: sorted energies with
their multiplicities, as arrays, whose lowest eigenspace hilbert_dim_min
counts by thermo's one degeneracy rule. The analytic families need no arrays.

The heat trace at diffusion time t (heat_trace, weyl_volume_estimate) and
the partition function at imaginary time tau (qm_partition,
thermal_partition, quasistatic_partition) are the same sum of
m * exp(-s * E), with s = t/(hbar^2/2m) or s = tau/hbar. One kernel
evaluates it for all of them: every term of the finite spectrum is summed
exactly by math.fsum (Shewchuk's algorithm) and rounded once, so the result
does not depend on the order of the levels and nothing is truncated: terms
that underflowed to exactly 0.0 are skipped, which cannot change an fsum,
and every nonzero term, subnormal ones too, is summed.

A finite-difference solver covers the radial problem with an arbitrary
radial potential, given as a callable U(r) or as samples on the grid.
Substituting u(r) = r*psi(r) removes the first-derivative term and the
coordinate singularity at r = 0, leaving a plain Dirichlet problem
-pref * u'' + U(r) u = E u on the interval, discretized by central
differences into a symmetric tridiagonal matrix. thermo.free_difference_energies
checks the grid and forms the free levels; it uses no arrays, so `spectrum
--kind numeric` loads neither numpy nor fractions. When U is constant on the
interior nodes (in particular with no potential) the eigenvectors are sines
and the eigenvalues those levels plus U. Any other potential goes to LAPACK,
once the matrix's Gershgorin bound is finite (the matrix is scaled by a
power of two when that bound is above 2**500, since stebz squares the
off-diagonal): the lowest eigenvalues by bisection with Sturm counts
(stebz), bit-stable across runs but only resolved to a width of
EPS * |T|_1 ~ 4 * 2**-52 * pref / h^2 (9e-7 of the lowest level at 1e5 grid
points; lower digits move with the index range solved), and the
eigenvectors by inverse iteration (stein). scipy is imported only when
LAPACK is called, not when this module is.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .thermo import _ground_dimension, duality_map_from_temperature, free_difference_energies
from .units import (
    Frozen,
    InputError,
    UnitSystem,
    kinetic_prefactor,
    require_level_range,
    require_positive,
)

__all__ = [
    "Spectrum",
    "solve_radial_numeric",
    "hilbert_dim_min",
    "heat_trace",
    "weyl_volume_estimate",
    "qm_partition",
    "thermal_partition",
    "quasistatic_partition",
]


class Spectrum(Frozen):
    """Energy levels with their multiplicities, as two sorted float64 arrays.

    Energies must be finite and multiplicities positive integers; omitted
    multiplicities default to one per listed energy. Multiplicities are
    stored as float64, so counts beyond the int64 range (1e30, say) stay
    representable. Construction sorts the levels by energy and makes both
    arrays read-only, so a Spectrum is validated once and never changes.
    len() is the number of levels, and a Spectrum equals only itself.
    """

    __slots__ = ("energies", "multiplicities")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, energies, multiplicities=None) -> None:
        energies = np.array(energies, dtype=np.float64)
        if energies.ndim != 1 or energies.size == 0:
            raise InputError("energies must be a nonempty one-dimensional sequence")
        multiplicities = (np.ones_like(energies) if multiplicities is None
                          else np.array(multiplicities, dtype=np.float64))
        if multiplicities.shape != energies.shape:
            raise InputError(f"got {multiplicities.size} multiplicities "
                             f"for {energies.size} energies")
        if not np.all(np.isfinite(energies)):
            raise InputError("energies must be finite")
        if not np.all(
            np.isfinite(multiplicities)
            & (multiplicities >= 1.0)
            & (multiplicities == np.floor(multiplicities))
        ):
            raise InputError("each multiplicity must be a positive integer")
        order = np.lexsort((multiplicities, energies))
        energies, multiplicities = energies[order], multiplicities[order]
        energies.flags.writeable = multiplicities.flags.writeable = False
        super().__init__(energies, multiplicities)

    def __len__(self) -> int:
        return self.energies.size


def solve_radial_numeric(
    r0: float,
    grid_points: int,
    k_lowest: int,
    u: UnitSystem,
    potential: Callable[[float], float] | Sequence[float] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k_lowest eigenpairs of -pref*u'' + U(r)u = E u with u(0) = u(r0) = 0.

    Uniform grid np.linspace(0, r0, grid_points), spacing h = r0/(grid_points - 1),
    second-order central differences. potential is None, a callable U(r)
    evaluated only at the interior nodes (never at r = 0, so 1/r wells work),
    or grid_points samples of U on the full grid (the endpoint values never
    enter the matrix); InputError unless every value is finite. Returns
    (energies, modes): the k_lowest energies ascending, and in row j of modes
    u(r) = r*psi(r) on the full grid (both endpoints zero), normalized so that
    sum(u^2) * h = 1 and signed deterministically (positive slope at the origin).

    When U is the same at every interior node the eigenpairs are the closed
    form of the free matrix shifted by that constant; the free energies alone,
    with nothing of size grid_points built, are thermo.free_difference_energies.
    Any other potential is solved by LAPACK. OverflowError is raised as by
    thermo.free_difference_energies, or if a shifted energy or the
    Gershgorin bound 4 pref/h^2 + max|U| is not finite.
    """
    free = free_difference_energies(r0, grid_points, k_lowest, u)
    named = {"r0": r0, "grid_points": grid_points, "k_lowest": k_lowest}
    u_interior = None if potential is None else _interior_potential(potential, r0, grid_points)
    if u_interior is None or np.all(u_interior == u_interior[0]):
        energies = np.array(free) + (0.0 if u_interior is None else float(u_interior[0]))
        require_level_range(energies[-1], **named)
        modes = _free_modes(r0, grid_points, k_lowest)
    else:
        h = r0 / (grid_points - 1)
        inv_h2 = kinetic_prefactor(u) / (h * h)
        bound = 4.0 * inv_h2 + float(np.max(np.abs(u_interior)))
        require_level_range(bound, **named)
        # stebz squares the off-diagonal: scale by the least 2**-k putting the bound below 2**500
        scale = 2.0 ** max(0, math.frexp(bound)[1] - 500)
        diagonal = (2.0 * inv_h2 + u_interior) / scale
        off_diagonal = np.full(grid_points - 3, -inv_h2 / scale)
        energies, vectors = _lapack_lowest(diagonal, off_diagonal, k_lowest)
        energies = energies * scale
        modes = np.zeros((k_lowest, grid_points))
        modes[:, 1:-1] = vectors.T * (1.0 / math.sqrt(h))

    return energies, modes


def _interior_potential(potential, r0: float, grid_points: int) -> np.ndarray:
    # U at the interior nodes, from a callable or from samples on the full grid
    grid = np.linspace(0.0, r0, grid_points)
    if callable(potential):
        values = np.zeros(grid_points)
        values[1:-1] = [float(potential(r)) for r in grid[1:-1].tolist()]
    else:
        values = np.array([float(v) for v in potential])
        if len(values) != grid_points:
            raise InputError(
                f"potential has {len(values)} samples but the grid has {grid_points} nodes"
            )
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise InputError(f"potential is not finite at grid node {bad} (r={float(grid[bad])!r})")
    return values[1:-1]


def _free_modes(r0: float, grid_points: int, k_lowest: int) -> np.ndarray:
    # Eigenvector j of tridiag(-1, 2, -1) is sin(j pi i / (N - 1)) at node i;
    # sqrt(2 / r0) makes sum(u^2) * h = 1, and every first interior value
    # is positive. The endpoints are zero by the boundary condition.
    j = np.arange(1, k_lowest + 1, dtype=np.float64)[:, None]
    i = np.arange(grid_points, dtype=np.float64)
    modes = math.sqrt(2.0 / r0) * np.sin(j * i * (math.pi / (grid_points - 1)))
    modes[:, 0] = modes[:, -1] = 0.0
    return modes


def _lapack_lowest(
    diagonal: np.ndarray, off_diagonal: np.ndarray, k_lowest: int
) -> tuple[np.ndarray, np.ndarray]:
    # Lowest k_lowest eigenvalues of a symmetric tridiagonal matrix by LAPACK
    # stebz (bisection with Sturm counts), and unit eigenvector columns by stein.
    # Deferred: scipy.linalg is most of the package's import time, and only
    # a nonconstant potential needs it.
    from scipy.linalg import eigh_tridiagonal

    energies, vectors = eigh_tridiagonal(
        diagonal, off_diagonal, select="i", select_range=(0, k_lowest - 1)
    )
    for k in range(k_lowest):
        v = vectors[:, k]
        # deterministic sign: first appreciable component positive
        if v[np.argmax(np.abs(v) > 1e-12 * np.max(np.abs(v)))] < 0.0:
            vectors[:, k] = -v
    return energies, vectors


def hilbert_dim_min(spectrum: Spectrum) -> int:
    """Dimension of the lowest-energy eigenspace of a spectrum: the summed multiplicity of
    the levels up to the first relative gap above thermo.DEGENERACY_REL_TOLERANCE. A change
    of units cannot change it, and neither can how far the spectrum extends."""
    levels = zip(map(float, spectrum.energies), map(float, spectrum.multiplicities))
    return int(_ground_dimension(levels))


def _boltzmann_sum(spectrum: Spectrum, s: float) -> float:
    """Sum of multiplicity * exp(-s * energy) over every level, rounded once."""
    with np.errstate(over="ignore", invalid="ignore"):
        terms = spectrum.multiplicities * np.exp(-s * spectrum.energies)
    if math.isinf(s):  # s overflowed: inf * 0 gave nan, but a zero level weighs exp(0) = 1
        zero = spectrum.energies == 0.0
        terms[zero] = spectrum.multiplicities[zero]
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


def weyl_volume_estimate(spectrum: Spectrum, t: float, d: int, u: UnitSystem) -> float:
    """Volume recovered from the trace: heat_trace * (4 pi t)^(d/2)."""
    from .heattrace import weyl_convergence_scan  # deferred: no partition process needs it
    return weyl_convergence_scan(partial(heat_trace, spectrum, u=u), [t], d)[0].volume_estimate


def qm_partition(spectrum: Spectrum, tau: float, u: UnitSystem) -> float:
    """Partition sum over levels at imaginary time tau.

    Computes sum of multiplicity * exp(-E tau / hbar) with the heat-trace
    kernel, so in natural units it equals heat_trace at t = tau bit for bit.
    """
    require_positive("tau", tau)
    return _boltzmann_sum(spectrum, tau / u.hbar)


def thermal_partition(spectrum: Spectrum, temperature: float, u: UnitSystem) -> float:
    """Boltzmann sum at temperature T, evaluated through the dual imaginary time.

    Shares the arithmetic path of qm_partition exactly, so the two sides of
    the substitution agree bit for bit whenever tau and T are duals.
    """
    return qm_partition(spectrum, duality_map_from_temperature(temperature, u), u)


def quasistatic_partition(spectrum: Spectrum, tau: float, u: UnitSystem) -> float:
    """Ground-level contribution: dim(lowest eigenspace) * exp(-E_min tau / hbar).

    The eigenspace counts the levels degenerate with the minimum under the
    default tolerance. The term goes through qm_partition's kernel as a
    one-level spectrum: at tau = 0 it is that dimension exactly, and on a
    one-level spectrum it equals qm_partition bit for bit.
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise InputError(f"tau must be >= 0 and finite, got {tau!r}")
    e_min = float(spectrum.energies[0])
    ground = Spectrum([e_min], [hilbert_dim_min(spectrum)])
    try:
        return _boltzmann_sum(ground, tau / u.hbar)
    except OverflowError:
        raise OverflowError(
            f"quasistatic partition at tau={tau!r} with E_min={e_min!r} "
            "exceeds the double-precision range"
        ) from None
