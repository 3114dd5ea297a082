"""Level lists of the kinetic operator and every sum over them.

A level file (load_levels) is a `Spectrum`: sorted energies with their
multiplicities, whose lowest eigenspace hilbert_dim_min counts by thermo's
one degeneracy rule. The analytic families need no level list.

The heat trace at diffusion time t and the partition function at imaginary
time tau (qm_partition, thermal_partition, quasistatic_partition) are the
same sum of m * exp(-s * E), with s = t/(hbar^2/2m) or s = tau/hbar, which
thermo's one kernel (_exp_sum) sums exactly and rounds once, with nothing
truncated. heat_trace sums it over a level list, and interval_heat_trace
over the Dirichlet interval, which the ball and the cube need, in closed
form. Times (4 pi t)^(d/2), a trace recovers the domain volume as t -> 0:
weyl_volume_estimate, and weyl_convergence_scan over a one-axis trace
callable. Exact ratios with pi are pairs of ints (units.pi_squared_ratio),
and no trace uses arrays, so no scan loads numpy.

A finite-difference solver covers the radial problem with an arbitrary
radial potential, given as a callable U(r) or as samples on the grid.
Substituting u(r) = r*psi(r) removes the first-derivative term and the
coordinate singularity at r = 0, leaving a plain Dirichlet problem
-pref * u'' + U(r) u = E u on the interval, discretized by central
differences into a symmetric tridiagonal matrix. thermo.free_difference_energies
checks the grid and forms the free levels; it uses no arrays, so `spectrum
--kind numeric` loads no numpy. When U is constant on the
interior nodes (in particular with no potential) the eigenvectors are sines
and the eigenvalues those levels plus U. Any other potential goes to LAPACK,
once the matrix's Gershgorin bound is finite (the matrix is scaled by a
power of two when that bound is above 2**500, since stebz squares the
off-diagonal): the lowest eigenvalues by bisection with Sturm counts
(stebz), bit-stable across runs but only resolved to a width of
EPS * |T|_1 ~ 4 * 2**-52 * pref / h^2 (9e-7 of the lowest level at 1e5 grid
points; lower digits move with the index range solved), and the
eigenvectors by inverse iteration (stein). Only the solver imports numpy,
and scipy only when LAPACK is called; neither is imported with this module.
"""

from __future__ import annotations

import math
from array import array
from functools import partial
from itertools import count, repeat
from operator import eq, ge, sub
from pathlib import Path
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .thermo import (
    _exp_sum, _ground_dimension, _partition_sums, duality_map_from_temperature,
    free_difference_energies,
)
from .units import (
    PI_RATIONAL, Frozen, InputError, UnitSystem, kinetic_prefactor, pi_squared_ratio,
    require_at_least, require_level_range, require_normal, require_positive,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Spectrum",
    "load_levels",
    "solve_radial_numeric",
    "hilbert_dim_min",
    "heat_trace",
    "interval_heat_trace",
    "WeylScanRow",
    "weyl_convergence_scan",
    "weyl_volume_estimate",
    "qm_partition",
    "thermal_partition",
    "quasistatic_partition",
]


class Spectrum(Frozen):
    """Energy levels with their multiplicities, as two sorted float64 columns.

    Energies must be finite and multiplicities positive integers; omitted
    multiplicities default to one per listed energy. Multiplicities are
    stored as float64, so counts beyond the int64 range (1e30, say) stay
    representable. Construction sorts the levels by energy, then by
    multiplicity, and keeps each column as a read-only memoryview of an
    array('d') (it has .tolist() and .tobytes(), and np.asarray reads it),
    so a Spectrum is validated once and never changes. len() is the number
    of levels, iterating yields (energy, multiplicity) pairs, and a Spectrum
    equals only itself.
    """

    __slots__ = ("energies", "multiplicities")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, energies, multiplicities=None) -> None:
        energies = array("d", energies)  # TypeError unless a flat sequence of numbers
        count = len(energies)
        multiplicities = array("d", [1.0] * count if multiplicities is None else multiplicities)
        if not count:
            raise InputError("energies must be a nonempty one-dimensional sequence")
        if len(multiplicities) != count:
            raise InputError(f"got {len(multiplicities)} multiplicities for {count} energies")
        if not all(map(math.isfinite, energies)):
            raise InputError("energies must be finite")
        if not (all(map(float.is_integer, multiplicities)) and min(multiplicities) >= 1.0):
            raise InputError("each multiplicity must be a positive integer")
        if any(map(ge, energies, energies[1:])):  # not strictly ascending: sort stably
            order = sorted(range(count), key=energies.__getitem__)
            ordered = array("d", map(energies.__getitem__, order))
            if any(map(eq, ordered, ordered[1:])):  # equal energies ascend in multiplicity
                order = sorted(sorted(range(count), key=multiplicities.__getitem__),
                               key=energies.__getitem__)
                ordered = array("d", map(energies.__getitem__, order))
            energies, multiplicities = ordered, array("d", map(multiplicities.__getitem__, order))
        super().__init__(memoryview(energies).toreadonly(), memoryview(multiplicities).toreadonly())

    def __len__(self) -> int:
        return len(self.energies)

    def __iter__(self):  # the (energy, multiplicity) pairs, in ascending energy
        return zip(self.energies, self.multiplicities)

    def _values(self) -> tuple:  # for pickle and repr: a memoryview's list
        return self.energies.tolist(), self.multiplicities.tolist()


_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def load_levels(path: str | Path) -> Spectrum:
    """Parse an energy,multiplicity level file (one pair per line, # comments).

    Chunks of lines drop comments and blank lines, and float() parses their
    columns, which `Spectrum` checks. If that fails, a pass over the lines
    names the first that fails alone. Every failure raises InputError.
    """
    if str(path).endswith(_COMPRESSED_SUFFIXES):
        raise InputError(f"cannot read levels file {path}: compressed files are not read")
    try:
        with open(path, encoding="utf-8") as text:  # universal newlines: a lone CR ends a line
            return Spectrum(*_columns(text))
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read levels file {path}: {exc}") from exc
    except ValueError:  # _columns takes every file whose lines each pass _check_row
        for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").split("\n"), start=1):
            row = line.partition("#")[0]
            try:
                if row.strip():
                    _check_row(row)
            except ValueError as error:
                raise InputError(f"{path}:{lineno}: {error}, in line {line!r}") from None
    raise InputError(f"{path}: no levels found")


def _columns(text) -> tuple[Sequence[float], Sequence[float]]:
    # Both columns; ValueError at a row that is not two ASCII numbers (no "_") around a comma.
    energies, multiplicities = array("d"), array("d")
    while lines := text.readlines(1 << 16):
        if "#" in "".join(lines):
            lines = [line.partition("#")[0] for line in lines]
        rows = list(filter(None, map(str.strip, lines)))
        fields = ",".join(rows)
        if not fields.isascii() or any(map(fields.__contains__, "\x1c\x1d\x1e\x1f")):
            fields = ",".join(map(str.strip, fields.split(",")))  # blanks float() keeps
        if not fields.isascii() or "_" in fields or set(map(str.count, rows, repeat(","))) - {1}:
            raise ValueError("not two ASCII numbers around one comma")
        values = array("d", map(float, fields.split(",") if rows else ()))
        energies.extend(values[0::2])
        multiplicities.extend(values[1::2])
    return energies, multiplicities


def _check_row(row: str) -> None:
    # np.loadtxt's or Spectrum's message if the row fails alone: blanks (str.strip's) may
    # surround a number, and only ASCII and no "_" may be in it.
    level = []
    for field in row.split(","):
        core = field.strip()
        try:
            level.append(float(core if core.isascii() and "_" not in core else "?"))
        except ValueError:
            raise ValueError(f"could not convert string {repr(field)[:100]} to float64") from None
    if len(level) != 2:
        raise InputError(f"expected 'energy,multiplicity', got {len(level)} columns")
    Spectrum(*zip(level))  # the checks of one level


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
    import numpy as np
    free = free_difference_energies(r0, grid_points, k_lowest, u)
    named = {"r0": r0, "grid_points": grid_points, "k_lowest": k_lowest}
    u_interior = None if potential is None else _interior_potential(potential, r0, grid_points)
    if u_interior is None or np.all(u_interior == u_interior[0]):
        energies = np.array(free) + (0.0 if u_interior is None else float(u_interior[0]))
        require_level_range(energies[-1], **named)
        # eigenvector j of tridiag(-1, 2, -1) is sin(j pi i / (N - 1)) at node i, positive at
        # i = 1; sqrt(2 / r0) makes sum(u^2) * h = 1, and the endpoints are zero
        ji = np.arange(1.0, k_lowest + 1.0)[:, None] * np.arange(float(grid_points))
        modes = math.sqrt(2.0 / r0) * np.sin(ji * (math.pi / (grid_points - 1)))
        modes[:, 0] = modes[:, -1] = 0.0
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
    import numpy as np
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


def _lapack_lowest(
    diagonal: np.ndarray, off_diagonal: np.ndarray, k_lowest: int
) -> tuple[np.ndarray, np.ndarray]:
    # Lowest k_lowest eigenvalues of a symmetric tridiagonal matrix by LAPACK
    # stebz (bisection with Sturm counts), and unit eigenvector columns by stein.
    # Deferred: scipy.linalg is most of the package's import time, and only
    # a nonconstant potential needs it.
    import numpy as np
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
    the levels up to the first relative gap above thermo.DEGENERACY_REL_TOLERANCE, an exact
    int sum. A change of units cannot change it, and neither can how far the spectrum extends."""
    return _ground_dimension(zip(spectrum.energies, map(int, spectrum.multiplicities)))


def heat_trace(spectrum: Spectrum, t: float, u: UnitSystem) -> float:
    """Sum of multiplicity * exp(t * lambda) with lambda = -energy/(hbar^2/2m).

    Every level is summed exactly, so permutations of the input change
    nothing. Requires t > 0 and nonnegative energies.
    """
    require_positive("t", t)
    if spectrum.energies[0] < 0.0:
        raise InputError(f"energies must be >= 0, got {spectrum.energies[0]!r}")
    return _exp_sum(t / kinetic_prefactor(u), spectrum)


def interval_heat_trace(length: float, t: float) -> float:
    """sum_{n>=1} exp(-t (n pi/length)^2), the Dirichlet interval trace, untruncated.

    With a = t (pi/length)^2 >= 0.1 every nonzero term is summed (at most
    86). Below that it is (c (1 + 2 S) - 1)/2 with c = length/sqrt(pi t),
    where S sums every nonzero exp(-k^2 length^2/t) (at most 2): Jacobi's
    theta inversion, DLMF 20.7.32. a and c^2 are exact ratios of ints rounded
    once, c carries a Newton correction, and each side is one thermo._exp_sum.
    """
    require_positive("length", length)
    require_normal("t", t)
    num, den = pi_squared_ratio(t, length)  # a = num/den
    if 10 * num >= den:  # num / den may overflow; exp(-746) == 0
        return _exp_sum(num / den if num < 746 * den else 746.0, ((k * k, 1) for k in count(1)))
    e = (den.bit_length() - num.bit_length()) // 2
    sn, sd = PI_RATIONAL[0] * den, PI_RATIONAL[1] * num << 2 * e  # c^2 / 4^e, near 1
    root = math.sqrt(sn / sd)
    c = math.ldexp(root, e)  # OverflowError if the trace does not fit a double
    rn, rd = root.as_integer_ratio()  # Newton: c_low 2^-e = (s - root^2)/(2 root)
    c_low = math.ldexp((sn * rd * rd - sd * rn * rn) / (2 * sd * rd * rn), e)
    dual = ((k * k, 2.0 * c) for k in count(1))  # 2 c exp(-k^2 length^2/t)
    return 0.5 * _exp_sum(length / t * length, dual, [c, c_low, -1.0])


class WeylScanRow(NamedTuple):
    t: float
    trace: float
    volume_estimate: float


def _times_weyl_power(a: float, t: float, num: int, den: int) -> float:
    """a * (4 pi t)**(num/den), also where that power, or 4 pi t itself, overflows.

    There it writes a = a_m 2^a_e and 4 pi t = x_m 2^x_e with frexp, x_m
    from 4 pi times the mantissa of t, and splits x_e num = k den + r exactly,
    k an integer and 0 <= r < den: the product is
    ldexp(a_m x_m**(num/den) 2**(r/den), a_e + k), a few roundings and no log
    or exp. A zero a gives 0.0; OverflowError if the product is out of range,
    or if x_m**(num/den) has lost digits to underflow (num/den above about 1000).
    """
    x = 4.0 * math.pi * t
    if math.isfinite(x):
        try:
            return a * x ** (num / den)
        except OverflowError:
            pass
    if a == 0.0:
        return 0.0
    (a_m, a_e), (t_m, t_e) = math.frexp(a), math.frexp(t)
    x_m, x_e = math.frexp(4.0 * math.pi * t_m)
    k, r = divmod((x_e + t_e) * num, den)
    scaled = a_m * x_m ** (num / den) * 2.0 ** (r / den)
    if scaled < 2.0**-1022:
        raise OverflowError(f"(4 pi t)**p at t={t!r}, p={num}/{den} has no accurate double scaling")
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
            estimate = _times_weyl_power(axis, t, d, 2 * axes)
            row = WeylScanRow(t=t, trace=axis**axes, volume_estimate=estimate**axes)
        except OverflowError:
            row = None
        if row is None or math.isinf(row.volume_estimate):
            raise OverflowError(f"the Weyl scan at t={t!r} exceeds the double-precision range")
        rows.append(row)
    return rows


def weyl_volume_estimate(spectrum: Spectrum, t: float, d: int, u: UnitSystem) -> float:
    """Volume recovered from the trace: heat_trace * (4 pi t)^(d/2)."""
    return weyl_convergence_scan(partial(heat_trace, spectrum, u=u), [t], d)[0].volume_estimate


def qm_partition(spectrum: Spectrum, tau: float, u: UnitSystem) -> float:
    """Partition sum over levels at imaginary time tau.

    Computes sum of multiplicity * exp(-E tau / hbar) with the heat-trace
    kernel, so in natural units it equals heat_trace at t = tau bit for bit.
    """
    require_positive("tau", tau)
    return _exp_sum(tau / u.hbar, spectrum)


def thermal_partition(spectrum: Spectrum, temperature: float, u: UnitSystem) -> float:
    """Boltzmann sum at temperature T, evaluated through the dual imaginary time.

    Shares the arithmetic path of qm_partition exactly, so the two sides of
    the substitution agree bit for bit whenever tau and T are duals.
    """
    return qm_partition(spectrum, duality_map_from_temperature(temperature, u), u)


def quasistatic_partition(spectrum: Spectrum, tau: float, u: UnitSystem) -> float:
    """Ground-level contribution: dim(lowest eigenspace) * exp(-E_min tau / hbar).

    The eigenspace counts the levels degenerate with the minimum under the
    default tolerance. The term goes through qm_partition's kernel as one
    level: at tau = 0 it is that dimension exactly, and on a one-level
    spectrum it equals qm_partition bit for bit.
    """
    return _partition_sums(tau, u, spectrum.energies[0], hilbert_dim_min(spectrum))[0]


def _custom_partition(levels, tau: float, u: UnitSystem, source) -> tuple:
    # _partition_sums of a level file's Spectrum: one walk for dim_min, exact below 2**53
    # (InputError naming source otherwise), and one for the levels less E_min.
    if not (dim_min := _ground_dimension(levels)) < 2**53:
        raise InputError(f"{source}: the ground multiplicities sum to {dim_min!r}, "
                         "2**53 or more, so dim_min would not be exact")
    energies, e_min = levels.energies, levels.energies[0]
    shifted = zip(map(sub, energies, repeat(e_min)), levels.multiplicities)
    return _partition_sums(tau, u, e_min, int(dim_min), len(levels), [(shifted, 1)], levels)
