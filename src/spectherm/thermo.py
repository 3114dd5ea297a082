"""Thermostatic side of the spectral problem.

Covers the ideal-gas fundamental equation S(V) = S0 + k_B ln(V/V0), the
entropy expectation in a radial mode with its volume-independent closed
form (radial_wavefunction evaluates the mode, free_difference_energies its
finite-difference levels), the relation |psi|^2 = exp(S/k_B), the
constraint fixing the fiducial wavenumber, and the tau <-> T substitution
tau = hbar/(k_B T), whose two maps return the dual as a float that must be
a normal double (OverflowError otherwise), and the `spectrum` table rows
(sphere_energies, interval_energies, box_modes). All of these take plain
Python numbers, each checked where it is read, so this module uses no arrays;
the level lists and their partition sums live beside the spectral kernel, in spectra.

The fiducial entropy S0 may be the formal value -infinity; that limit is carried as
an explicit IEEE -inf (never a large negative float) and short circuits the wavenumber
constraint to the sine nodes n pi / r0, rounded once by units.pi_over like every k pi / length.
"""

from __future__ import annotations

import itertools
import math

from .specfun import integrate, sine_integral
from .units import (
    PI_RATIONAL, InputError, UnitSystem, kinetic_prefactor, pi_over,
    require_at_least, require_level_range, require_positive,
)

__all__ = [
    "NEGATIVE_INFINITE_ENTROPY",
    "NoRealSolution",
    "ideal_gas_entropy",
    "entropy_expectation",
    "entropy_from_density",
    "solve_fiducial_wavenumber",
    "duality_map",
    "duality_map_from_temperature",
    "boltzmann_weight_from_entropy",
    "radial_wavefunction",
    "free_difference_energies",
    "sphere_energies",
    "interval_energies",
    "box_modes",
]

# Formal fiducial-entropy limit; use this constant rather than an ad-hoc float.
NEGATIVE_INFINITE_ENTROPY = float("-inf")


class NoRealSolution(Exception):
    """The fiducial constraint has no real wavenumber solution.

    Raised when exp(S0/(2 k_B)) exceeds 1/r0, since the sine factor is
    bounded by one.
    """


def _require_s0(s0: float) -> None:
    if math.isnan(s0) or s0 == math.inf:
        raise InputError(f"s0 must be finite or -inf, got {s0!r}")


def ideal_gas_entropy(v: float, s0: float, v0: float, u: UnitSystem) -> float:
    """S(V) = S0 + k_B ln(V/V0) for the reference state (S0, V0): S0 finite or
    NEGATIVE_INFINITE_ENTROPY, whose formal limit returns -inf, and V, V0 > 0."""
    _require_s0(s0)
    require_positive("v0", v0)
    require_positive("volume", v)
    if s0 == NEGATIVE_INFINITE_ENTROPY:
        return NEGATIVE_INFINITE_ENTROPY
    return s0 + u.k_boltzmann * math.log(v / v0)


def _mode(n: int, r0: float, what: str) -> tuple[float, float]:
    # sqrt(2/r0) and c_n = n pi / r0 (rounded once) of radial_wavefunction, or InputError
    norm, c = math.sqrt(2.0 / r0), pi_over(r0)(n)
    if not (math.isfinite(norm) and math.isfinite(c)):
        raise InputError(f"r0={r0!r} is too small for {what}: "
                         f"sqrt(2/r0) or n*pi/r0 is not finite at n={n!r}")
    return norm, c


def radial_wavefunction(n: int, r0: float, r: float) -> float:
    """psi_n(r) = sqrt(2/r0) * sin(c_n r) / r, c_n = n*pi/r0, for r in (0, r0].

    Mode n of spectra.interval_spectrum(r0, ...), normalized against the
    r^2 weight on [0, r0]. The value at r = r0 is zero up to the rounding of
    the sine argument. InputError at an r0 too small for psi to be finite.
    """
    if not (0.0 < r <= r0):
        raise InputError(f"r must lie in (0, {r0!r}], got {r!r}")
    require_positive("r0", r0)  # r0 = inf passes the check on r
    norm, c = _mode(n, r0, "the radial mode")
    if math.isfinite(psi := norm * math.sin(c * r) / r):
        return psi
    raise InputError(f"r0={r0!r} is too small for the radial mode: psi({r!r}) is not finite")


def free_difference_energies(
    r0: float, grid_points: int, k_lowest: int, u: UnitSystem
) -> tuple[float, ...]:
    """Lowest k_lowest levels 4 pref/h^2 sin^2(j pi / (2 (N - 1))) of the radial
    modes on N = grid_points nodes, h = r0/(N - 1): the closed-form eigenvalues of
    spectra.solve_radial_numeric with no potential. OverflowError if a level is
    not finite (also when h^2 is not a normal double) or the lowest is not a normal
    double; InputError unless r0 > 0, grid_points >= 3, 1 <= k_lowest < grid_points - 1."""
    require_positive("r0", r0)
    require_at_least("grid_points", grid_points, 3)
    if not (1 <= k_lowest < grid_points - 1):
        raise InputError(
            f"k_lowest must satisfy 1 <= k_lowest < grid_points - 1, got {k_lowest!r}"
        )
    pref, h = kinetic_prefactor(u), r0 / (grid_points - 1)
    # a subnormal h^2 has lost digits, so that pref/h^2 would be wrong: treat it as 0
    scale = 4.0 * (pref / (h * h)) if h * h >= 2.0**-1022 else math.inf
    sines = map(math.sin, map(pi_over(grid_points - 1, 2), range(1, k_lowest + 1)))
    energies = tuple(scale * s * s for s in sines)
    require_level_range(
        energies[-1], energies[0], r0=r0, grid_points=grid_points, k_lowest=k_lowest
    )
    return energies


def _level_scale(u: UnitSystem, n_max: int, length: float | None = None, d: int | None = None):
    # Checks an analytic family and returns its key-1 energy: pref for the sphere (no length;
    # n_max is l_max), else pref (pi/length)^2 for the interval (no d) and the box, a ratio of
    # ints divided with one correct rounding. OverflowError naming the inputs unless the top
    # level is finite and key 1's normal; InputError past 2**53 box modes (inexact counts).
    if length is None:
        require_at_least("l_max", n_max, 0)
        given, top_key = {"l_max": n_max}, n_max * (n_max + 1)
    elif d is None:
        require_positive("length", length)
        require_at_least("n_max", n_max, 1)
        given, top_key = {"length": length, "n_max": n_max}, n_max * n_max
    else:
        require_positive("side", length)
        require_at_least("d", d, 1)
        require_at_least("n_max_per_axis", n_max, 1)
        given, top_key = {"side": length, "n_max": n_max}, d * n_max * n_max
    scale = pref = kinetic_prefactor(u)
    try:  # the division, or the top key's conversion to float, may pass the double range
        if length is not None:
            (a, b), (c, e) = pref.as_integer_ratio(), length.as_integer_ratio()
            scale = a * (PI_RATIONAL[0] * e) ** 2 / (b * (PI_RATIONAL[1] * c) ** 2)
        top = scale * top_key
    except OverflowError:
        scale = top = math.inf
    require_level_range(top, scale, **given)
    if d is not None and n_max > 1 and (d > 53 or n_max**d > 2**53):
        raise InputError(f"{n_max}**{d} box modes: more than 2**53, "
                         "so the multiplicities would not be exact")
    return scale


def sphere_energies(l_max: int, u: UnitSystem) -> tuple[float, ...]:
    """Energies pref*l(l+1) of the angular sectors l = 0..l_max (multiplicity
    2l+1), each one rounding of pref times the int l(l+1), as in spectra.sphere_spectrum."""
    pref = _level_scale(u, l_max)
    return tuple([pref * (l * (l + 1.0)) for l in range(l_max + 1)])


def interval_energies(length: float, n_max: int, u: UnitSystem) -> tuple[float, ...]:
    """Dirichlet levels pref*(n*pi/length)^2, n = 1..n_max: the key-1 energy, rounded
    once, times the int n^2, as in spectra.interval_spectrum and box_modes(length, 1, n_max)."""
    scale = _level_scale(u, n_max, length)
    return tuple([scale * (n * n) for n in range(1, n_max + 1)])


def box_modes(side: float, d: int, n_max_per_axis: int, u: UnitSystem) -> tuple[tuple, tuple]:
    """Quantum-number tuples and energies pref (pi/side)^2 K of every Dirichlet mode of
    the d-dimensional box with quantum numbers <= n_max_per_axis, K = n_1^2 + ... + n_d^2
    an exact int, so the bits of spectra.box_spectrum's levels. Sorted by K, ties in
    lexicographic order of the quantum numbers; checked as box_spectrum is."""
    scale = _level_scale(u, n_max_per_axis, side, d)
    axis = range(1, n_max_per_axis + 1)
    keys = list(map(sum, itertools.product([n * n for n in axis], repeat=d)))
    # product yields the tuples in lexicographic order, and sorted is stable
    order = sorted(range(len(keys)), key=keys.__getitem__)
    numbers = list(itertools.product(axis, repeat=d))
    return tuple(map(numbers.__getitem__, order)), tuple([scale * keys[i] for i in order])


def _entropy_quadrature(n: int, r0: float, u: UnitSystem) -> float:
    # radial_wavefunction's arithmetic, with no range check (the nodes lie in (0, r0])
    norm, c = _mode(n, r0, "the entropy quadrature")

    def integrand(r: float) -> float:
        rr = r * r  # subnormal or 0 at a tiny node: the weight would lose its digits
        if rr < 2.0**-1022:
            raise InputError(f"r0={r0!r} is too small for the entropy quadrature: "
                             f"r*r is not a normal double at the node r={r!r}")
        psi = norm * math.sin(c * r) / r
        return rr * psi * psi * math.log(r / r0)

    return 3.0 * u.k_boltzmann * integrate(integrand, 0.0, r0)


def entropy_expectation(n: int, r0: float, method: str, u: UnitSystem) -> float:
    """Entropy expectation in radial mode n, with the fiducial constant subtracted.

    method "closed_form" evaluates 3 k_B (Si(2 pi n)/(2 pi n) - 1); method
    "quadrature" integrates 3 k_B r^2 |psi_n|^2 ln(r/r0) over [0, r0]
    numerically. The two agree to 1e-8 k_B, and neither depends on r0: the
    fiducial radius cancels from the expectation. The quadrature rejects an r0
    (InputError) at which r*r is not a normal double at a Gauss node, below about 2e-150.
    """
    require_at_least("n", n, 1)
    require_positive("r0", r0)
    if method == "closed_form":
        x = pi_over(1)(2 * n)
        return 3.0 * u.k_boltzmann * (sine_integral(x) / x - 1.0)
    if method == "quadrature":
        return _entropy_quadrature(n, r0, u)
    raise InputError(f"method must be 'closed_form' or 'quadrature', got {method!r}")


def entropy_from_density(psi_squared: float, u: UnitSystem) -> float:
    """Entropy matching a probability density: S = k_B ln |psi|^2."""
    require_positive("psi_squared", psi_squared)
    return u.k_boltzmann * math.log(psi_squared)


def boltzmann_weight_from_entropy(s: float, u: UnitSystem) -> float:
    """exp(S/k_B), the statistical weight attached to an entropy value."""
    if not math.isfinite(s):
        raise InputError(f"entropy must be finite, got {s!r}")
    exponent = s / u.k_boltzmann
    try:
        return math.exp(exponent)
    except OverflowError:
        raise OverflowError(f"exp({exponent:.6g}) exceeds the double-precision range") from None


def solve_fiducial_wavenumber(s0: float, r0: float, branch: int, u: UnitSystem) -> float:
    """Wavenumber c solving sin(c r0)/r0 = exp(S0/(2 k_B)), branch-th root.

    In the formal S0 = -inf limit the constraint degenerates to sin(c r0) = 0
    and the roots are the sine nodes branch pi / r0. For finite S0 the roots
    alternate between the rising and the falling quarter of each positive
    lobe of the sine, and (k, falling) = divmod(branch - 1, 2) names them.
    With y = r0 exp(S0/(2 k_B)) (NoRealSolution past 1), c r0 = 2 pi k + asin(y),
    2 pi k + pi - asin(y) when falling, or (4 branch - 3) pi / 2 at tangency (y
    rounds to 1); each multiple of pi is rounded once. InputError unless S0 is
    finite or -inf, r0 > 0 and branch >= 1; OverflowError naming the inputs if
    exp(S0/(2 k_B)) (at a subnormal r0), the root c or c r0 is not finite.
    """
    _require_s0(s0)
    require_positive("r0", r0)
    require_at_least("branch", branch, 1)

    log_rhs = s0 / (2.0 * u.k_boltzmann)  # compared in log space, so no S0 overflows here
    if log_rhs > -math.log(r0):
        raise NoRealSolution(
            f"exp(S0/(2 k_B)) = exp({log_rhs:.6g}) exceeds 1/r0 = {1.0 / r0:.6g}; "
            "the sine factor is bounded by one"
        )
    try:  # log_rhs <= -ln r0, so exp overflows only at a subnormal r0
        target = math.exp(log_rhs) * r0  # solve sin(x) = target with x = c * r0
    except OverflowError:
        raise OverflowError(f"exp(S0/(2 k_B)) overflows at s0={s0!r}, r0={r0!r}") from None
    if s0 == NEGATIVE_INFINITE_ENTROPY:
        c = pi_over(r0)(branch)
    elif target >= 1.0:  # tangency (exact or by rounding): one root per period, at the maxima
        c = pi_over(r0, 2)(4 * branch - 3)
    else:
        period, falling = divmod(branch - 1, 2)
        x = math.asin(target)  # the root on the rising quarter, where sin goes 0 -> 1
        if falling:  # sin goes 1 -> 0: reflect the rising root about the maximum
            x = math.pi - x
        c = (pi_over(1)(2 * period) + x) / r0
    if not math.isfinite(c * r0):  # the constraint's sine takes c r0
        raise OverflowError(f"the fiducial wavenumber c or c*r0 overflows at "
                            f"branch={branch!r}, r0={r0!r}")
    return c


def _dual(name: str, value: float, u: UnitSystem) -> float:
    # hbar/(k_B value): tau from T or T from tau. A dual that overflows (k_B
    # value underflowing to 0 too) or is subnormal (it has lost digits) is a
    # computational failure.
    require_positive(name, value)
    product = u.k_boltzmann * value
    dual = u.hbar / product if product else math.inf
    if not (math.isfinite(dual) and dual >= 2.0**-1022):
        raise OverflowError(f"hbar/(k_B {name}) at {name}={value!r} is not a normal double")
    return dual


def duality_map(tau: float, u: UnitSystem) -> float:
    """Temperature dual to the imaginary time tau: T = hbar/(k_B tau)."""
    return _dual("tau", tau, u)


def duality_map_from_temperature(temperature: float, u: UnitSystem) -> float:
    """Imaginary time dual to a temperature: tau = hbar/(k_B T)."""
    return _dual("temperature", temperature, u)
