"""Thermostatic side of the spectral problem.

Covers the ideal-gas fundamental equation S(V) = S0 + k_B ln(V/V0), the
entropy expectation in a radial mode with its volume-independent closed
form (radial_wavefunction evaluates the mode, free_difference_energies its
finite-difference levels), the relation |psi|^2 = exp(S/k_B), the
constraint fixing the fiducial wavenumber, and the tau <-> T substitution
tau = hbar/(k_B T), whose two maps return the dual as a float that must be
a normal double (OverflowError otherwise), the `spectrum` table rows
(sphere_energies, interval_energies, box_modes), the one degeneracy rule, the
package's one sum of m exp(-s E) over levels, the partition sums of the ball
and the cube, the closed form's sine integral Si (sine_integral), and the two
fixed 12-point Gauss rules of the quadrature. All of these take plain Python
numbers, each checked where it is read, so this module uses no arrays.

The fiducial entropy S0 may be the formal value -infinity; that limit is carried as
an explicit IEEE -inf (never a large negative float) and short circuits the wavenumber
constraint to the sine nodes n pi / r0, rounded once by units.pi_over like every k pi / length.
"""

from __future__ import annotations

import cmath
import functools
import heapq
import itertools
import math
import operator

from .units import (
    InputError, UnitSystem, kinetic_prefactor, pi_over, pi_squared_ratio, require_at_least,
    require_level_range, require_positive,
)

__all__ = [
    "DEGENERACY_REL_TOLERANCE",
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
    "sine_integral",
]

# Formal fiducial-entropy limit; use this constant rather than an ad-hoc float.
NEGATIVE_INFINITE_ENTROPY = float("-inf")

# Neighbouring energies E < E' are degenerate when E' - E is at most this
# fraction of |E'|. Far below physical level spacings, far above accumulated
# rounding, and unchanged when every energy is scaled by a change of units.
DEGENERACY_REL_TOLERANCE = 1e-9


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


def radial_wavefunction(n: int, r0: float, r: float) -> float:
    """psi_n(r) = sqrt(2/r0) * sin(c_n r) / r, c_n = n*pi/r0, for r in (0, r0].

    Mode n of interval_energies(r0, ...), normalized against the
    r^2 weight on [0, r0]. The value at r = r0 is zero up to the rounding of
    the sine argument. InputError at an r0 too small for psi to be finite.
    """
    if not (0.0 < r <= r0):
        raise InputError(f"r must lie in (0, {r0!r}], got {r!r}")
    require_positive("r0", r0)  # r0 = inf passes the check on r
    norm, c = math.sqrt(2.0 / r0), pi_over(r0)(n)
    if not (math.isfinite(norm) and math.isfinite(c)):
        raise InputError(f"r0={r0!r} is too small for the radial mode: "
                         f"sqrt(2/r0) or n*pi/r0 is not finite at n={n!r}")
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
            num, den = pi_squared_ratio(pref, length)
            scale = num / den
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
    2l+1), each one rounding of pref times the int l(l+1), as the ball's partition sums them."""
    pref = _level_scale(u, l_max)
    return tuple([pref * (l * (l + 1.0)) for l in range(l_max + 1)])


def interval_energies(length: float, n_max: int, u: UnitSystem) -> tuple[float, ...]:
    """Dirichlet levels pref*(n*pi/length)^2, n = 1..n_max: the key-1 energy, rounded
    once, times the int n^2, as in box_modes(length, 1, n_max) and the partition sums."""
    scale = _level_scale(u, n_max, length)
    return tuple([scale * (n * n) for n in range(1, n_max + 1)])


def box_modes(side: float, d: int, n_max_per_axis: int, u: UnitSystem) -> tuple[tuple, tuple]:
    """Quantum-number tuples and energies pref (pi/side)^2 K of every Dirichlet mode of
    the d-dimensional box with quantum numbers <= n_max_per_axis, K = n_1^2 + ... + n_d^2
    an exact int, so the bits of the levels the cube's partition sums. Sorted by K, ties
    in lexicographic order of the quantum numbers; InputError past 2**53 modes."""
    scale = _level_scale(u, n_max_per_axis, side, d)
    axis = range(1, n_max_per_axis + 1)
    keys = list(map(sum, itertools.product([n * n for n in axis], repeat=d)))
    # product yields the tuples in lexicographic order, and sorted is stable
    order = sorted(range(len(keys)), key=keys.__getitem__)
    numbers = list(itertools.product(axis, repeat=d))
    return tuple(map(numbers.__getitem__, order)), tuple([scale * keys[i] for i in order])


def _ground_dimension(levels) -> int:
    # The one degeneracy rule: walks (energy, multiplicity) pairs in ascending energy while
    # each next E' is degenerate with the one below, E' - E <= DEGENERACY_REL_TOLERANCE |E'|,
    # and sums their multiplicities. It reads no level past the first gap.
    levels = iter(levels)
    below, dim = next(levels)
    for energy, m in levels:
        if energy - below > DEGENERACY_REL_TOLERANCE * abs(energy):
            break
        below, dim = energy, dim + m
    return dim


def _exp_sum(s: float, levels, parts: list | None = None) -> float:
    # The package's one sum of m exp(-s E), over (E, m) pairs in ascending E, rounded once by
    # fsum. A term with x = s E < 0.5 is m + m expm1(-x), so it keeps the digits of x. The
    # terms stop at the first weight that underflows to 0.0, as every later one does; E = 0
    # weighs m, also where s is inf. A list given as parts keeps the terms, and what it held
    # is summed with them. OverflowError naming s unless the sum is a finite double.
    def terms(exp=math.exp, expm1=math.expm1, minus_s=-s):
        for e, m in levels:
            x = minus_s * e if e else 0.0
            if x > -0.5:
                yield m
                yield m * expm1(x)
            elif weight := exp(x):
                yield m * weight
            else:
                return

    try:  # expm1 or the partial sums may leave the double range
        if parts is not None:
            parts += terms()
        total = math.fsum(terms() if parts is None else parts)
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise OverflowError(f"spectral sum at s={s!r} exceeds the double-precision range")
    return total


def _factor_power(s: float, levels, d: int) -> float:
    # _exp_sum(s, levels)**d from its exact sum hi + lo, so that the power multiplies
    # neither a term's rounding nor the sum's by d; hi alone at d = 1.
    parts = None if d == 1 else []
    hi = _exp_sum(s, levels, parts)
    return hi if d == 1 else hi**d + d * hi ** (d - 1) * math.fsum(parts + [-hi])


def _ball_levels(pref: float, scale: float, n_max: int, l_max: int):
    # The ball's levels (pref l(l+1) + scale n^2, 2l + 1) in ascending energy. Row n ascends
    # in l, and enters the heap when level (0, n - 1) leaves it, so the walk follows the
    # lowest levels in order, also where the sectors chain at a tiny r0.
    heap = [(scale, 0, 1)]
    while heap:
        energy, l, n = heapq.heappop(heap)
        yield energy, 2 * l + 1
        if l < l_max:
            heapq.heappush(heap, (pref * ((l + 1) * (l + 2.0)) + scale * (n * n), l + 1, n))
        if l == 0 and n < n_max:
            heapq.heappush(heap, (scale * ((n + 1) * (n + 1)), 0, n + 1))


def _partition_sums(tau, u: UnitSystem, e_min, dim_min, count=None, factors=(), levels=None):
    # (quasistatic, dim_min, count, qm, qm_over_quasistatic) at s = tau/hbar; with no factors,
    # or at tau = 0, the last two are None. The sum over the levels less E_min, at least
    # dim_min, is the product of the factors' sums over their (pairs, power), and qm is
    # exp(-s E_min) times it. Below E_min = 0 the shift would add eps |s E_min| to the rounding
    # of every exponent, so there qm sums the levels themselves.
    if not (math.isfinite(tau) and tau >= 0.0):
        raise InputError(f"tau must be >= 0 and finite, got {tau!r}")
    s = tau / u.hbar
    try:
        quasistatic = _exp_sum(s, [(e_min, dim_min)])
    except OverflowError:
        raise OverflowError(f"quasistatic partition at tau={tau!r} with E_min={e_min!r} "
                            "exceeds the double-precision range") from None
    if tau == 0.0 or not factors:
        return quasistatic, dim_min, count, None, None
    z = math.prod(_factor_power(s, pairs, d) for pairs, d in factors)
    ground = math.exp(-s * e_min) if e_min > 0.0 else 1.0  # s E_min is nan at s = inf, E_min = 0
    qm = ground * z if e_min >= 0.0 else _exp_sum(s, levels)
    return quasistatic, dim_min, count, qm, z / dim_min


def _ball_partition(r0: float, n_max: int, l_max: int, tau: float, u: UnitSystem) -> tuple:
    # _partition_sums of the sectors l <= l_max tensored with the radial tower n <= n_max.
    # Checked as the tables are, and InputError past 2**53 levels.
    pref, scale = _level_scale(u, l_max), _level_scale(u, n_max, r0)
    require_level_range(pref * (l_max * (l_max + 1.0)) + scale * (n_max * n_max),
                        r0=r0, n_max=n_max, l_max=l_max)
    if (l_max + 1) * n_max > 2**53:  # as for the box: the counts would not be exact
        raise InputError(f"(l_max + 1)*n_max ball levels at l_max={l_max!r}, "
                         f"n_max={n_max!r}: more than 2**53")
    dim_min = _ground_dimension(_ball_levels(pref, scale, n_max, l_max))
    sectors = ((pref * (l * (l + 1.0)), 2 * l + 1) for l in range(l_max + 1))
    tower = ((scale * (n * n - 1), 1) for n in range(1, n_max + 1))
    return _partition_sums(tau, u, scale, dim_min, (l_max + 1) * n_max, [(sectors, 1), (tower, 1)])


def _cube_partition(side: float, d: int, n_max: int, tau: float, u: UnitSystem) -> tuple:
    # _partition_sums of the d-cube's levels, one per key K = n_1^2 + ... + n_d^2 with
    # quantum numbers <= n_max: the interval's sum to the power d. Checked as box_modes is.
    scale = _level_scale(u, n_max, side, d)
    keys = 1  # bit K - d is set for each key K, once d > 1 axes with n_max > 1 are added
    for _ in range(d if d > 1 and n_max > 1 else 0):
        keys = functools.reduce(operator.or_, (keys << (n * n - 1) for n in range(1, n_max + 1)))
    # the lowest key d is simple; the next, d + 3, has d modes (none at n_max = 1)
    dim_min = _ground_dimension([(scale * d, 1), (scale * (d + 3), d)][:n_max])
    tower = ((scale * (n * n - 1), 1) for n in range(1, n_max + 1))
    count = keys.bit_count() if d > 1 else n_max
    return _partition_sums(tau, u, scale * d, dim_min, count, [(tower, d)])


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
# 1/(k+1)^2, at 80 digits, each rounded once to a double; no node reaches ln's singular 0.
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


# The entropy quadrature's rules on [0, 1]: Gauss-Legendre, mapped from [-1, 1], and the rule
# for the weight -ln x. _ELLIPSE bounds the Legendre rule's error on sin^2(pi x) q(x), per unit
# of |q| on the Bernstein ellipse rho = 5.75 (Trefethen 2013, Thm 19.3, halved for [0, 1]):
# there |sin(pi x)|^2 <= cosh(pi B)^2, and |x - 1/2| <= A < 3/2 keeps ln(1 + x) analytic.
_UNIT_LEGENDRE = tuple((0.5 + 0.5 * t, 0.5 * w) for t, w in _GL_PAIRS)
_RHO = 5.75
_A, _B = (_RHO + 1 / _RHO) / 4, (_RHO - 1 / _RHO) / 4
_ELLIPSE = 32 / 15 * _RHO**-22 / (_RHO**2 - 1) * math.cosh(math.pi * _B) ** 2
_EPS = 2.0**-52


def _sin2_rule(pairs, f) -> float:
    # sum w sin^2(pi x) f(x) over a rule's (x, w) pairs, rounded once
    return math.fsum(w * s * s * f(x) for x, w in pairs for s in [math.sin(math.pi * x)])


def _entropy_quadrature(n: int, r0: float, u: UnitSystem) -> tuple[float, float]:
    # The expectation by quadrature, and a bound on its error, both times k_B. The n lobes of
    # width w = r0/n fold onto one: at r = (k + x) w, sum_{k<n} ln(r/r0) = n ln v + lgamma(n + x)
    # - lgamma(x) with v = w/r0 (DLMF 5.2.5), so the cost does not grow with n, and r0's
    # cancellation is computed. The Legendre rule takes h(x) = n ln v + lgamma(n + x) -
    # lgamma(1 + x), and the log rule ln x = lgamma(1 + x) - lgamma(x). From n = 2**16 Stirling's
    # series gives lgamma(n + x) (DLMF 5.11.1), so that h's n ln n terms cancel exactly.
    if n > 2**53:  # -n would not be exact
        raise InputError(f"n={n!r} is too large for the entropy quadrature: more than 2**53")
    w = r0 / n
    if w < 2.0**-1022:
        raise InputError(f"w = r0/n is not a normal double at r0={r0!r}, n={n!r}")
    v, h_max = w / r0, n * (1 + _EPS) + 0.5 * math.log(n)  # |h| <= h_max on [0, 1]
    # spread bounds h's rounding in units of eps, where math.log, log1p and sin are within 1 ulp
    # and math.lgamma within 2.5 eps |lgamma(z)| + 8 eps (a test checks these at the arguments)
    if n < 2**16:
        offset = n * math.log(v)

        def h(x: float) -> float:
            return offset + math.lgamma(n + x) - math.lgamma(1 + x)

        spread = 4.5 * (n + 1) * math.log(n + 1) + h_max + 18
    else:
        n_ln_nv = n * math.log(n * v)

        def h(x: float) -> float:  # 0.9189... is ln(2 pi)/2
            return math.fsum((n_ln_nv, n * math.log1p(x / n), (x - 0.5) * math.log(n + x), -n,
                              -x, 0.9189385332046728, 1 / (12 * (n + x)), -math.lgamma(1 + x)))

        spread = 0.51 * n + 0.5 * h_max + math.log(n + 1) + 12 + 1 / (360 * _EPS * n**3)
    value = 6.0 * v * (_sin2_rule(_UNIT_LEGENDRE, h) - _sin2_rule(_LOG_PAIRS, lambda y: 1.0))
    # 6 v times: the log rule's remainder; the Legendre rule's, on h(1/2) sin^2(pi x) and, by
    # _ELLIPSE, on the rest; and the rounding. The README derives each term.
    legendre = 6.4e-20 * h_max
    if n > 1:  # |h(x) - h(1/2)| <= sum_{k<n} -ln(1 - A/(k + 1/2)) on the ellipse
        legendre += _ELLIPSE * (_A * math.log(2 * n - 3) - math.log1p(-_A / 1.5))
    rounding = _EPS * (0.5 * spread + 7.5 * (h_max + 1 + math.log(n)) + 4.5)
    bound = 6.0 * v * (2.8e-20 + legendre + rounding) * 1.01
    return u.k_boltzmann * value, u.k_boltzmann * bound


def entropy_expectation(n: int, r0: float, method: str, u: UnitSystem) -> float:
    """Entropy expectation in radial mode n, with the fiducial constant subtracted.

    method "closed_form" evaluates 3 k_B (Si(2 pi n)/(2 pi n) - 1); method
    "quadrature" sums 3 k_B r^2 |psi_n|^2 ln(r/r0) over [0, r0]
    numerically: the n lobes of the mode are folded onto one, which two fixed
    12-point Gauss rules take (Legendre, and the weight -ln x), at a cost that
    does not grow with n. Its error is within the bound that the `entropy`
    report prints as quadrature_bound, at most 1e-13 k_B. The two
    agree to 1e-8 k_B, and neither depends on r0: the fiducial radius cancels
    from the expectation. The quadrature rejects (InputError) an r0 at which
    w = r0/n is not a normal double, and an n above 2**53.
    """
    require_at_least("n", n, 1)
    require_positive("r0", r0)
    if method == "closed_form":
        x = pi_over(1)(2 * n)
        if math.isinf(x):
            raise InputError(f"n={n!r} is too large for the closed form: 2 pi n is not finite")
        return 3.0 * u.k_boltzmann * (sine_integral(x) / x - 1.0)
    if method == "quadrature":
        return _entropy_quadrature(n, r0, u)[0]
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
    rounds to 1); each multiple of pi is rounded once. Below y = 2**-26, where
    asin(y)/y rounds to 1, the first root is c = exp(S0/(2 k_B)) itself, so a
    subnormal y loses no digits. InputError unless S0 is finite or -inf, r0 > 0
    and branch >= 1; OverflowError naming the inputs if exp(S0/(2 k_B)) (at a
    subnormal r0), the root c or c r0 is not finite, or c is not a normal double.
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
    elif branch == 1 and target < 2.0**-26:  # asin(y) = y, and y may be subnormal
        c = math.exp(log_rhs)
    else:
        period, falling = divmod(branch - 1, 2)
        x = math.asin(target)  # the root on the rising quarter, where sin goes 0 -> 1
        if falling:  # sin goes 1 -> 0: reflect the rising root about the maximum
            x = math.pi - x
        c = (pi_over(1)(2 * period) + x) / r0
    if not math.isfinite(c * r0):  # the constraint's sine takes c r0
        raise OverflowError(f"the fiducial wavenumber c or c*r0 overflows at "
                            f"branch={branch!r}, r0={r0!r}")
    if c < 2.0**-1022:  # subnormal or 0: the root has lost its digits
        raise OverflowError(f"the fiducial wavenumber c is not a normal double at "
                            f"s0={s0!r}, r0={r0!r}")
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
