"""Independent reference computations used to pin expected values.

Nothing here touches the package's own numerical code paths: the
integrator is a classic adaptive Simpson scheme, spectral sums are plain
fsum loops, and gold-standard values come from mpmath at high working
precision. Frozen constants below were produced by these same routines at
50 decimal digits and rounded to the nearest double.
"""

from __future__ import annotations

import math
from collections import Counter

import mpmath as mp

# --- frozen reference values (50-digit computation, rounded to double) ----

SI_1 = 0.946083070367183
SI_PI = 1.8519370519824663
SI_2PI = 1.4181515761326284
SI_10 = 1.6583475942188741

# 3 (Si(2 pi n)/(2 pi n) - 1) in units of k_B
ENTROPY_EXPECTATION = {
    1: -2.3228824998147894,
    2: -2.6437727475872586,
    3: -2.7583973912511266,
    4: -2.8172346656033174,
    5: -2.8530335486538365,
}

EXP_MINUS_PI2_OVER_10 = 0.3727078388534379

# unit-interval Dirichlet trace times sqrt(4 pi t); equals 1 - sqrt(pi t)
# up to corrections of order exp(-1/t)
INTERVAL_VOLUME_ESTIMATE = {
    1e-2: 0.8227546149094483,
    1e-4: 0.9822754614909448,
    1e-6: 0.9982275461490945,
}

CUBE_VOLUME_ESTIMATE_1E6 = 0.9946920576569163


# --------------------------- adaptive Simpson ------------------------------

def adaptive_simpson(f, a: float, b: float, tol: float = 1e-13, max_depth: int = 48,
                     min_depth: int = 0) -> float:
    """Classic recursive Simpson refinement with Richardson correction. The first min_depth
    levels always split, so that an integrand that vanishes at the first nodes, such as
    sin^2(4 pi x) on [0, 1], is not taken for 0."""

    def recurse(x0, f0, x2, f2, x4, f4, whole, tol, depth):
        x1 = 0.5 * (x0 + x2)
        x3 = 0.5 * (x2 + x4)
        f1 = f(x1)
        f3 = f(x3)
        left = (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)
        right = (x4 - x2) / 6.0 * (f2 + 4.0 * f3 + f4)
        delta = left + right - whole
        if depth >= max_depth or (depth >= min_depth and abs(delta) <= 15.0 * tol):
            return left + right + delta / 15.0
        return recurse(x0, f0, x1, f1, x2, f2, left, 0.5 * tol, depth + 1) + recurse(
            x2, f2, x3, f3, x4, f4, right, 0.5 * tol, depth + 1
        )

    fa = f(a)
    fb = f(b)
    mid = 0.5 * (a + b)
    fmid = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fmid + fb)
    return recurse(a, fa, mid, fmid, b, fb, whole, tol, 0)


def si_by_quadrature(x: float, tol: float = 1e-14) -> float:
    """Sine integral straight from its defining integral."""
    if x == 0.0:
        return 0.0
    sign = 1.0 if x > 0 else -1.0
    magnitude = abs(x)

    def integrand(t: float) -> float:
        return math.sin(t) / t if t != 0.0 else 1.0

    return sign * adaptive_simpson(integrand, 0.0, magnitude, tol=tol)


# ------------------------------- mpmath ------------------------------------

def si_mpmath(x: float) -> float:
    with mp.workdps(30):
        return float(mp.si(x))


def entropy_expectation_mpmath(n: int, r0: float = 1.0) -> float:
    """3 int_0^r0 r^2 |psi_n|^2 ln(r/r0) dr by tanh-sinh quadrature (k_B = 1)."""
    with mp.workdps(30):
        r0_mp = mp.mpf(r0)

        def integrand(r):
            s = mp.sin(n * mp.pi * r / r0_mp)
            return 3 * (2 / r0_mp) * s * s * mp.log(r / r0_mp)

        return float(mp.quad(integrand, [0, r0_mp]))


def radial_overlap_mpmath(n: int, m: int, r0: float) -> float:
    """int_0^r0 r^2 psi_n psi_m dr, the r^2-weighted mode overlap."""
    with mp.workdps(30):
        r0_mp = mp.mpf(r0)

        def integrand(r):
            return (2 / r0_mp) * mp.sin(n * mp.pi * r / r0_mp) * mp.sin(m * mp.pi * r / r0_mp)

        return float(mp.quad(integrand, [0, r0_mp]))


def gauss_rule_mpmath(moment, nodes: int = 12, dps: int = 80):
    """The Gauss rule of a weight on [0, 1] from its moments moment(k) = int x^k w(x) dx:
    Golub & Welsch (1969), the Jacobi matrix from the Cholesky factor R of the Hankel matrix
    of moments, and its eigenpairs. Returns the (node, weight) pairs in ascending node, as
    mpmath numbers at dps digits, and int pi_N(x)^2 w(x) dx = R[N, N]^2 of the monic
    orthogonal polynomial pi_N, the factor of the rule's remainder."""
    with mp.workdps(dps):
        m = [moment(k) for k in range(2 * nodes + 1)]
        r = mp.cholesky(mp.matrix([[m[i + j] for j in range(nodes + 1)]
                                   for i in range(nodes + 1)])).T
        jacobi = mp.matrix(nodes, nodes)
        for k in range(nodes):
            jacobi[k, k] = r[k, k + 1] / r[k, k] - (r[k - 1, k] / r[k - 1, k - 1] if k else 0)
            if k + 1 < nodes:
                jacobi[k, k + 1] = jacobi[k + 1, k] = r[k + 1, k + 1] / r[k, k]
        values, vectors = mp.eigsy(jacobi)
        pairs = sorted((values[k], m[0] * vectors[0, k] ** 2) for k in range(nodes))
        return pairs, r[nodes, nodes] ** 2


def key_one_energy_mpmath(pref: float, length: float, key: int = 1):
    """pref (pi/length)^2 key, the analytic level of an int key (n^2 on the interval,
    n_1^2 + ... + n_d^2 in the box), at 60 digits from the doubles pref and length.
    Returned as an mpmath number; float() of it is the correctly rounded level."""
    with mp.workdps(60):
        return mp.mpf(pref) * (mp.pi / mp.mpf(length)) ** 2 * key


def wavenumber_mpmath(n: int, length: float):
    """n pi / length at 60 digits, as an mpmath number."""
    with mp.workdps(60):
        return n * mp.pi / mp.mpf(length)


# --------------------------- direct spectral sums ---------------------------

def interval_trace_direct(t: float, length: float = 1.0) -> float:
    """Sum exp(-(pi n / length)^2 t) with fsum until terms vanish."""
    terms = []
    n = 1
    while True:
        term = math.exp(-((math.pi * n / length) ** 2) * t)
        if terms and term < 1e-300:
            break
        if terms and term < 1e-30 * terms[0]:
            break
        terms.append(term)
        n += 1
    return math.fsum(terms)


def interval_trace_theta(t: float, length: float = 1.0):
    """sum_{n>=1} exp(-t (n pi / length)^2) through the Jacobi theta identity.

    theta_3 inversion turns the slowly converging small-t sum into
    (L / sqrt(pi t) * (1 + 2 sum_{k>=1} exp(-k^2 L^2 / t)) - 1) / 2, whose
    correction terms vanish fast exactly where the direct sum is long.
    Returned as a 40-digit mpmath number.
    """
    with mp.workdps(40):
        L, tt = mp.mpf(length), mp.mpf(t)
        theta = mp.mpf(1)
        k = 1
        while True:
            q = mp.exp(-(k * k) * L * L / tt)
            if q < mp.mpf(10) ** -45:
                break
            theta += 2 * q
            k += 1
        return (L / mp.sqrt(mp.pi * tt) * theta - 1) / 2


def interval_heat_trace_mpmath(length: float, t: float):
    """sum_{n>=1} exp(-a n^2), a = t (pi / length)^2, to 50 digits for any a > 0.

    The direct sum when a >= 1, where it converges in a few terms, and the
    theta form of interval_trace_theta below that, where its dual sum does;
    each stops once a term falls below 1e-60 of the first. The 40-digit
    interval_trace_theta has no digits left at large a, where the trace is
    tiny against the two terms it subtracts. Returned as an mpmath number.
    """
    with mp.workdps(50):
        L, tt = mp.mpf(length), mp.mpf(t)
        a = tt * (mp.pi / L) ** 2
        scale = a if a >= 1 else L * L / tt
        terms = [mp.exp(-scale)]
        k = 2
        while terms[-1] >= terms[0] * mp.mpf(10) ** -60:
            terms.append(mp.exp(-scale * k * k))
            k += 1
        if a >= 1:
            return mp.fsum(terms)
        return (L / mp.sqrt(mp.pi * tt) * (1 + 2 * mp.fsum(terms)) - 1) / 2


def boltzmann_sum_mpmath(energies, multiplicities, s: float) -> float:
    """sum m * exp(-x) with x = s * E formed in double precision, summed at 50 digits.

    The exponent is rounded exactly as a double-precision kernel forms it,
    so the comparison isolates the exponential and the summation.
    """
    with mp.workdps(50):
        return float(
            mp.fsum(
                mp.mpf(m) * mp.exp(-mp.mpf(s * e))
                for e, m in zip(energies, multiplicities)
            )
        )


def cube_levels(d: int, n_max: int) -> list[tuple[int, int]]:
    """(key, multiplicity) of the Dirichlet box, ascending in the integer key.

    The key of the tuple (n_1, ..., n_d), 1 <= n_i <= n_max, is
    n_1^2 + ... + n_d^2; the counts come from convolving one axis at a time
    in Python integers, which never wrap.
    """
    counts = Counter({0: 1})
    for _ in range(d):
        step: Counter = Counter()
        for key, count in counts.items():
            for n in range(1, n_max + 1):
                step[key + n * n] += count
        counts = step
    return sorted(counts.items())


def dirichlet_tridiagonal_eigenvalue(k: int, grid_points: int, r0: float = 1.0) -> float:
    """Exact k-th eigenvalue of the central-difference Dirichlet matrix.

    For -u'' discretized on grid_points nodes spanning [0, r0] the
    eigenvalues are (2/h^2)(1 - cos(k pi h / r0)) with h = r0/(grid_points-1).
    """
    h = r0 / (grid_points - 1)
    return (2.0 / (h * h)) * (1.0 - math.cos(k * math.pi * h / r0))


def dirichlet_tridiagonal_eigenvalue_mpmath(
    k: int, grid_points: int, r0: float = 1.0, pref: float = 1.0
):
    """k-th eigenvalue of pref/h^2 * tridiag(-1, 2, -1), to 40 digits.

    The scale pref/h^2 is rounded to a double exactly as the solver forms
    it; the eigenvalue 4 (pref/h^2) sin^2(k pi / (2 (grid_points - 1))) of
    that matrix is then evaluated at 40 digits and returned as an mpmath
    number.
    """
    h = r0 / (grid_points - 1)
    inv_h2 = pref / (h * h)
    with mp.workdps(40):
        return 4 * mp.mpf(inv_h2) * mp.sin(k * mp.pi / (2 * (grid_points - 1))) ** 2


def shooting_ground_energy(potential, lo: float, hi: float, r0: float = 1.0) -> float:
    """Lowest eigenvalue of -u'' + U(r)u = E u on [0, r0] by shooting.

    Integrates the ODE from u(0) = 0, u'(0) = 1 and bisects E on [lo, hi]
    until the boundary value u(r0) changes sign. Entirely independent of
    any matrix discretization.
    """
    from scipy.integrate import solve_ivp

    def endpoint(E: float) -> float:
        def rhs(r, y):
            return [y[1], (potential(r) - E) * y[0]]

        sol = solve_ivp(rhs, [0.0, r0], [0.0, 1.0], rtol=1e-10, atol=1e-12)
        return float(sol.y[0, -1])

    f_lo = endpoint(lo)
    f_hi = endpoint(hi)
    if f_lo * f_hi >= 0:
        raise ValueError(f"bracket [{lo}, {hi}] does not straddle an eigenvalue")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        f_mid = endpoint(mid)
        if f_lo * f_mid <= 0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)
