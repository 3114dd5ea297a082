"""Independent reference values for every report the workloads produce.

Each check recomputes the printed numbers by a route that does not run the
program: closed forms (the Jacobi theta identity, the eigenvalues of the
discrete Laplacian, mpmath's sine integral), exact ``math.fsum`` sums over
closed-form levels, exact integer ground-level counts, and constraint
residuals. A check returns the misses it found as ``{field: Miss}``; an
empty dict means the report is correct.

Tolerances are rounding budgets fixed from the arithmetic of each quantity,
in units of the double-precision epsilon, never fitted to the program's
output:

* a single closed-form expression carries a few roundings (``FORMULA``);
* a spectral sum of ``m * exp(-x)`` terms carries the roundings made while
  forming each exponent ``x`` from the levels, which scale with ``x``
  (``ARGUMENT``), plus the exponential, the multiplicity product and a
  compensated accumulation (``SUM``). The budget is
  ``EPS * (ARGUMENT * sum(term * x) + SUM * sum(term))``;
* the bisection eigensolver resolves each eigenvalue to its stopping width
  ``EPS * |T|_1`` plus Sturm-count rounding (``BISECTION`` widths);
* the quadrature route of the entropy is documented to agree with the
  closed form to 1e-8 k_B.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Callable, Iterable, NamedTuple, Sequence

EPS = 2.0**-52
FORMULA = 4
ARGUMENT = 8
SUM = 4
BISECTION = 4
QUADRATURE_AGREEMENT = 1e-8
# A known defect's miss may grow to this multiple of its error at the seed.
KNOWN_SLACK = 1.25


class Miss(NamedTuple):
    detail: str
    # signed error relative to the reference value; None if not a number
    error: float | None


Misses = dict[str, Miss]
Levels = Sequence[tuple[float, int]]


# Natural units (hbar = k_B = 1, mass = 1/2), which every workload uses
# except where a check takes k_B as an argument.
HBAR = 1.0
KB = 1.0
PREF = HBAR * HBAR / (2.0 * 0.5)  # hbar^2 / (2 m)


# ------------------------------ comparisons --------------------------------

def tolerated(miss: Miss, seed_error: float) -> bool:
    """Whether a known defect's miss is no worse than at the seed commit."""
    return (
        miss.error is not None
        and miss.error * seed_error > 0
        and abs(miss.error) <= KNOWN_SLACK * abs(seed_error)
    )


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _relative(got, want) -> float | None:
    if not (_number(got) and _number(want)) or want == 0:
        return None
    return (got - want) / abs(want)


def _near(misses: Misses, key: str, got, want: float, tol: float) -> None:
    if not _number(got):
        misses[key] = Miss(f"got {got!r}, want {want!r}", None)
        return
    err = got - want
    if not abs(err) <= tol:
        rel = _relative(got, want)
        eps_rel = f"{rel / EPS:+.1f} eps rel" if rel is not None else "absolute"
        misses[key] = Miss(
            f"got {got!r}, want {want!r}: error {err:.3e} ({eps_rel}), tolerance {tol:.3e}", rel
        )


def _equal(misses: Misses, key: str, got, want) -> None:
    # reports print integral floats without a fraction, so 3.0 reads back as 3
    if got != want:
        misses[key] = Miss(f"got {got!r}, want {want!r}", _relative(got, want))


# -------------------------------- parsing ----------------------------------

def _cell(text: str):
    try:
        value = float(text)
    except ValueError:
        return text
    return int(text) if text.lstrip("-").isdigit() else value


def parse(report: bytes, fmt: str):
    """JSON report as a dict, or a CSV table as a list of row dicts."""
    text = report.decode("utf-8")
    if fmt == "json":
        return json.loads(text)
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return [dict(zip(header, (_cell(c) for c in row))) for row in reader]


def table(report: bytes, fmt: str) -> list[dict]:
    """Rows of a table subcommand's report, whichever format it came in."""
    parsed = parse(report, fmt)
    if fmt == "csv":
        return parsed
    columns = parsed["results"]["columns"]
    return [dict(zip(columns, row)) for row in parsed["results"]["rows"]]


# ------------------------------ spectral sums -------------------------------

def level_sum(levels: Iterable[tuple[float, int]], scale: float) -> tuple[float, float]:
    """fsum of the terms m * exp(-E * scale) over levels, and its rounding budget."""
    terms = []
    weighted = []
    for energy, multiplicity in levels:
        x = energy * scale
        term = multiplicity * math.exp(-x)
        terms.append(term)
        weighted.append(term * x)
    total = math.fsum(terms)
    return total, EPS * (ARGUMENT * math.fsum(weighted) + SUM * total)


def jacobi_axis_trace(length: float, t: float) -> tuple[float, float]:
    """sum_{n>=1} exp(-t (n pi / L)^2) by the Jacobi theta identity, with budget.

    The sum equals (L / sqrt(pi t) * (1 + 2 sum_k exp(-k^2 L^2 / t)) - 1) / 2.
    The budget uses sum(term * x) = -t dS/dt, also in closed form.
    """
    import mpmath as mp

    with mp.workdps(40):
        L, tt = mp.mpf(length), mp.mpf(t)
        a = L / mp.sqrt(mp.pi * tt)
        theta = mp.mpf(1)
        slope = mp.mpf(0)
        k = 1
        while True:
            q = mp.exp(-(k * k) * L * L / tt)
            if q < mp.mpf(10) ** -45:
                break
            theta += 2 * q
            slope += 2 * q * (k * k) * L * L / tt
            k += 1
        total = (a * theta - 1) / 2
        weighted = a * theta / 4 - a * slope / 2
        return float(total), float(EPS * (ARGUMENT * weighted + SUM * total))


# --------------------------------- checks ----------------------------------

def check_weyl(
    report: bytes,
    fmt: str,
    t_values: Sequence[float],
    d: int,
    axis: Callable[[float], tuple[float, float]],
    product: bool,
) -> Misses:
    """Heat-trace scan rows against a reference one-axis trace.

    ``product`` marks a product domain, whose trace is the d-th power of
    the axis trace; otherwise the trace is the axis trace itself and only
    the volume estimate carries (4 pi t)^(d/2).
    """
    misses: Misses = {}
    rows = table(report, fmt)
    _equal(misses, "row_count", len(rows), len(t_values))
    for i, (row, t) in enumerate(zip(rows, t_values)):
        tag = f"@{i}"
        _equal(misses, "t" + tag, row["t"], t)
        s, tol = axis(t)
        rel = tol / s
        if product:
            want_trace = s**d
            trace_rel = d * rel + 2 * EPS
            want_estimate = (s * math.sqrt(4.0 * math.pi * t)) ** d
            estimate_rel = d * (rel + FORMULA * EPS) + 2 * EPS
        else:
            want_trace = s
            trace_rel = rel
            want_estimate = s * (4.0 * math.pi * t) ** (0.5 * d)
            estimate_rel = rel + FORMULA * EPS
        _near(misses, "trace" + tag, row["trace"], want_trace, trace_rel * want_trace)
        _near(
            misses,
            "volume_estimate" + tag,
            row["volume_estimate"],
            want_estimate,
            estimate_rel * want_estimate,
        )
    return misses


def check_partition(
    report: bytes,
    levels: Callable[[], Levels],
    ground_dim: int,
    level_count: int,
    tau: float,
) -> Misses:
    """Partition report against fsum over closed-form levels and exact counts."""
    misses: Misses = {}
    results = parse(report, "json")["results"]
    _equal(misses, "dim_min", results.get("dim_min"), ground_dim)
    _equal(misses, "level_count", results.get("level_count"), level_count)
    if tau == 0.0:
        _near(misses, "quasistatic", results.get("quasistatic"), float(ground_dim), 0.0)
        for key in ("qm", "qm_over_quasistatic", "dual_temperature"):
            _equal(misses, key, results.get(key), None)
        return misses
    spectrum = levels()
    scale = tau / HBAR
    e_min = min(e for e, _ in spectrum)
    x0 = e_min * scale
    quasi = ground_dim * math.exp(-x0)
    quasi_tol = EPS * (ARGUMENT * x0 + FORMULA) * quasi
    qm, qm_tol = level_sum(spectrum, scale)
    _near(misses, "quasistatic", results.get("quasistatic"), quasi, quasi_tol)
    _near(misses, "qm", results.get("qm"), qm, qm_tol)
    ratio = qm / quasi
    ratio_rel = qm_tol / qm + quasi_tol / quasi + 2 * EPS
    _near(misses, "qm_over_quasistatic", results.get("qm_over_quasistatic"), ratio, ratio_rel * ratio)
    temperature = HBAR / (KB * tau)
    _near(misses, "dual_temperature", results.get("dual_temperature"), temperature, FORMULA * EPS * temperature)
    return misses


def check_numeric_spectrum(
    report: bytes, fmt: str, r0: float, grid_points: int, k: int
) -> Misses:
    """Finite-difference eigenvalues against 4 pref/h^2 sin^2(j pi / (2 (N - 1)))."""
    misses: Misses = {}
    rows = table(report, fmt)
    _equal(misses, "row_count", len(rows), k)
    h = r0 / (grid_points - 1)
    inv_h2 = PREF / (h * h)
    width = BISECTION * EPS * 4.0 * inv_h2
    for j, row in enumerate(rows, start=1):
        exact = 4.0 * inv_h2 * math.sin(j * math.pi / (2 * (grid_points - 1))) ** 2
        tol = width + FORMULA * EPS * exact
        _equal(misses, f"index@{j}", row["index"], j)
        _near(misses, f"energy@{j}", row["energy"], exact, tol)
        wavenumber = math.sqrt(exact / PREF)
        _near(
            misses,
            f"wavenumber_estimate@{j}",
            row["wavenumber_estimate"],
            wavenumber,
            tol / (2.0 * PREF * wavenumber) + FORMULA * EPS * wavenumber,
        )
    return misses


def check_angular(report: bytes, fmt: str, l_max: int) -> Misses:
    misses: Misses = {}
    rows = table(report, fmt)
    _equal(misses, "row_count", len(rows), l_max + 1)
    for l, row in enumerate(rows):
        _equal(misses, f"l@{l}", row["l"], l)
        _equal(misses, f"degeneracy@{l}", row["degeneracy"], 2 * l + 1)
        energy = PREF * l * (l + 1)
        _near(misses, f"kinetic_energy@{l}", row["kinetic_energy"], energy, FORMULA * EPS * energy)
    return misses


def check_radial(report: bytes, fmt: str, r0: float, n_max: int) -> Misses:
    import mpmath as mp

    misses: Misses = {}
    rows = table(report, fmt)
    _equal(misses, "row_count", len(rows), n_max)
    for n, row in enumerate(rows, start=1):
        c = float(n * mp.pi / mp.mpf(r0))
        _equal(misses, f"n@{n}", row["n"], n)
        _near(misses, f"wavenumber@{n}", row["wavenumber"], c, FORMULA * EPS * c)
        energy = PREF * c * c
        _near(misses, f"kinetic_energy@{n}", row["kinetic_energy"], energy, 2 * FORMULA * EPS * energy)
    return misses


def check_box(report: bytes, fmt: str, side: float, d: int, n_max: int) -> Misses:
    """Every quantum-number tuple once, ascending in energy pref (pi/L)^2 sum n^2."""
    import itertools

    misses: Misses = {}
    rows = table(report, fmt)
    scale = PREF * (math.pi / side) ** 2
    seen = []
    previous = -math.inf
    for i, row in enumerate(rows):
        numbers = tuple(int(n) for n in str(row["quantum_numbers"]).split("x"))
        seen.append(numbers)
        energy = scale * sum(n * n for n in numbers)
        _near(misses, f"kinetic_energy@{i}", row["kinetic_energy"], energy, FORMULA * EPS * energy)
        if row["kinetic_energy"] < previous:
            misses[f"order@{i}"] = Miss("energies not ascending", None)
        previous = row["kinetic_energy"]
    expected = sorted(itertools.product(range(1, n_max + 1), repeat=d))
    if sorted(seen) != expected:
        misses["quantum_numbers"] = Miss(
            f"{len(seen)} tuples, want all {len(expected)} in [1, {n_max}]^{d}", None
        )
    return misses


def check_entropy(report: bytes, n: int, kb: float = KB) -> Misses:
    """Closed form against mpmath's Si; quadrature to the documented 1e-8 k_B."""
    import mpmath as mp

    misses: Misses = {}
    results = parse(report, "json")["results"]
    x = 2.0 * math.pi * n
    with mp.workdps(40):
        exact = float(3 * kb * (mp.si(mp.mpf(x)) / mp.mpf(x) - 1))
    closed, quad = results.get("closed_form"), results.get("quadrature")
    _near(misses, "closed_form", closed, exact, FORMULA * EPS * abs(exact))
    _near(misses, "quadrature", quad, exact, QUADRATURE_AGREEMENT * kb)
    if isinstance(closed, float) and isinstance(quad, float):
        _equal(misses, "difference", results.get("difference"), closed - quad)
    return misses


def check_fiducial(report: bytes, r0: float, s0: float, branch: int) -> Misses:
    """Root by its residual sin(c r0)/r0 - exp(S0/(2 k_B)) and by its place.

    At S0 = -inf the roots are the sine nodes b pi / r0. Otherwise branch b
    lies in period (b - 1) // 2 of the sine, on the rising side for odd b
    and the falling side for even b. The bisection stops within about
    4.5 ulp of x = c r0, which with the sine and the division bounds the
    residual by 8 eps (1 + x) / r0.
    """
    import mpmath as mp

    misses: Misses = {}
    results = parse(report, "json")["results"]
    c = results.get("wavenumber")
    _equal(misses, "branch", results.get("branch"), branch)
    if not isinstance(c, float):
        misses["wavenumber"] = Miss(f"got {c!r}", None)
        return misses
    x = c * r0
    residual_tol = 8 * EPS * (1.0 + x) / r0
    with mp.workdps(40):
        lhs = float(mp.sin(mp.mpf(c) * r0) / r0)
        rhs = 0.0 if s0 == -math.inf else float(mp.exp(mp.mpf(s0) / (2 * KB)))
        node = float(branch * mp.pi / r0)
    _near(misses, "residual", lhs, rhs, residual_tol)
    if s0 == -math.inf:
        _near(misses, "wavenumber", c, node, FORMULA * EPS * node)
        return misses
    period, rising = (branch - 1) // 2, branch % 2 == 1
    lo = 2 * math.pi * period + (0.0 if rising else 0.5 * math.pi)
    slack = 8 * EPS * (1.0 + x)
    if not (lo - slack <= x <= lo + 0.5 * math.pi + slack):
        misses["half_period"] = Miss(f"c r0 = {x!r} outside [{lo!r}, {lo + 0.5 * math.pi!r}]", None)
    _near(misses, "constraint_rhs", results.get("constraint_rhs"), rhs, FORMULA * EPS * rhs)
    _near(misses, "constraint_lhs", results.get("constraint_lhs"), lhs, residual_tol)
    return misses


def check_duality(
    report: bytes, fmt: str, taus: Sequence[float], temperatures: Sequence[float]
) -> Misses:
    misses: Misses = {}
    rows = table(report, fmt)
    want = [(tau, HBAR / (KB * tau)) for tau in taus]
    want += [(HBAR / (KB * temp), temp) for temp in temperatures]
    _equal(misses, "row_count", len(rows), len(want))
    for i, (row, (tau, temp)) in enumerate(zip(rows, want)):
        _near(misses, f"tau@{i}", row["tau"], tau, FORMULA * EPS * tau)
        _near(misses, f"temperature@{i}", row["temperature"], temp, FORMULA * EPS * temp)
    return misses
