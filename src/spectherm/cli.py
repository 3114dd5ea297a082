"""Batch command-line front end.

Subcommands wire the ball, cube and custom-level-list domains into the
library computations and emit a single machine-readable report per
invocation. Reports are deterministic: identical argument vectors produce
byte-identical output, floats are serialized with 17 significant digits,
and every report embeds the resolved configuration it was produced from.

Exit codes: 0 success, 1 computational failure (no real root, quadrature
breakdown, overflow), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .heattrace import weyl_convergence_scan
from .specfun import DEFAULT_QUADRATURE, QuadratureError
from .spectra import (
    DEGENERACY_REL_TOLERANCE,
    Spectrum,
    angular_modes,
    ball_spectrum,
    box_modes,
    group_energies,
    hilbert_dim_min,
    interval_spectrum,
    radial_modes,
    solve_radial_numeric,
)
from .thermo import (
    EntropyOverflowError,
    FundamentalEquation,
    NoRealSolution,
    duality_map,
    duality_map_from_temperature,
    entropy_expectation,
    qm_partition,
    quasistatic_partition,
    solve_fiducial_wavenumber,
)
from .units import UnitSystem, kinetic_prefactor

__all__ = ["UsageError", "load_levels", "run", "main"]

# Per-axis mode cutoff for heat traces: terms exp(-(pi n / L)^2 t) below
# 1e-18 are negligible against the leading ones.
_TAIL_LOG = -math.log(1e-18)
_MAX_AUTO_MODES = 2_000_000
# np.loadtxt reads a line of blanks, or blanks before a comment, as a row
_BLANK_LINE_PREFIX = re.compile(r"^[^\S\n]+(?=#|$)", re.MULTILINE)
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


class UsageError(Exception):
    """Bad command-line input; maps to exit code 2."""


def load_levels(path: str | Path) -> Spectrum:
    """Parse an energy,multiplicity level file (one pair per line, # comments).

    One np.loadtxt call parses the file in C and `Spectrum` checks it. Only
    if that fails is the text read in Python: lines of blanks are cleared
    and the parse retried, then halves of the rows are parsed to find the
    first bad line.
    """
    # np.loadtxt fetches a path with a URL's scheme and host, reads a
    # missing file's compressed sibling and decompresses by suffix. An
    # absolute path that exists and has no such suffix is opened as it is.
    file = os.path.abspath(path)
    if not os.path.exists(file):
        raise UsageError(f"cannot read levels file {path}: no such file")
    if file.endswith(_COMPRESSED_SUFFIXES):
        raise UsageError(f"cannot read levels file {path}: compressed files are not read")
    try:
        return _parse_levels(file)
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read levels file {path}: {exc}") from exc
    except ValueError as exc:
        error = exc
    text, cleared = _BLANK_LINE_PREFIX.subn("", Path(file).read_text(encoding="utf-8"))
    lines = text.split("\n")
    if cleared:
        try:
            return _parse_levels(lines)
        except ValueError as exc:
            error = exc
    rows = [(lineno, line) for lineno, line in enumerate(lines, start=1) if line.split("#", 1)[0]]
    if not rows:
        raise UsageError(f"{path}: {error}") from error
    # each row parses to one row of the table, so a set of rows fails exactly
    # when one of them fails alone, and rows[lo:hi] always fails
    lo, hi = 0, len(rows)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _parse_levels([line for _, line in rows[lo:mid]])
            lo = mid
        except ValueError:
            hi = mid
    lineno, line = rows[lo]
    try:
        _parse_levels([line])
    except ValueError as bad:
        error = bad
    reason = str(error).split(" at row ")[0]  # loadtxt's row is not the line
    raise UsageError(f"{path}:{lineno}: {reason}, in line {line!r}") from error


def _parse_levels(source) -> Spectrum:
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(
            source, delimiter=",", comments="#", dtype=np.float64, ndmin=2, encoding="utf-8"
        )
    if table.size == 0:
        raise ValueError("no levels found")
    if table.shape[1] != 2:
        raise ValueError(f"expected 'energy,multiplicity', got {table.shape[1]} columns")
    return Spectrum(table[:, 0], table[:, 1])


# ----------------------------- serialization -------------------------------

def _format_float(x: float) -> str:
    return format(x, ".17g")


def _json_fragment(value, indent: int) -> str:
    pad = "  " * indent
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [
            f'{pad}  {json.dumps(str(key))}: {_json_fragment(val, indent + 1)}'
            for key, val in value.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {_json_fragment(val, indent + 1)}" for val in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _render_json(report: dict) -> str:
    return _json_fragment(report, 0) + "\n"


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return _format_float(value)
    return str(value)


def _render_csv(columns: Sequence[str], rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(cell) for cell in row])
    return buffer.getvalue()


# ------------------------------- helpers -----------------------------------

def _require_positive(name: str, value: float) -> float:
    if not (math.isfinite(value) and value > 0.0):
        raise UsageError(f"--{name} must be positive and finite, got {value!r}")
    return value


def _units_from(args: argparse.Namespace) -> UnitSystem:
    try:
        return UnitSystem(hbar=args.hbar, k_boltzmann=args.kb, mass=args.mass)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _auto_axis_modes(length: float, t_min: float, n_max: int | None) -> int:
    if n_max is not None:
        if n_max < 1:
            raise UsageError(f"--n-max must be >= 1, got {n_max}")
        return n_max
    count = math.ceil(length / math.pi * math.sqrt(_TAIL_LOG / t_min)) + 2
    if count > _MAX_AUTO_MODES:
        raise UsageError(
            f"t={t_min!r} needs {count} modes per axis; pass --n-max to override"
        )
    return count


# ------------------------------ subcommands --------------------------------

def _cmd_spectrum(args, u: UnitSystem):
    config: dict = {"kind": args.kind}
    if args.kind == "angular":
        if args.l_max < 0:
            raise UsageError(f"--l-max must be >= 0, got {args.l_max}")
        config["l_max"] = args.l_max
        columns = ["l", "kinetic_energy", "degeneracy"]
        rows = [
            [m.l, m.kinetic_energy, m.degeneracy] for m in angular_modes(args.l_max, u)
        ]
    elif args.kind == "radial":
        _require_positive("r0", args.r0)
        if args.n_max < 1:
            raise UsageError(f"--n-max must be >= 1, got {args.n_max}")
        config.update({"r0": args.r0, "n_max": args.n_max})
        columns = ["n", "wavenumber", "kinetic_energy"]
        rows = [
            [m.n, m.wavenumber, m.kinetic_energy]
            for m in radial_modes(args.r0, args.n_max, u)
        ]
    elif args.kind == "box":
        _require_positive("L", args.L)
        if args.d < 1:
            raise UsageError(f"--d must be >= 1, got {args.d}")
        if args.n_max < 1:
            raise UsageError(f"--n-max must be >= 1, got {args.n_max}")
        config.update({"L": args.L, "d": args.d, "n_max_per_axis": args.n_max})
        columns = ["quantum_numbers", "kinetic_energy"]
        rows = [
            ["x".join(str(n) for n in m.quantum_numbers), m.kinetic_energy]
            for m in box_modes(args.L, args.d, args.n_max, u)
        ]
    else:  # numeric
        _require_positive("r0", args.r0)
        if args.grid_points < 3:
            raise UsageError(f"--grid-points must be >= 3, got {args.grid_points}")
        if not (1 <= args.k < args.grid_points - 1):
            raise UsageError(
                f"--k must satisfy 1 <= k < grid_points - 1, got {args.k}"
            )
        config.update({"r0": args.r0, "grid_points": args.grid_points, "k": args.k})
        spectrum = solve_radial_numeric(
            args.r0, args.grid_points, args.k, u, eigvals_only=True
        )
        pref = kinetic_prefactor(u)
        columns = ["index", "energy", "wavenumber_estimate"]
        rows = [
            [k + 1, float(e), math.sqrt(max(float(e), 0.0) / pref)]
            for k, e in enumerate(spectrum.energies)
        ]
    results = {"columns": columns, "rows": rows}
    return config, results, (columns, rows)


def _cmd_weyl(args, u: UnitSystem):
    t_values = args.t
    if not t_values:
        raise UsageError("at least one --t value is required")
    for t in t_values:
        _require_positive("t", t)
    t_min = min(t_values)
    d = args.d if args.d is not None else (3 if args.domain == "cube" else 1)
    if d < 1:
        raise UsageError(f"--d must be >= 1, got {d}")

    if args.domain == "ball":
        _require_positive("r0", args.r0)
        n_max = _auto_axis_modes(args.r0, t_min, args.n_max)
        spectrum = interval_spectrum(args.r0, n_max, u)
        config = {"domain": "ball", "r0": args.r0, "d": d, "n_max": n_max}
        axes = 1  # radial tower is already the full spectrum
    elif args.domain == "cube":
        _require_positive("L", args.L)
        n_max = _auto_axis_modes(args.L, t_min, args.n_max)
        spectrum = interval_spectrum(args.L, n_max, u)
        config = {"domain": "cube", "L": args.L, "d": d, "n_max_per_axis": n_max}
        axes = d  # product of d identical intervals
    else:
        if args.levels is None:
            raise UsageError("--levels FILE is required for --domain custom")
        spectrum = load_levels(args.levels)
        config = {"domain": "custom", "levels": str(args.levels), "d": d}
        axes = 1

    config["t"] = list(t_values)
    columns = ["t", "trace", "volume_estimate"]
    rows = weyl_convergence_scan(spectrum, t_values, d, u, axes)
    results = {"columns": columns, "rows": rows}
    return config, results, (columns, rows)


def _cmd_entropy(args, u: UnitSystem):
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    _require_positive("r0", args.r0)
    config = {
        "n": args.n,
        "r0": args.r0,
        "abs_tolerance": DEFAULT_QUADRATURE.abs_tolerance,
        "max_subdivisions": DEFAULT_QUADRATURE.max_subdivisions,
    }
    closed = entropy_expectation(args.n, args.r0, "closed_form", u)
    quad = entropy_expectation(args.n, args.r0, "quadrature", u)
    results = {
        "closed_form": closed,
        "quadrature": quad,
        "difference": closed - quad,
    }
    return config, results, None


def _cmd_fiducial(args, u: UnitSystem):
    _require_positive("r0", args.r0)
    _require_positive("v0", args.v0)
    _require_positive("temperature", args.temperature)
    if args.branch < 1:
        raise UsageError(f"--branch must be >= 1, got {args.branch}")
    if math.isnan(args.s0) or args.s0 == math.inf:
        raise UsageError(f"--s0 must be finite or -inf, got {args.s0!r}")
    fe = FundamentalEquation(s0=args.s0, v0=args.v0, temperature_fixed=args.temperature)
    config = {
        "r0": args.r0,
        "s0": None if not fe.has_finite_entropy else args.s0,
        "s0_is_negative_infinity": not fe.has_finite_entropy,
        "v0": args.v0,
        "temperature_fixed": args.temperature,
        "branch": args.branch,
    }
    c = solve_fiducial_wavenumber(fe, args.r0, args.branch, u)
    results: dict = {"wavenumber": c, "branch": args.branch}
    if fe.has_finite_entropy:
        results["constraint_lhs"] = math.sin(c * args.r0) / args.r0
        results["constraint_rhs"] = math.exp(args.s0 / (2.0 * u.k_boltzmann))
    return config, results, None


def _cmd_partition(args, u: UnitSystem):
    if args.tau < 0.0 or not math.isfinite(args.tau):
        raise UsageError(f"--tau must be >= 0 and finite, got {args.tau!r}")
    if args.n_max < 1:
        raise UsageError(f"--n-max must be >= 1, got {args.n_max}")

    if args.domain == "ball":
        _require_positive("r0", args.r0)
        if args.l_max < 0:
            raise UsageError(f"--l-max must be >= 0, got {args.l_max}")
        levels = ball_spectrum(args.r0, args.n_max, args.l_max, u)
        config = {
            "domain": "ball",
            "r0": args.r0,
            "n_max": args.n_max,
            "l_max": args.l_max,
        }
    elif args.domain == "cube":
        _require_positive("L", args.L)
        d = args.d if args.d is not None else 3
        if d < 1:
            raise UsageError(f"--d must be >= 1, got {d}")
        modes = box_modes(args.L, d, args.n_max, u)
        levels = group_energies([m.kinetic_energy for m in modes])
        config = {"domain": "cube", "L": args.L, "d": d, "n_max_per_axis": args.n_max}
    else:
        if args.levels is None:
            raise UsageError("--levels FILE is required for --domain custom")
        levels = load_levels(args.levels)
        config = {"domain": "custom", "levels": str(args.levels)}

    config["tau"] = args.tau
    config["degeneracy_rel_tolerance"] = DEGENERACY_REL_TOLERANCE

    quasistatic = quasistatic_partition(levels, args.tau, u)
    results: dict = {
        "quasistatic": quasistatic,
        "dim_min": hilbert_dim_min(levels),
        "level_count": len(levels),
    }
    if args.tau > 0.0:
        qm = qm_partition(levels, args.tau, u)
        results["qm"] = qm
        results["qm_over_quasistatic"] = qm / quasistatic
        results["dual_temperature"] = duality_map(args.tau, u).temperature
    else:
        results["qm"] = None
        results["qm_over_quasistatic"] = None
        results["dual_temperature"] = None
    return config, results, None


def _cmd_duality(args, u: UnitSystem):
    taus = args.tau or []
    temperatures = args.temperature or []
    if not taus and not temperatures:
        raise UsageError("provide at least one --tau or --temperature")
    for value in taus:
        _require_positive("tau", value)
    for value in temperatures:
        _require_positive("temperature", value)
    config = {"tau": list(taus), "temperature": list(temperatures)}
    columns = ["tau", "temperature"]
    rows = []
    for tau in taus:
        point = duality_map(tau, u)
        rows.append([point.imaginary_time, point.temperature])
    for temperature in temperatures:
        point = duality_map_from_temperature(temperature, u)
        rows.append([point.imaginary_time, point.temperature])
    results = {"columns": columns, "rows": rows}
    return config, results, (columns, rows)


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "weyl": _cmd_weyl,
    "entropy": _cmd_entropy,
    "fiducial": _cmd_fiducial,
    "partition": _cmd_partition,
    "duality": _cmd_duality,
}


# -------------------------------- parser -----------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--hbar", type=float, default=1.0, help="reduced Planck constant")
    common.add_argument("--kb", type=float, default=1.0, help="Boltzmann constant")
    common.add_argument("--mass", type=float, default=0.5, help="particle mass")
    common.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    common.add_argument("--out", default=None, help="write the report to this path")

    parser = argparse.ArgumentParser(
        prog="spectherm",
        description="Spectra, heat traces and thermostatic duals on balls and boxes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="eigenmode tables")
    p.add_argument("--kind", choices=("angular", "radial", "box", "numeric"), required=True)
    p.add_argument("--l-max", type=int, default=5)
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--grid-points", type=int, default=500)
    p.add_argument("--k", type=int, default=5)

    p = sub.add_parser("weyl", parents=[common], help="volume estimate scan")
    p.add_argument("--domain", choices=("ball", "cube", "custom"), required=True)
    p.add_argument("--t", type=float, action="append", required=True)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--levels", default=None)

    p = sub.add_parser("entropy", parents=[common], help="entropy expectation, both routes")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--r0", type=float, default=1.0)

    p = sub.add_parser("fiducial", parents=[common], help="fiducial wavenumber constraint")
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--v0", type=float, default=1.0)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--branch", type=int, default=1)

    p = sub.add_parser("partition", parents=[common], help="partition functions")
    p.add_argument("--domain", choices=("ball", "cube", "custom"), required=True)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--n-max", type=int, default=25)
    p.add_argument("--l-max", type=int, default=0)
    p.add_argument("--levels", default=None)

    p = sub.add_parser("duality", parents=[common], help="imaginary time vs temperature")
    p.add_argument("--tau", type=float, action="append")
    p.add_argument("--temperature", type=float, action="append")

    return parser


def _join_signed_values(argv: Sequence[str]) -> list[str]:
    # argparse reads a bare "-inf" after --s0 as an option flag; fold the
    # value into the --s0=... form so signed entropies parse naturally
    out: list[str] = []
    i = 0
    tokens = list(argv)
    while i < len(tokens):
        token = tokens[i]
        if token == "--s0" and i + 1 < len(tokens) and tokens[i + 1].startswith("-"):
            out.append(f"--s0={tokens[i + 1]}")
            i += 2
            continue
        out.append(token)
        i += 1
    return out


def run(argv: Sequence[str]) -> int:
    """Parse argv, dispatch, and write one report. Returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(_join_signed_values(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        units = _units_from(args)
        config, results, table = _HANDLERS[args.subcommand](args, units)
        if args.format == "csv":
            if table is None:
                raise UsageError(
                    "csv output is only available for table subcommands "
                    "(spectrum, weyl, duality)"
                )
            payload = _render_csv(*table)
        else:
            units_config = {"hbar": args.hbar, "k_boltzmann": args.kb, "mass": args.mass}
            report = {
                "subcommand": args.subcommand,
                "config": {**units_config, **config},
                "results": results,
            }
            payload = _render_json(report)
        if args.out is not None:
            Path(args.out).write_text(payload, encoding="utf-8")
        else:
            sys.stdout.write(payload)
        return 0
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoRealSolution, QuadratureError, EntropyOverflowError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
