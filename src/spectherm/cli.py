"""Batch command-line front end.

Subcommands wire the ball, cube and custom-level-list domains into the
library computations and emit a single machine-readable report per
invocation. Reports are deterministic: identical argument vectors produce
byte-identical output, floats are serialized with 17 significant digits
(a non-finite one is an error, never printed), and every report embeds the
resolved configuration it was produced from.

Each subcommand is declared once, as an argparse subparser naming its
handler and formats; only spectrum, weyl and duality offer csv, so
argparse refuses it elsewhere before anything is computed. Arguments are
checked where they are used: the library raises InputError for any value
it rejects, and load_levels for an unreadable or malformed level file.
The front end itself checks only what no library call sees: that a
custom domain names a level file, and that duality gets a value.

Only the handlers that build a level list import spectra, and with it
numpy: partition and a custom domain's level file (load_levels); every
spectrum table takes its rows from thermo. Only weyl imports heattrace
(and fractions), so entropy, fiducial, duality and spectrum load neither;
csv output is joined by hand and imports no csv module.

Exit codes: 0 success, 1 computational failure (no real root, quadrature
breakdown, overflow, out of memory), 2 rejected input (InputError, an
unreadable file, or an argument argparse refuses).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .specfun import ABS_TOLERANCE, MAX_SUBDIVISIONS, QuadratureError
from .thermo import (
    NEGATIVE_INFINITE_ENTROPY, NoRealSolution, box_modes, duality_map,
    duality_map_from_temperature, entropy_expectation, free_difference_energies,
    interval_energies, solve_fiducial_wavenumber, sphere_energies,
)
from .units import InputError, UnitSystem, kinetic_prefactor, pi_over

if TYPE_CHECKING:
    from .spectra import Spectrum

__all__ = ["load_levels", "run", "main"]

_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def load_levels(path: str | Path) -> Spectrum:
    """Parse an energy,multiplicity level file (one pair per line, # comments).

    One np.loadtxt call parses the file in C and `Spectrum` checks it. Only
    if that fails is the text read in Python: the parse is retried once on
    the lines with more than blanks before any comment (np.loadtxt reads a
    line of blanks as a row), then halves of those lines are parsed to find
    the first bad one. Every failure raises InputError.
    """
    # np.loadtxt fetches a path with a URL's scheme and host, reads a
    # missing file's compressed sibling and decompresses by suffix. An
    # absolute path that exists and has no such suffix is opened as it is.
    file = os.path.abspath(path)
    if not os.path.exists(file):
        raise InputError(f"cannot read levels file {path}: no such file")
    if file.endswith(_COMPRESSED_SUFFIXES):
        raise InputError(f"cannot read levels file {path}: compressed files are not read")
    try:
        return _parse_levels(file)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read levels file {path}: {exc}") from exc
    except ValueError as exc:
        error = exc
    lines = enumerate(Path(file).read_text(encoding="utf-8").split("\n"), start=1)
    rows = [(lineno, line) for lineno, line in lines if line.split("#", 1)[0].strip()]
    if not rows:
        raise InputError(f"{path}: {error}") from error
    try:
        return _parse_levels([line for _, line in rows])
    except ValueError:  # each row parses to one row of the table, so a set of rows
        lo, hi = 0, len(rows)  # fails exactly when one fails alone: rows[lo:hi] always does
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
    raise InputError(f"{path}:{lineno}: {reason}, in line {line!r}") from error


def _parse_levels(source) -> Spectrum:
    import numpy as np

    from .spectra import Spectrum

    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        table = np.loadtxt(
            source, delimiter=",", comments="#", dtype=np.float64, ndmin=2, encoding="utf-8"
        )
    if table.size == 0:
        raise InputError("no levels found")
    if table.shape[1] != 2:
        raise InputError(f"expected 'energy,multiplicity', got {table.shape[1]} columns")
    return Spectrum(table[:, 0], table[:, 1])


# ----------------------------- serialization -------------------------------

def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise OverflowError(f"a result is not finite: {x!r}")
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
    # No cell can hold a comma, a quote or a line break (floats, ints, column
    # names, 1x2x3 quantum numbers), so no cell needs csv quoting.
    lines = [columns, *([_csv_cell(cell) for cell in row] for row in rows)]
    return "".join(",".join(line) + "\n" for line in lines)


# ------------------------------ subcommands --------------------------------

def _cmd_spectrum(args, u: UnitSystem):
    config: dict = {"kind": args.kind}
    if args.kind == "numeric":
        config.update({"r0": args.r0, "grid_points": args.grid_points, "k": args.k})
        energies = free_difference_energies(args.r0, args.grid_points, args.k, u)
        pref = kinetic_prefactor(u)
        columns = ["index", "energy", "wavenumber_estimate"]
        rows = [[k, e, math.sqrt(e / pref)] for k, e in enumerate(energies, start=1)]
    elif args.kind == "angular":
        config["l_max"] = args.l_max
        columns = ["l", "kinetic_energy", "degeneracy"]
        rows = [[l, e, 2 * l + 1] for l, e in enumerate(sphere_energies(args.l_max, u))]
    elif args.kind == "radial":
        config.update({"r0": args.r0, "n_max": args.n_max})
        energies = interval_energies(args.r0, args.n_max, u)
        columns, wavenumber = ["n", "wavenumber", "kinetic_energy"], pi_over(args.r0)
        rows = [(n, wavenumber(n), e) for n, e in enumerate(energies, start=1)]
    else:  # box
        config.update({"L": args.L, "d": args.d, "n_max_per_axis": args.n_max})
        numbers, energies = box_modes(args.L, args.d, args.n_max, u)
        columns = ["quantum_numbers", "kinetic_energy"]
        rows = [["x".join(map(str, q)), e] for q, e in zip(numbers, energies)]
    return config, {"columns": columns, "rows": rows}


def _custom_levels(args) -> Spectrum:
    if args.levels is None:
        raise InputError("--levels FILE is required for --domain custom")
    return load_levels(args.levels)


def _cmd_weyl(args, u: UnitSystem):
    from .heattrace import interval_heat_trace, weyl_convergence_scan

    d = args.d if args.d is not None else (3 if args.domain == "cube" else 1)
    if args.domain == "custom":
        from . import spectra

        config = {"domain": "custom", "levels": str(args.levels), "d": d}
        axis_trace = partial(spectra.heat_trace, _custom_levels(args), u=u)
    else:
        ball = args.domain == "ball"
        length = args.r0 if ball else args.L
        config = {"domain": args.domain, "r0" if ball else "L": length, "d": d}
        axis_trace = partial(interval_heat_trace, length)

    config["t"] = list(args.t)
    columns = ["t", "trace", "volume_estimate"]
    # the ball's radial tower is its whole spectrum; a cube is d identical intervals
    rows = weyl_convergence_scan(axis_trace, args.t, d, d if args.domain == "cube" else 1)
    return config, {"columns": columns, "rows": rows}


def _cmd_entropy(args, u: UnitSystem):
    config = {
        "n": args.n,
        "r0": args.r0,
        "abs_tolerance": ABS_TOLERANCE,
        "max_subdivisions": MAX_SUBDIVISIONS,
    }
    closed = entropy_expectation(args.n, args.r0, "closed_form", u)
    quad = entropy_expectation(args.n, args.r0, "quadrature", u)
    results = {
        "closed_form": closed,
        "quadrature": quad,
        "difference": closed - quad,
    }
    return config, results


def _cmd_fiducial(args, u: UnitSystem):
    c = solve_fiducial_wavenumber(args.s0, args.r0, args.branch, u)
    limit = args.s0 == NEGATIVE_INFINITE_ENTROPY
    config = {
        "r0": args.r0,
        "s0": None if limit else args.s0,
        "s0_is_negative_infinity": limit,
        "branch": args.branch,
    }
    results: dict = {"wavenumber": c, "branch": args.branch}
    if not limit:
        results["constraint_lhs"] = math.sin(c * args.r0) / args.r0
        results["constraint_rhs"] = math.exp(args.s0 / (2.0 * u.k_boltzmann))
    return config, results


def _cmd_partition(args, u: UnitSystem):
    from . import spectra

    if args.domain == "ball":
        levels = spectra.ball_spectrum(args.r0, args.n_max, args.l_max, u)
        config = {
            "domain": "ball",
            "r0": args.r0,
            "n_max": args.n_max,
            "l_max": args.l_max,
        }
    elif args.domain == "cube":
        d = args.d if args.d is not None else 3
        levels = spectra.box_spectrum(args.L, d, args.n_max, u)
        config = {"domain": "cube", "L": args.L, "d": d, "n_max_per_axis": args.n_max}
    else:
        levels = _custom_levels(args)
        config = {"domain": "custom", "levels": str(args.levels)}

    config["tau"] = args.tau
    config["degeneracy_rel_tolerance"] = spectra.DEGENERACY_REL_TOLERANCE

    dim_min = spectra.hilbert_dim_min(levels)
    results: dict = {
        "quasistatic": spectra.quasistatic_partition(levels, args.tau, u),
        "dim_min": dim_min,
        "level_count": len(levels),
        "qm": None,
        "qm_over_quasistatic": None,
        "dual_temperature": None,
    }
    if args.tau > 0.0:
        # exp(-E_min tau / hbar) cancelled: finite and >= 1 where both sums underflow
        shifted = spectra.Spectrum(levels.energies - levels.energies[0], levels.multiplicities)
        results["qm"] = spectra.qm_partition(levels, args.tau, u)
        results["qm_over_quasistatic"] = spectra.qm_partition(shifted, args.tau, u) / dim_min
        results["dual_temperature"] = duality_map(args.tau, u)
    return config, results


def _cmd_duality(args, u: UnitSystem):
    taus = args.tau or []
    temperatures = args.temperature or []
    if not taus and not temperatures:
        raise InputError("provide at least one --tau or --temperature")
    config = {"tau": list(taus), "temperature": list(temperatures)}
    columns = ["tau", "temperature"]
    rows = [[tau, duality_map(tau, u)] for tau in taus]
    rows += [[duality_map_from_temperature(t, u), t] for t in temperatures]
    return config, {"columns": columns, "rows": rows}


# -------------------------------- parser -----------------------------------

def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--hbar", type=float, default=1.0, help="reduced Planck constant")
    common.add_argument("--kb", type=float, default=1.0, help="Boltzmann constant")
    common.add_argument("--mass", type=float, default=0.5, help="particle mass")
    common.add_argument("--out", default=None, help="write the report to this path")

    domain = argparse.ArgumentParser(add_help=False)
    domain.add_argument("--domain", choices=("ball", "cube", "custom"), required=True)
    domain.add_argument("--r0", type=float, default=1.0)
    domain.add_argument("--L", type=float, default=1.0)
    domain.add_argument("--d", type=int, default=None)
    domain.add_argument("--levels", default=None)

    parser = argparse.ArgumentParser(
        prog="spectherm",
        description="Spectra, heat traces and thermostatic duals on balls and boxes.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, handler, formats, summary, *parents):
        p = sub.add_parser(name, parents=[common, *parents], help=summary)
        p.add_argument("--format", choices=formats, default="json", help="output format")
        p.set_defaults(handler=handler)
        return p

    p = add("spectrum", _cmd_spectrum, ("json", "csv"), "eigenmode tables")
    p.add_argument("--kind", choices=("angular", "radial", "box", "numeric"), required=True)
    p.add_argument("--l-max", type=int, default=5)
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=5)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--L", type=float, default=1.0)
    p.add_argument("--grid-points", type=int, default=500)
    p.add_argument("--k", type=int, default=5)

    p = add("weyl", _cmd_weyl, ("json", "csv"), "volume estimate scan", domain)
    p.add_argument("--t", type=float, action="append", required=True)

    p = add("entropy", _cmd_entropy, ("json",), "entropy expectation, both routes")
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--r0", type=float, default=1.0)

    p = add("fiducial", _cmd_fiducial, ("json",), "fiducial wavenumber constraint")
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--branch", type=int, default=1)

    p = add("partition", _cmd_partition, ("json",), "partition functions", domain)
    p.add_argument("--tau", type=float, default=1.0)
    p.add_argument("--n-max", type=int, default=25)
    p.add_argument("--l-max", type=int, default=0)

    p = add("duality", _cmd_duality, ("json", "csv"), "imaginary time vs temperature")
    p.add_argument("--tau", type=float, action="append")
    p.add_argument("--temperature", type=float, action="append")

    return parser


def _join_signed_values(argv: Sequence[str]) -> list[str]:
    # argparse reads a bare "-inf" after --s0 as an option flag; fold the
    # value into the --s0=... form so signed entropies parse naturally
    out: list[str] = []
    for token in argv:
        if token.startswith("-") and out and out[-1] == "--s0":
            out[-1] = f"--s0={token}"
        else:
            out.append(token)
    return out


def run(argv: Sequence[str]) -> int:
    """Parse argv, dispatch, and write one report. Returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(_join_signed_values(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    try:
        units = UnitSystem(hbar=args.hbar, k_boltzmann=args.kb, mass=args.mass)
        config, results = args.handler(args, units)
        if args.format == "csv":
            payload = _render_csv(results["columns"], results["rows"])
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
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoRealSolution, QuadratureError, OverflowError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's names the allocation; a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
