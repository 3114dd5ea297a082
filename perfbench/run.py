"""Benchmark of the spectherm command line, end to end and layer by layer.

    python3 perfbench/run.py --workload weyl --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout. Each workload (see workloads.py)
is a list of CLI invocations; one client runs them in a closed loop, one
fresh process at a time (``perfbench/launch.py`` with ``PYTHONPATH=src``),
pass after pass, until the next pass would end after ``--seconds`` of
measured time.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced passes with traced ones (tracer.py wraps every layer's public
functions) and reports the per-layer metrics, the import profile of
``python -X importtime`` and the tracing overhead; it also checks that
traced reports are byte-identical to untraced ones.

Every distinct report is checked against an independent reference
(reference.py). An invocation fails on a nonzero exit, an unparsable
report or a reference miss. A miss listed as a known defect in
workloads.py counts as a failure, and keeps ``correct`` true only while it
is no worse than at the seed commit; any other failure makes ``correct``
false.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. The
environment, every metric and every case verdict are also written to
``.perfbench_run/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import reference
import workloads

ROOT = Path.cwd()
OUT = Path(".perfbench_run")
LAUNCHER = str(Path(__file__).resolve().parent / "launch.py")

# Passes a run makes at least, whatever --seconds says, so that the tail
# percentile below always has ten samples beyond it.
MIN_PASSES = {"startup": 2, "weyl": 3, "solver": 3}
SETUP_PROBES = 9
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 120.0
LAYERS = ("cli", "spectra", "heattrace", "thermo", "specfun")
COUNTS = (
    "spectra.modes_out",
    "spectra.solver_grid_points",
    "spectra.dim_scan_len",
    "heattrace.levels_in",
    "heattrace.expanded_len",
    "thermo.levels_in",
    "specfun.integrand_evals",
)


class Shot(NamedTuple):
    """One finished child process."""

    wall_s: float
    code: int
    out: bytes
    rss_kb: int
    err: str


def spawn(cmd: list[str], env: dict) -> Shot:
    """Run cmd to completion; wall time includes process start and exit."""
    err_path = OUT / "stderr.txt"
    with open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    err_text = err_path.read_text(errors="replace")[-2000:]
    return Shot(wall, proc.returncode, out, usage.ru_maxrss, err_text)


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank p-th percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(p / 100 * len(ordered))) - 1]


def tail_percentile(min_samples: int) -> int:
    """Highest whole percentile with at least ten of min_samples beyond it."""
    return 100 * (min_samples - 10) // min_samples


def environment(env: dict) -> dict:
    def version(name: str) -> str:
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return "missing"

    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref_file = ROOT / ".git" / commit[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else commit
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_env": {
            k: v for k, v in sorted(env.items())
            if re.fullmatch(r"(OMP|OPENBLAS|MKL|BLIS|VECLIB|GOTO|NUMEXPR)\w*THREADS\w*", k)
        },
        "commit": commit,
        "launcher": f"PYTHONPATH=src {Path(sys.executable).name} perfbench/launch.py ARGV",
    }


# -------------------------------- probes -----------------------------------

def setup_probe(env: dict) -> float:
    shot = spawn([sys.executable, "-c", "import spectherm.cli"], env)
    if shot.code != 0:
        sys.exit(f"error: importing spectherm.cli failed:\n{shot.err}")
    return shot.wall_s


def import_probe(env: dict) -> dict[str, float]:
    """Import times in ms from -X importtime: everything, numpy and scipy.

    numpy's and scipy's figures are the cumulative times of their outermost
    imports, so they include what those packages pull in first: the time
    that importing them later, or never, would save. numpy modules that
    scipy imports count towards scipy only.
    """
    shot = spawn([sys.executable, "-X", "importtime", "-c", "import spectherm.cli"], env)
    if shot.code != 0:
        sys.exit(f"error: importing spectherm.cli failed:\n{shot.err}")
    totals = {"total": 0.0, "numpy": 0.0, "scipy": 0.0}
    ancestors: list[tuple[int, str]] = []
    # importtime prints each module after its imports; reversed, parents come first
    for line in reversed((OUT / "stderr.txt").read_text().splitlines()):
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", line)
        if not match:
            continue
        cumulative_ms = int(match.group(1)) / 1000.0
        depth, top = len(match.group(2)), match.group(3).split(".", 1)[0]
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if not ancestors:
            totals["total"] += cumulative_ms
        if top in totals and all(name not in totals for _, name in ancestors):
            totals[top] += cumulative_ms
        ancestors.append((depth, top))
    return totals


# ------------------------------- measuring ---------------------------------

def run_pass(cases, env: dict, traced: bool) -> dict:
    spans_path = OUT / "spans.json"
    shots, spans = [], []
    start = perf_counter()
    for case in cases:
        cmd = [sys.executable, LAUNCHER]
        if traced:
            spans_path.unlink(missing_ok=True)
            cmd += ["--trace-out", str(spans_path)]
        shots.append(spawn(cmd + list(case.argv), env))
        if traced:
            spans.append(json.loads(spans_path.read_text()) if spans_path.is_file() else None)
    return {"traced": traced, "wall_s": perf_counter() - start, "shots": shots, "spans": spans}


def measure(cases, env: dict, seconds: float, min_passes: int, trace: bool, probe, probes: int):
    """Passes until the next would end after `seconds`, and start-up probes.

    One probe runs before each pass, outside the measured time, so that the
    probes sample the same stretch of time as the passes; the rest follow.
    """
    passes: list[dict] = []
    samples = []
    measured = 0.0
    while True:
        samples.append(probe(env))
        passes.append(run_pass(cases, env, traced=trace and len(passes) % 2 == 1))
        measured += passes[-1]["wall_s"]
        plain = sum(not p["traced"] for p in passes)
        enough = (plain >= 1 and len(passes) >= 2) if trace else plain >= min_passes
        if enough and measured + statistics.median(p["wall_s"] for p in passes) > seconds:
            break
    while len(samples) < probes:
        samples.append(probe(env))
    return passes, samples


# ------------------------------- checking ----------------------------------

def verdicts(cases, passes: list[dict]) -> tuple[list[dict], int, int, bool]:
    """Per-case verdicts, then attempted, failed and whether all is as expected."""
    attempted = failed = 0
    all_expected = True
    records = []
    for i, case in enumerate(cases):
        plain = [p["shots"][i] for p in passes if not p["traced"]]
        traced = [p["shots"][i] for p in passes if p["traced"]]
        unexpected: list[str] = []
        misses: reference.Misses = {}
        outputs = {s.out for s in plain if s.code == 0}
        if len(outputs) > 1:
            unexpected.append("untraced reports differ between passes")
        if any(s.code == 0 and s.out not in outputs for s in traced):
            unexpected.append("traced report differs from the untraced one")
        for out in outputs:
            try:
                misses.update(case.check(out))
            except (ValueError, KeyError, TypeError, IndexError, StopIteration) as exc:
                misses["report"] = reference.Miss(f"unparsable: {type(exc).__name__}: {exc}", None)
        known = {k for k, m in misses.items() if k in case.known and reference.tolerated(m, case.known[k])}
        for k, m in misses.items():
            if k not in known:
                worse = f"worse than at the seed commit ({case.known[k]:+.3e} rel): " if k in case.known else ""
                unexpected.append(f"{k}: {worse}{m.detail}")
        fails = 0
        for shot in plain + traced:
            if shot.code != 0:
                unexpected.append(f"exit code {shot.code}: {shot.err.strip()[-300:]}")
            fails += shot.code != 0 or bool(misses)
        attempted += len(plain) + len(traced)
        failed += fails
        all_expected &= not unexpected
        records.append({
            "case": case.id,
            "argv": list(case.argv),
            "runs": len(plain) + len(traced),
            "failed_runs": fails,
            "misses": {k: m.detail for k, m in misses.items()},
            "known_defect": sorted(known),
            "unexpected": sorted(set(unexpected)),
        })
    return records, attempted, failed, all_expected


# -------------------------------- metrics ----------------------------------

def end_to_end(passes: list[dict], setup: list[float], tail_p: int) -> dict:
    walls = [s.wall_s for p in passes for s in p["shots"]]
    return {
        "batch_wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "latency_p50_ms": (1000.0 * statistics.median(walls), "ms"),
        "latency_tail_ms": (1000.0 * percentile(walls, tail_p), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(s.rss_kb for p in passes for s in p["shots"]) / 1024.0, "MB"),
    }


def per_layer(passes: list[dict], imports: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    per_pass: list[dict[str, float]] = []
    for p in traced:
        totals: dict[str, float] = {}
        for spans in p["spans"]:
            for layer, entry in (spans or {}).get("layers", {}).items():
                totals[f"{layer}.self_ms"] = totals.get(f"{layer}.self_ms", 0.0) + 1000.0 * entry["self_s"]
                totals[f"{layer}.calls"] = totals.get(f"{layer}.calls", 0) + entry["calls"]
            for name, value in (spans or {}).get("counts", {}).items():
                totals[name] = totals.get(name, 0) + value
        per_pass.append(totals)

    def med(name: str) -> float:
        return statistics.median(t.get(name, 0) for t in per_pass)

    metrics: dict[str, tuple[float, str]] = {}
    for key in ("total", "scipy", "numpy"):
        metrics[f"import.{key}_ms"] = (statistics.median(i[key] for i in imports), "ms")
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (med(f"{layer}.self_ms"), "ms")
        metrics[f"{layer}.calls"] = (med(f"{layer}.calls"), "count")
    for name in COUNTS:
        metrics[name] = (med(name), "count")
    expand_in = med("heattrace.expand_levels_in")
    ratio = med("heattrace.expanded_len") / expand_in if expand_in else 0.0
    metrics["heattrace.expand_ratio"] = (ratio, "ratio")
    plain_wall = statistics.median(p["wall_s"] for p in passes if not p["traced"])
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    metrics["trace.overhead_pct"] = (100.0 * (traced_wall / plain_wall - 1.0), "%")
    return metrics


# --------------------------------- main ------------------------------------

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "spectherm" / "cli.py").is_file():
        print("error: run from a spectherm checkout (src/spectherm/cli.py not found)", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cases = workloads.build(args.workload, args.seed, OUT / "inputs")
    min_passes = MIN_PASSES[args.workload]
    tail_p = tail_percentile(min_passes * len(cases))
    setup_probe(env)  # compiles bytecode; not counted

    if args.trace:
        passes, imports = measure(cases, env, args.seconds, min_passes, True, import_probe, IMPORT_PROBES)
        metrics = per_layer(passes, imports)
    else:
        passes, setup = measure(cases, env, args.seconds, min_passes, False, setup_probe, SETUP_PROBES)
        metrics = end_to_end(passes, setup, tail_p)
    records, attempted, failed, correct = verdicts(cases, passes)

    info = environment(env)
    print(
        f"environment: python {info['python']}, numpy {info['numpy']}, scipy {info['scipy']}, "
        f"nproc {info['nproc']}, BLAS threads {info['blas_env'] or 'unset'}, commit {info['commit']}"
    )
    samples = sum(len(p["shots"]) for p in passes)
    print(
        f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {len(passes)} passes "
        f"of {len(cases)} invocations, {samples} samples, tail percentile p{tail_p}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  failed_ratio = {failed}/{attempted} = {failed / attempted:.4g}")
    for record in records:
        if record["unexpected"]:
            print(f"  UNEXPECTED {record['case']}: " + "; ".join(record["unexpected"]))
        elif record["misses"]:
            print(f"  known defect {record['case']}: " + ", ".join(record["misses"]))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_dir = OUT / "results"
    results_dir.mkdir(exist_ok=True)
    record = {
        **result,
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "samples": samples,
        "tail_percentile": tail_p,
        "failed_ratio": failed / attempted,
        "environment": info,
        "cases": records,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
