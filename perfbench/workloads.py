"""Seeded workloads: the argv of each invocation, its input files, its check.

A workload is a list of cases run in order, one process each. The seed
draws the custom level files and the t, n, r0, S0 and branch values
that are not fixed below; the program sees only the generated argv and
files. Sizes are fixed so that a pass costs about the same on every seed.

``known`` lists, per case, the fields that miss their reference at the
seed commit (confirmed defects), each with the signed relative error it
had there. Such a miss still counts as a failed invocation. It keeps the
run correct only while its error has the same sign and at most
``reference.KNOWN_SLACK`` times that size; any other miss makes the run
incorrect. The errors of the seeded custom file were the same to within
2.5% over seeds 1 to 31.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import reference as ref


@dataclass(frozen=True)
class Case:
    id: str
    argv: tuple[str, ...]
    check: Callable[[bytes], ref.Misses]
    known: dict[str, float] = field(default_factory=dict)


def _write_levels(path: Path, levels: list[tuple[float, int]]) -> None:
    path.write_text("".join(f"{e!r},{m}\n" for e, m in levels), encoding="utf-8")


def _ball_levels(r0: float, n_max: int, l_max: int):
    return [
        (ref.PREF * l * (l + 1) + ref.PREF * (n * math.pi / r0) ** 2, 2 * l + 1)
        for l in range(l_max + 1)
        for n in range(1, n_max + 1)
    ]


def _cube_levels(side: float, d: int, n_max: int):
    # exact degeneracy of each integer key sum(n_i^2), by convolving axes
    counts = Counter({0: 1})
    for _ in range(d):
        nxt: Counter = Counter()
        for key, count in counts.items():
            for n in range(1, n_max + 1):
                nxt[key + n * n] += count
        counts = nxt
    scale = ref.PREF * (math.pi / side) ** 2
    return [(scale * key, counts[key]) for key in sorted(counts)]


def _custom_axis(levels, t: float):
    return ref.level_sum(levels, t / ref.PREF)


def _weyl_case(case_id, argv, t_values, d, axis, product, fmt="json", known=None):
    argv = list(argv) + [a for t in t_values for a in ("--t", repr(t))]
    if fmt == "csv":
        argv += ["--format", "csv"]
    check = partial(ref.check_weyl, fmt=fmt, t_values=t_values, d=d, axis=axis, product=product)
    return Case(case_id, tuple(argv), check, known or {})


def _partition_case(case_id, argv, levels, ground_dim, level_count, tau):
    argv = list(argv) + ["--tau", repr(tau)]
    check = partial(
        ref.check_partition, levels=levels, ground_dim=ground_dim, level_count=level_count, tau=tau
    )
    return Case(case_id, tuple(argv), check)


def _rows(eps_by_row: dict[int, float]) -> dict[str, float]:
    """Known errors of scan rows, in eps relative, shared by trace and volume estimate."""
    return {
        f"{name}@{i}": e * ref.EPS
        for i, e in eps_by_row.items()
        for name in ("trace", "volume_estimate")
    }


# --------------------------------- startup ---------------------------------

def startup(rng: random.Random, inputs: Path) -> list[Case]:
    """The 17 invocations of test_criterion_10_cli_determinism, on small inputs.

    That test is in tests/test_acceptance.py.
    """
    levels_path = inputs / "startup_levels.txt"
    energies = sorted(rng.sample(range(8), 3))
    small = [(float(e), rng.randint(1, 3)) for e in energies]
    _write_levels(levels_path, small)
    lv = str(levels_path)
    s0 = 2.0 * math.log(0.5)
    return [
        Case("spectrum-angular", ("spectrum", "--kind", "angular", "--l-max", "4"),
             partial(ref.check_angular, fmt="json", l_max=4)),
        Case("spectrum-radial", ("spectrum", "--kind", "radial", "--r0", "2", "--n-max", "6"),
             partial(ref.check_radial, fmt="json", r0=2.0, n_max=6)),
        Case("spectrum-box", ("spectrum", "--kind", "box", "--d", "3", "--L", "1", "--n-max", "2"),
             partial(ref.check_box, fmt="json", side=1.0, d=3, n_max=2)),
        Case("spectrum-numeric", ("spectrum", "--kind", "numeric", "--grid-points", "500", "--k", "4"),
             partial(ref.check_numeric_spectrum, fmt="json", r0=1.0, grid_points=500, k=4)),
        Case("spectrum-radial-csv", ("spectrum", "--kind", "radial", "--n-max", "4", "--format", "csv"),
             partial(ref.check_radial, fmt="csv", r0=1.0, n_max=4)),
        _weyl_case("weyl-cube", ("weyl", "--domain", "cube", "--d", "3", "--L", "1"), [1e-6], 3,
                   partial(ref.jacobi_axis_trace, 1.0), True, known=_rows({0: -40})),
        _weyl_case("weyl-ball-csv", ("weyl", "--domain", "ball"), [1e-2, 1e-4], 1,
                   partial(ref.jacobi_axis_trace, 1.0), False, fmt="csv"),
        _weyl_case("weyl-custom", ("weyl", "--domain", "custom", "--levels", lv), [0.3], 1,
                   partial(_custom_axis, small), False),
        Case("entropy-n1", ("entropy", "--n", "1", "--r0", "1"), partial(ref.check_entropy, n=1)),
        Case("entropy-n3-kb2", ("entropy", "--n", "3", "--r0", "0.5", "--kb", "2"),
             partial(ref.check_entropy, n=3, kb=2.0)),
        Case("fiducial-neginf", ("fiducial", "--r0", "1", "--s0", "-inf", "--branch", "2"),
             partial(ref.check_fiducial, r0=1.0, s0=-math.inf, branch=2)),
        Case("fiducial-finite", ("fiducial", "--r0", "1", "--s0", str(s0)),
             partial(ref.check_fiducial, r0=1.0, s0=s0, branch=1)),
        _partition_case("partition-ball", ("partition", "--domain", "ball", "--r0", "1"),
                        lambda: _ball_levels(1.0, 25, 0), 1, 25, 0.0),
        _partition_case("partition-cube", ("partition", "--domain", "cube", "--n-max", "4"),
                        lambda: _cube_levels(1.0, 3, 4), 1, len(_cube_levels(1.0, 3, 4)), 0.5),
        _partition_case("partition-custom", ("partition", "--domain", "custom", "--levels", lv),
                        lambda: small, small[0][1], len(small), 1.0),
        Case("duality", ("duality", "--tau", "1", "--tau", "3", "--temperature", "7"),
             partial(ref.check_duality, fmt="json", taus=[1.0, 3.0], temperatures=[7.0])),
        Case("duality-csv", ("duality", "--tau", "0.125", "--format", "csv"),
             partial(ref.check_duality, fmt="csv", taus=[0.125], temperatures=[])),
    ]


# ---------------------------------- weyl -----------------------------------

def weyl(rng: random.Random, inputs: Path) -> list[Case]:
    """Small-t heat-trace scans over long level lists: the sum kernel alone."""
    path = inputs / "weyl_levels.txt"
    s = rng.uniform(0.5, 2.0)
    a = rng.uniform(0.1, 0.9)
    custom = [(s * (j + a) ** 2, 1 + j // 50_000) for j in range(200_000)]
    _write_levels(path, custom)
    defect_path = inputs / "truncation_defect.txt"
    defect = [(0.0, 1), (1.0, 1), (100.0, 1), (101.0, 10**30)]
    _write_levels(defect_path, defect)
    ball_t = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10]
    cube_t = [1e-2, 1e-4, 1e-6, 1e-8]
    custom_t = [x / s for x in (1e-2, 1e-4, 1e-6, 1e-8)]
    return [
        _weyl_case("ball-to-1e-10", ("weyl", "--domain", "ball"), ball_t, 1,
                   partial(ref.jacobi_axis_trace, 1.0), False,
                   known=_rows({2: -13, 3: -132, 4: -1365})),
        _weyl_case("cube-d3-to-1e-8", ("weyl", "--domain", "cube", "--d", "3"), cube_t, 3,
                   partial(ref.jacobi_axis_trace, 1.0), True,
                   known=_rows({2: -40, 3: -395})),
        _weyl_case("cube-d3-L10-to-1e-8", ("weyl", "--domain", "cube", "--d", "3", "--L", "10"), cube_t, 3,
                   partial(ref.jacobi_axis_trace, 10.0), True,
                   known=_rows({2: -395, 3: -4095}) | {"trace@1": -37 * ref.EPS}),
        _weyl_case("custom-200k", ("weyl", "--domain", "custom", "--levels", str(path)), custom_t, 1,
                   partial(_custom_axis, custom), False,
                   known=_rows({2: -41, 3: -416})),
        _weyl_case("truncation-defect", ("weyl", "--domain", "custom", "--levels", str(defect_path)),
                   [1.0], 1, partial(_custom_axis, defect), False, known=_rows({0: -46})),
    ]


# --------------------------------- solver ----------------------------------

def solver(rng: random.Random, inputs: Path) -> list[Case]:
    """Tridiagonal eigensolver, adaptive quadrature and root finding."""
    n1, n2 = rng.randint(1000, 2999), rng.randint(3000, 4999)
    r_entropy = round(rng.uniform(0.5, 2.0), 6)
    r_fid = round(rng.uniform(0.5, 2.0), 6)
    fiducials = [
        ("low-branch", 2.0 * math.log(rng.uniform(0.05, 0.95) / r_fid), rng.randint(1, 9)),
        ("high-branch", 2.0 * math.log(rng.uniform(0.05, 0.95) / r_fid), rng.randint(10, 99)),
        ("neginf", -math.inf, rng.randint(1, 99)),
    ]
    numeric = [
        Case(f"numeric-N{n}", ("spectrum", "--kind", "numeric", "--grid-points", str(n), "--k", "50"),
             partial(ref.check_numeric_spectrum, fmt="json", r0=1.0, grid_points=n, k=50))
        for n in (20_000, 100_000)
    ]
    entropy = [
        Case("entropy-a", ("entropy", "--n", str(n1)), partial(ref.check_entropy, n=n1)),
        Case("entropy-b", ("entropy", "--n", str(n2), "--r0", repr(r_entropy)),
             partial(ref.check_entropy, n=n2)),
    ]
    return numeric + entropy + [
        Case(f"fiducial-{tag}", ("fiducial", "--r0", repr(r_fid), "--s0", repr(s0), "--branch", str(b)),
             partial(ref.check_fiducial, r0=r_fid, s0=s0, branch=b))
        for tag, s0, b in fiducials
    ]


WORKLOADS = {"startup": startup, "weyl": weyl, "solver": solver}


def build(name: str, seed: int, inputs: Path) -> list[Case]:
    """The cases of one workload for one seed; writes their input files."""
    inputs.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](random.Random(f"{name}/{seed}"), inputs)
