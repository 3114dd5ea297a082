"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure of merit at its pinned tolerance."""

import json
import math
import time

import numpy as np

from spectherm import (
    NEGATIVE_INFINITE_ENTROPY,
    NoRealSolution,
    Spectrum,
    box_modes,
    duality_map,
    duality_map_from_temperature,
    entropy_expectation,
    hilbert_dim_min,
    integrate,
    interval_spectrum,
    natural_units,
    qm_partition,
    quasistatic_partition,
    radial_wavefunction,
    sine_integral,
    solve_fiducial_wavenumber,
    solve_radial_numeric,
    sphere_spectrum,
    thermal_partition,
    weyl_volume_estimate,
)
from spectherm.cli import run

from oracles import (
    ENTROPY_EXPECTATION,
    entropy_expectation_mpmath,
    si_by_quadrature,
    wavenumber_mpmath,
)

U = natural_units()


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {name}: {status} ({detail})")
    assert ok, f"criterion {number:02d} {name}: {detail}"


def interval_levels(n_max: int, length: float = 1.0) -> Spectrum:
    return Spectrum([(n * math.pi / length) ** 2 for n in range(1, n_max + 1)])


def test_criterion_01_entropy_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for n in range(1, 6):
        closed = entropy_expectation(n, 1.0, "closed_form", U)
        quad = entropy_expectation(n, 1.0, "quadrature", U)
        worst = max(worst, abs(closed - quad))
    oracle = entropy_expectation_mpmath(1)
    n1 = entropy_expectation(1, 1.0, "closed_form", U)
    oracle_gap = abs(n1 - oracle)
    frozen_gap = abs(n1 - ENTROPY_EXPECTATION[1])
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and oracle_gap < 1e-5 and frozen_gap < 1e-12 and elapsed < 1.0
    _report(
        1,
        "entropy closed form vs quadrature",
        ok,
        f"max |closed-quad| = {worst:.2e}, n=1 vs oracle = {oracle_gap:.2e}, "
        f"runtime {elapsed:.2f}s",
    )


def test_criterion_02_metric_freeness():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        reference = entropy_expectation(n, 1.0, "quadrature", U)
        for r0 in (0.5, 2.0, 10.0):
            value = entropy_expectation(n, r0, "quadrature", U)
            worst = max(worst, abs(value - reference))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 1.0
    _report(
        2,
        "expectation independent of fiducial radius",
        ok,
        f"max spread over r0 in {{0.5,1,2,10}} = {worst:.2e}, runtime {elapsed:.2f}s",
    )


def test_criterion_03_radial_spectrum_convergence():
    start = time.perf_counter()
    energies, _ = solve_radial_numeric(1.0, 2000, 5, U)
    worst_rel = max(
        abs(math.sqrt(energies[n - 1]) - n * math.pi) / (n * math.pi)
        for n in range(1, 6)
    )
    errors = []
    for grid_points in (251, 501, 1001, 2001):
        ground = solve_radial_numeric(1.0, grid_points, 1, U)[0][0]
        errors.append(abs(ground - math.pi**2))
    orders = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
    elapsed = time.perf_counter() - start
    ok = (
        worst_rel < 1e-4
        and all(abs(order - 2.0) <= 0.1 for order in orders)
        and elapsed < 5.0
    )
    _report(
        3,
        "finite-difference wavenumbers and order",
        ok,
        f"max rel error = {worst_rel:.2e}, orders = "
        + "/".join(f"{o:.3f}" for o in orders)
        + f", runtime {elapsed:.2f}s",
    )


def test_criterion_04_ground_space_dimensions():
    ball = interval_spectrum(1.0, 8, U).energies
    sectors = sphere_spectrum(4, U)
    sphere = np.repeat(sectors.energies, sectors.multiplicities.astype(int))
    cube_excited = box_modes(1.0, 3, 3, U)[1][1:]
    dims = (
        hilbert_dim_min(Spectrum(ball)),
        hilbert_dim_min(Spectrum(sphere)),
        hilbert_dim_min(Spectrum(cube_excited)),
    )
    partition_dims = (
        quasistatic_partition(Spectrum(ball), 0.0, U),
        quasistatic_partition(Spectrum(sphere), 0.0, U),
        quasistatic_partition(Spectrum(cube_excited), 0.0, U),
    )
    ok = dims == (1, 1, 3) and partition_dims == (1.0, 1.0, 3.0)
    _report(
        4,
        "minimal eigenspace dimensions",
        ok,
        f"dims = {dims}, partition at tau=0 = {partition_dims}",
    )


def test_criterion_05_weyl_volume_asymptotics():
    start = time.perf_counter()
    levels = interval_levels(2500)
    axis = weyl_volume_estimate(levels, 1e-6, 1, U)
    cube = axis**3  # per-axis factorization of the product domain
    cube_gap = abs(cube - 1.0)
    interval_gaps = []
    for t in (1e-4, 1e-6):
        estimate = weyl_volume_estimate(levels, t, 1, U)
        interval_gaps.append(abs(estimate - (1.0 - math.sqrt(math.pi * t))))
    elapsed = time.perf_counter() - start
    ok = (
        cube_gap < 0.01
        and all(gap < 1e-6 for gap in interval_gaps)
        and elapsed < 2.0
    )
    _report(
        5,
        "small-time volume estimates",
        ok,
        f"cube estimate = {cube:.5f}, interval closed-form gaps = "
        + "/".join(f"{g:.1e}" for g in interval_gaps)
        + f", runtime {elapsed:.2f}s",
    )


def test_criterion_06_fiducial_constraint():
    half = solve_fiducial_wavenumber(2.0 * math.log(0.5), 1.0, 1, U)
    root_gap = abs(half - math.pi / 6.0)

    raised = False
    try:
        solve_fiducial_wavenumber(2.0 * math.log(1.5), 1.0, 1, U)
    except NoRealSolution:
        raised = True

    # the sine node branch pi / r0 correctly rounded: its 60-digit value rounded once
    sentinel_exact = all(
        solve_fiducial_wavenumber(NEGATIVE_INFINITE_ENTROPY, r0, branch, U)
        == float(wavenumber_mpmath(branch, r0))
        for r0 in (1.0, 2.0)
        for branch in (1, 2, 3, 4)
    )
    ok = root_gap < 1e-10 and raised and sentinel_exact
    _report(
        6,
        "fiducial wavenumber constraint",
        ok,
        f"|c - pi/6| = {root_gap:.2e}, no-solution raised = {raised}, "
        f"sentinel exact = {sentinel_exact}",
    )


def test_criterion_07_duality_substitution():
    taus = [0.25, 0.5, 1.0, 2.0, 3.0, 4.0]
    round_trip_exact = all(
        duality_map_from_temperature(duality_map(tau, U), U) == tau for tau in taus
    )
    levels = interval_spectrum(1.0, 10, U)
    bitwise = all(
        thermal_partition(levels, duality_map(tau, U), U)
        == qm_partition(levels, tau, U)
        for tau in taus
    )
    ok = round_trip_exact and bitwise
    _report(
        7,
        "imaginary-time/temperature substitution",
        ok,
        f"round trip exact = {round_trip_exact}, partition sums bit-equal = {bitwise}",
    )


def test_criterion_08_sine_integral():
    gap_pi = abs(sine_integral(math.pi) - si_by_quadrature(math.pi))
    gap_2pi = abs(sine_integral(2.0 * math.pi) - si_by_quadrature(2.0 * math.pi))
    odd = all(
        sine_integral(-x) == -sine_integral(x)
        for x in (0.15 * k for k in range(1, 101))
    )
    grid = [math.pi * k / 100.0 for k in range(101)]
    values = [sine_integral(x) for x in grid]
    monotone = all(b > a for a, b in zip(values, values[1:]))
    ok = gap_pi < 1e-12 and gap_2pi < 1e-12 and odd and monotone
    _report(
        8,
        "sine integral vs quadrature oracle",
        ok,
        f"|Si(pi)-oracle| = {gap_pi:.2e}, |Si(2pi)-oracle| = {gap_2pi:.2e}, "
        f"odd = {odd}, monotone = {monotone}",
    )


def test_criterion_09_mode_orthonormality():
    gram = np.empty((5, 5))
    for i in range(5):
        for j in range(5):
            def integrand(r):
                return (
                    r * r
                    * radial_wavefunction(i + 1, 1.0, r)
                    * radial_wavefunction(j + 1, 1.0, r)
                )

            gram[i, j] = integrate(
                integrand, 0.0, 1.0, abs_tolerance=1e-10, max_subdivisions=60
            )
    deviation = float(np.max(np.abs(gram - np.eye(5))))
    ok = deviation < 1e-8
    _report(9, "r^2-weighted Gram matrix", ok, f"max |G - I| = {deviation:.2e}")


def test_criterion_10_cli_determinism(capsys, tmp_path):
    levels_path = tmp_path / "levels.txt"
    levels_path.write_text("0,2\n1,1\n4,3\n")
    invocations = [
        ["spectrum", "--kind", "angular", "--l-max", "4"],
        ["spectrum", "--kind", "radial", "--r0", "2", "--n-max", "6"],
        ["spectrum", "--kind", "box", "--d", "3", "--L", "1", "--n-max", "2"],
        ["spectrum", "--kind", "numeric", "--grid-points", "500", "--k", "4"],
        ["spectrum", "--kind", "radial", "--n-max", "4", "--format", "csv"],
        ["weyl", "--domain", "cube", "--d", "3", "--L", "1", "--t", "1e-6"],
        ["weyl", "--domain", "ball", "--t", "1e-2", "--t", "1e-4", "--format", "csv"],
        ["weyl", "--domain", "custom", "--levels", str(levels_path), "--t", "0.3"],
        ["entropy", "--n", "1", "--r0", "1"],
        ["entropy", "--n", "3", "--r0", "0.5", "--kb", "2"],
        ["fiducial", "--r0", "1", "--s0", "-inf", "--branch", "2"],
        ["fiducial", "--r0", "1", "--s0", str(2.0 * math.log(0.5))],
        ["partition", "--domain", "ball", "--r0", "1", "--tau", "0"],
        ["partition", "--domain", "cube", "--tau", "0.5", "--n-max", "4"],
        ["partition", "--domain", "custom", "--levels", str(levels_path), "--tau", "1"],
        ["duality", "--tau", "1", "--tau", "3", "--temperature", "7"],
        ["duality", "--tau", "0.125", "--format", "csv"],
    ]
    all_identical = True
    for argv in invocations:
        assert run(argv) == 0, f"exit code nonzero for {argv}"
        first = capsys.readouterr().out.encode()
        assert run(argv) == 0
        second = capsys.readouterr().out.encode()
        if first != second:
            all_identical = False
    # sanity: the JSON reports parse and embed their configuration
    assert run(["entropy", "--n", "1"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    config_embedded = "config" in parsed and parsed["config"]["hbar"] == 1.0
    ok = all_identical and config_embedded
    _report(
        10,
        "deterministic command-line reports",
        ok,
        f"{len(invocations)} invocations byte-identical = {all_identical}, "
        f"config embedded = {config_embedded}",
    )
