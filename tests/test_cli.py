import contextlib
import gzip
import io
import json
import math
import os
import re
import subprocess
import sys
import urllib.request
import warnings
from datetime import timedelta
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from spectherm import (
    NEGATIVE_INFINITE_ENTROPY,
    InputError,
    Spectrum,
    UnitSystem,
    box_modes,
    free_difference_energies,
    interval_energies,
    kinetic_prefactor,
    natural_units,
    solve_fiducial_wavenumber,
    solve_radial_numeric,
    sphere_energies,
)
from spectherm.cli import load_levels, run
from spectherm.thermo import _ball_levels, _cube_partition, _level_scale
from spectherm.units import pi_over

from oracles import (
    CUBE_VOLUME_ESTIMATE_1E6,
    ENTROPY_EXPECTATION,
    INTERVAL_VOLUME_ESTIMATE,
    cube_levels,
    interval_trace_theta,
    key_one_energy_mpmath,
    wavenumber_mpmath,
)

EPS = 2.0**-52


SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(*args, timeout=120):
    """Run a fresh interpreter that imports spectherm from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


def run_captured(argv):
    """run(argv) in this process: (exit code, stdout, stderr). Unlike capsys,
    usable inside a Hypothesis example."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def one_error_line(err):
    return len(err.splitlines()) == 1 and err.startswith("error: ")


def table_rows(argv):
    """The rows of `spectrum argv`'s json report; usable inside a Hypothesis example."""
    code, out, err = run_captured(["spectrum", *argv])
    assert code == 0, err
    return json.loads(out)["results"]["rows"]


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def loadtxt_levels(text):
    """A level file's text as the numpy parser read it: np.loadtxt on the lines with content
    (blanks and comments are dropped), then Spectrum's checks. Returns the sorted columns'
    bytes, or (lineno, line, reason) for the first line that fails alone, or None if no
    line has content."""
    import numpy as np

    def table(lines):
        return np.loadtxt(lines, delimiter=",", comments="#", dtype=np.float64, ndmin=2)

    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    rows = [(n, line) for n, line in enumerate(lines, start=1) if line.split("#", 1)[0].strip()]
    for lineno, line in rows:
        try:
            (energy, *rest), = table([line]).tolist()
        except ValueError as exc:
            return lineno, line, str(exc).split(" at row ")[0]
        if len(rest) != 1:
            return lineno, line, f"expected 'energy,multiplicity', got {len(rest) + 1} columns"
        if not math.isfinite(energy):
            return lineno, line, "energies must be finite"
        if not (math.isfinite(rest[0]) and rest[0] >= 1.0 and rest[0] == math.floor(rest[0])):
            return lineno, line, "each multiplicity must be a positive integer"
    if rows:
        levels = table([line for _, line in rows])
        levels = levels[np.lexsort((levels[:, 1], levels[:, 0]))]
        return levels[:, 0].tobytes(), levels[:, 1].tobytes()
    return None


ENERGIES = ["0", "-0.0", "0.5", ".5", "1.", "+1", "-3", "1e3", "1E-320", "2.5e-3", "7"]
COUNTS = ["1", "3", "2.0", "1e3", "+1", "1.", "1000000000000000000000000000000"]
FIELDS = ENERGIES + COUNTS + ["1e999", "inf", "-inf", "Infinity", "nan", "NaN", "1_000", "0",
                              "\u0663", "1\u0663", "x", "", "0x10", "1 2", "1\x0b2", "1\x002"]
BLANKS = ["", " ", "\t", "\x0c", "\x0b", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000"]


def padded(fields):
    blank = st.sampled_from(BLANKS)
    return st.builds("".join, st.tuples(blank, st.sampled_from(fields), blank))


def level_line(*columns):
    return st.builds(
        lambda indent, fields, comment: indent + ",".join(fields) + comment,
        st.sampled_from(["", "  ", "\t"]),
        st.tuples(*columns) if columns else st.lists(padded(FIELDS), min_size=1, max_size=3),
        st.sampled_from(["", "# c", "  # inline, 1", "#", "#\u00e9"]),
    )


# rows that parse, and blank and comment lines; the test adds up to two rows of any fields
good_or_blank = st.one_of(
    level_line(padded(ENERGIES), padded(COUNTS)),
    st.sampled_from(["", " ", "\t \x0c", "# comment", "  # indented", "\xa0", "\x85"]),
)


class TestLoadLevels:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @example(lines=["1\u0663,1"], odd=[], newline="\n", last=True)  # float() reads 13
    @example(lines=["0,1", "5", "1,2,3"], odd=[], newline="\n", last=True)  # 4 fields, 3 rows
    @example(lines=["2,1_000"], odd=[], newline="\r\n", last=False)  # float() reads 1000
    @example(lines=["\x1c2,1", " 1 , 3 # c"], odd=[], newline="\r", last=False)  # float() refuses
    @given(
        lines=st.lists(good_or_blank, max_size=12),
        odd=st.lists(st.tuples(st.integers(min_value=0, max_value=12), level_line()), max_size=2),
        newline=st.sampled_from(["\n", "\r\n", "\r"]),
        last=st.booleans(),
    )
    def test_parser_matches_the_loadtxt_semantics(self, tmp_path_factory, lines, odd, newline, last):
        # same files accepted, same bits, same first bad line and message
        for at, line in odd:
            lines = lines[:at] + [line] + lines[at:]
        text = newline.join(lines) + (newline if last else "")
        path = tmp_path_factory.mktemp("levels") / "levels.txt"
        path.write_bytes(text.encode("utf-8"))
        expected = loadtxt_levels(text)
        if expected is None or len(expected) == 3:
            lineno, line, reason = expected or (None, None, "no levels found")
            where = f"{path}" if lineno is None else f"{path}:{lineno}"
            tail = "" if lineno is None else f", in line {line!r}"
            with pytest.raises(InputError) as raised:
                load_levels(path)
            assert str(raised.value) == f"{where}: {reason}{tail}"
        else:
            levels = load_levels(path)
            assert (levels.energies.tobytes(), levels.multiplicities.tobytes()) == expected

    @pytest.mark.parametrize("bad", [None, 2, 9000, 39000])
    def test_chunks_read_as_one_text(self, tmp_path, bad):
        # about 0.8 MB, 12 chunks of 64 KB; a non-ASCII comment, a blank line and an
        # inline comment sit in later chunks, and the bad row in the first, a middle or the last
        lines = [f"{(j * 0.37) % 50.0!r},{1 + j % 3}" for j in range(40000)]
        lines[12345] = "# r\u00e9sum\u00e9"
        lines[20000] = "   "
        lines[30000] += "  # inline"
        if bad is not None:
            lines[bad - 1] = "1,2,3"
        text = "\n".join(lines) + "\n"
        path = tmp_path / "levels.txt"
        path.write_text(text, encoding="utf-8")
        expected = loadtxt_levels(text)
        if bad is None:
            levels = load_levels(path)
            assert (levels.energies.tobytes(), levels.multiplicities.tobytes()) == expected
        else:
            with pytest.raises(InputError, match=rf":{bad}: .*got 3 columns, in line '1,2,3'$"):
                load_levels(path)

    def test_basic_file(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("0,1\n1,2\n")
        levels = load_levels(path)
        assert list(zip(levels.energies.tolist(), levels.multiplicities.tolist())) == [
            (0.0, 1),
            (1.0, 2),
        ]

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("# header\n\n0.5,1  # inline\n\n2,3\n")
        assert len(load_levels(path)) == 2

    def test_unsorted_input_sorted(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("3.0,1\n1.0,2\n2.0,1\n")
        energies = load_levels(path).energies.tolist()
        assert energies == [1.0, 2.0, 3.0]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("# nothing here\n")
        with pytest.raises(InputError):
            load_levels(path)

    def test_parse_error_reports_line_number(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("0,1\nnot-a-number,2\n")
        with pytest.raises(InputError, match=":2:"):
            load_levels(path)

    def test_negative_multiplicity_rejected(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("0,-1\n")
        with pytest.raises(InputError, match="multiplicity"):
            load_levels(path)

    def test_fractional_multiplicity_rejected(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("0,1\n1,2.5\n")
        with pytest.raises(InputError, match=":2:"):
            load_levels(path)

    def test_nonfinite_energy_rejected(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("inf,1\n")
        with pytest.raises(InputError):
            load_levels(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_levels(tmp_path / "absent.txt")

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        levels=st.lists(
            st.tuples(
                st.floats(allow_nan=False, allow_infinity=False),
                st.integers(min_value=1, max_value=10**30),
                st.sampled_from(["", " ", "\t", "  "]),  # padding around fields
                st.sampled_from(["", "  # inline", "#x,y,z"]),
                st.sampled_from(["", "\n", "# comment\n", " \t\n", "  # indented\n"]),
            ),
            min_size=1,
            max_size=30,
        ),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_round_trip_matches_per_field_parse(self, tmp_path_factory, levels, newline):
        text = "".join(
            f"{extra}{pad}{e!r}{pad},{pad}{m}{pad}{comment}\n"
            for e, m, pad, comment, extra in levels
        )
        path = tmp_path_factory.mktemp("levels") / "levels.txt"
        path.write_bytes(text.replace("\n", newline).encode())
        fields = [
            [part.strip() for part in line.split("#", 1)[0].split(",")]
            for line in text.splitlines()
            if line.split("#", 1)[0].strip()
        ]
        expected = Spectrum([float(e) for e, _ in fields], [int(m) for _, m in fields])
        loaded = load_levels(path)
        assert loaded.energies.tobytes() == expected.energies.tobytes()
        assert loaded.multiplicities.tobytes() == expected.multiplicities.tobytes()

    def test_huge_multiplicity(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("0,1000000000000000000000000000000\n")
        assert load_levels(path).multiplicities.tolist() == [float(10**30)]

    def test_integral_float_multiplicities_accepted(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("0,2.0\n1,1e3\n")
        assert load_levels(path).multiplicities.tolist() == [2.0, 1000.0]

    @pytest.mark.parametrize("row", ["1,2,3", "5", "2,1_000"])
    def test_bad_row_reports_its_line(self, tmp_path, row):
        path = tmp_path / "levels.txt"
        path.write_text(f"# header\n0,1\n\n  # indented\n{row}\n4,1\n")
        with pytest.raises(InputError, match=":5:"):
            load_levels(path)

    def test_non_utf8_file_is_a_usage_error(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_bytes(b"0,1\n\xff,2\n")
        with pytest.raises(InputError, match="cannot read levels file"):
            load_levels(path)

    def test_comment_only_file_warns_nothing(self, tmp_path, capsys):
        path = tmp_path / "levels.txt"
        path.write_text("# nothing here\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="no levels found"):
                load_levels(path)
            code = run(["weyl", "--domain", "custom", "--levels", str(path), "--t", "1"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: no levels found\n"

    @pytest.mark.parametrize(
        "rows, lineno",
        [
            (["x,1"], 1),
            (["0,1"] * 999 + ["1,x"], 1000),
            (["0,1"] * 500 + ["1,0"] + ["0,1"] * 499, 501),
            (["0,1"] * 300 + ["inf,1"] + ["0,1"] * 300 + ["y,1"], 301),
            (["0,1"] * 700 + ["1,2,3"] + ["# c", "  ", "2,x"], 701),
        ],
    )
    def test_first_bad_line_of_many_reported(self, tmp_path, rows, lineno):
        path = tmp_path / "levels.txt"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InputError, match=rf":{lineno}:.*in line '{rows[lineno - 1]}'$"):
            load_levels(path)

    def test_missing_file_does_not_read_compressed_sibling(self, tmp_path):
        (tmp_path / "levels.txt.gz").write_bytes(gzip.compress(b"0,1\n"))
        with pytest.raises(InputError, match="cannot read levels file"):
            load_levels(tmp_path / "levels.txt")

    def test_compressed_file_is_a_usage_error(self, tmp_path):
        path = tmp_path / "levels.txt.gz"
        path.write_bytes(gzip.compress(b"0,1\n"))
        with pytest.raises(InputError, match="compressed"):
            load_levels(path)

    def test_directory_is_a_usage_error(self, tmp_path):
        with pytest.raises(InputError, match="cannot read levels file"):
            load_levels(tmp_path)

    def test_url_shaped_path_is_a_local_path(self, tmp_path, monkeypatch):
        def no_urlopen(*args, **kwargs):
            raise AssertionError("levels path was fetched as a URL")

        monkeypatch.setattr(urllib.request, "urlopen", no_urlopen)
        monkeypatch.chdir(tmp_path)
        url = "http://127.0.0.1:9/levels.txt"
        with pytest.raises(InputError, match="cannot read levels file"):
            load_levels(url)
        assert list(tmp_path.iterdir()) == []
        local = tmp_path / "http:" / "127.0.0.1:9" / "levels.txt"
        local.parent.mkdir(parents=True)
        local.write_text("2,3\n")
        levels = load_levels(url)
        assert levels.energies.tolist() == [2.0] and levels.multiplicities.tolist() == [3.0]


class TestEntropyCommand:
    def test_values(self, capsys):
        report = run_json(capsys, ["entropy", "--n", "1", "--r0", "1"])
        results = report["results"]
        assert results["closed_form"] == pytest.approx(ENTROPY_EXPECTATION[1], abs=1e-12)
        assert abs(results["closed_form"] - results["quadrature"]) < 1e-8

    def test_config_embedded(self, capsys):
        report = run_json(capsys, ["entropy", "--n", "2", "--r0", "0.5"])
        config = report["config"]
        assert config["hbar"] == 1.0
        assert config["k_boltzmann"] == 1.0
        assert config["mass"] == 0.5
        assert config["n"] == 2
        assert config["r0"] == 0.5
        assert list(config) == ["hbar", "k_boltzmann", "mass", "n", "r0"]
        assert 0.0 < report["results"]["quadrature_bound"] <= 1e-13

    def test_kb_override_scales_result(self, capsys):
        report = run_json(capsys, ["entropy", "--n", "1", "--kb", "2"])
        assert report["results"]["closed_form"] == pytest.approx(
            2.0 * ENTROPY_EXPECTATION[1], rel=1e-13
        )

    def test_csv_rejected_for_scalar_report(self, capsys):
        assert run(["entropy", "--n", "1", "--format", "csv"]) == 2

    # The quadrature folds the n lobes onto one, of width w = r0/n, and refuses an r0
    # at which w is subnormal or 0, where it has lost its digits. Every other r0
    # computes within the tolerance (None), also those at which r*r is subnormal.
    R0_TOO_SMALL = {
        "5e-324": "w = r0/n is not a normal double at r0=5e-324, n=3",
        "1e-310": "w = r0/n is not a normal double at r0=1e-310, n=3",
        "2.2250738585072014e-308":
            "w = r0/n is not a normal double at r0=2.2250738585072014e-308, n=3",
        "1e-158": None,
        "1e-160": None,
        "1e-200": None,
    }

    @pytest.mark.parametrize("r0", list(R0_TOO_SMALL))
    def test_r0_too_small_for_the_quadrature(self, capsys, r0):
        code = run(["entropy", "--n", "3", "--r0", r0])
        out, err = capsys.readouterr()
        if self.R0_TOO_SMALL[r0] is not None:
            assert (code, out, err) == (2, "", f"error: {self.R0_TOO_SMALL[r0]}\n")
        else:
            assert (code, err) == (0, "")
            report = json.loads(out)
            assert report["results"]["quadrature_bound"] <= 1e-13
            assert abs(report["results"]["quadrature"] - ENTROPY_EXPECTATION[3]) <= 1e-13

    # r*r overflows here, but the folded quadrature never forms it
    @pytest.mark.parametrize("r0", ["1e155", "1e300", "1.7976931348623157e308"])
    def test_large_r0_computes_within_the_tolerance(self, capsys, r0):
        results = run_json(capsys, ["entropy", "--n", "3", "--r0", r0])["results"]
        assert abs(results["quadrature"] - ENTROPY_EXPECTATION[3]) <= 1e-13

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 200), st.floats(-160.0, 100.0))
    def test_quadrature_agrees_or_rejects_r0(self, n, log_r0):
        # the docstring's 1e-8 agreement holds at every r0 the quadrature accepts
        code, out, err = run_captured(["entropy", "--n", str(n), "--r0", repr(10.0**log_r0)])
        if code == 0:
            assert abs(json.loads(out)["results"]["difference"]) <= 1e-8
        else:
            assert code == 2 and one_error_line(err), err

    def test_n_past_the_closed_form_range_is_rejected_input(self, capsys):
        # 2 pi n rounds to inf: the line names n, where it named only Si's input inf
        n = str(10**308)
        assert run(["entropy", "--n", n]) == 2
        assert capsys.readouterr() == (
            "", f"error: n={n} is too large for the closed form: 2 pi n is not finite\n"
        )

    def test_result_does_not_depend_on_hbar(self, capsys):
        # hbar^2/(2 mass) underflows here, but the entropy never uses it
        tiny = run_json(capsys, ["entropy", "--n", "2", "--hbar", "1e-200"])
        unit = run_json(capsys, ["entropy", "--n", "2", "--hbar", "1"])
        assert tiny["results"] == unit["results"]


class TestPartitionCommand:
    def test_more_than_2_53_ball_levels_is_rejected_input(self, capsys):
        # refused before any sum, as for the box
        assert run(["partition", "--domain", "ball", "--l-max", "9223372036854775813"]) == 2
        assert capsys.readouterr() == ("", "error: (l_max + 1)*n_max ball levels at "
                                       "l_max=9223372036854775813, n_max=25: more than 2**53\n")

    def test_ball_of_2_5e10_levels_builds_no_list(self, capsys):
        # the sums stop where their terms underflow, and the ground walk at the first gap
        results = run_json(
            capsys, ["partition", "--domain", "ball", "--l-max", "1000000000", "--tau", "1"]
        )["results"]
        assert (results["dim_min"], results["level_count"]) == (1, 25_000_000_025)
        assert results["quasistatic"] == math.exp(-math.pi**2)

    def test_ball_at_zero_tau(self, capsys):
        report = run_json(capsys, ["partition", "--domain", "ball", "--r0", "1", "--tau", "0"])
        assert report["results"]["quasistatic"] == 1.0
        assert report["results"]["qm"] is None
        assert report["results"]["dual_temperature"] is None
        assert report["results"]["dim_min"] == 1

    def test_ball_at_positive_tau(self, capsys):
        report = run_json(
            capsys, ["partition", "--domain", "ball", "--r0", "1", "--tau", "0.5"]
        )
        results = report["results"]
        assert results["quasistatic"] == pytest.approx(
            math.exp(-0.5 * math.pi**2), rel=1e-13
        )
        assert results["qm"] > results["quasistatic"]
        assert results["dual_temperature"] == 2.0

    def test_cube_ground_is_simple(self, capsys):
        report = run_json(
            capsys,
            ["partition", "--domain", "cube", "--L", "1", "--d", "3", "--tau", "0",
             "--n-max", "3"],
        )
        assert report["results"]["quasistatic"] == 1.0

    def test_custom_levels(self, capsys, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("0,3\n1,1\n")
        report = run_json(
            capsys,
            ["partition", "--domain", "custom", "--levels", str(path), "--tau", "1"],
        )
        assert report["results"]["quasistatic"] == 3.0
        assert report["results"]["qm"] == pytest.approx(3.0 + math.exp(-1.0), rel=1e-14)

    def test_zero_level_where_tau_over_hbar_overflows(self, capsys, tmp_path):
        # tau/hbar overflows to inf: the zero level keeps its weight, the other drops
        path = tmp_path / "levels.txt"
        path.write_text("0,1\n1,1\n")
        argv = ["partition", "--domain", "custom", "--levels", str(path), "--tau", "1e300",
                "--hbar", "1e-10", "--kb", "1e-300"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        results = json.loads(captured.out)["results"]
        assert results["qm"] == results["quasistatic"] == results["qm_over_quasistatic"] == 1.0
        assert results["dual_temperature"] == 1e-10

    def test_angular_sectors_enlarge_level_list(self, capsys):
        bare = run_json(
            capsys, ["partition", "--domain", "ball", "--tau", "1", "--n-max", "5"]
        )
        dressed = run_json(
            capsys,
            ["partition", "--domain", "ball", "--tau", "1", "--n-max", "5",
             "--l-max", "2"],
        )
        assert dressed["results"]["level_count"] == 3 * bare["results"]["level_count"]
        assert dressed["results"]["qm"] > bare["results"]["qm"]
        assert dressed["results"]["quasistatic"] == bare["results"]["quasistatic"]

    def test_ratio_where_both_sums_underflow(self, capsys):
        results = run_json(
            capsys, ["partition", "--domain", "ball", "--tau", "800", "--n-max", "3"]
        )["results"]
        assert results["qm"] == results["quasistatic"] == 0.0
        assert results["qm_over_quasistatic"] == 1.0

    def test_missing_levels_flag(self, capsys):
        assert run(["partition", "--domain", "custom", "--tau", "1"]) == 2

    # dim_min is a float sum of multiplicities: exact below 2**53, refused from there
    @pytest.mark.parametrize("text, total", [("0,1e308\n0,1e308\n", "inf"),
                                             ("0,9007199254740993\n", "9007199254740992.0")])
    def test_ground_multiplicities_past_2_to_the_53_are_refused(self, tmp_path, text, total):
        path = tmp_path / "levels.txt"
        path.write_text(text)
        code, out, err = run_captured(["partition", "--domain", "custom", "--levels", str(path)])
        assert code == 2 and out == "" and one_error_line(err), err
        assert err == (f"error: {path}: the ground multiplicities sum to {total}, "
                       "2**53 or more, so dim_min would not be exact\n")

    def test_ground_multiplicities_below_2_to_the_53_are_exact(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("0,9007199254740990\n0,1\n5,9007199254740993\n")
        code, out, err = run_captured(["partition", "--domain", "custom", "--levels", str(path),
                                       "--tau", "0"])
        assert code == 0, err
        assert json.loads(out)["results"]["dim_min"] == 2**53 - 1

    def test_ground_dimension_independent_of_truncation(self, capsys):
        report = run_json(
            capsys, ["partition", "--domain", "ball", "--tau", "0", "--n-max", "100000"]
        )
        assert report["results"]["dim_min"] == 1
        assert report["results"]["quasistatic"] == 1.0

    def test_cube_with_5_to_the_22_modes(self, capsys):
        results = run_json(
            capsys, ["partition", "--domain", "cube", "--d", "22", "--n-max", "5", "--tau", "0"]
        )["results"]
        assert results["level_count"] == len(cube_levels(22, 5))
        assert results["dim_min"] == 1
        assert results["quasistatic"] == 1.0


def partition_results(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert run(["partition", *argv]) == 0
    return json.loads(buffer.getvalue())["results"]


class TestUnitInvariance:
    # A change of units scales every energy; with tau scaled to keep
    # E tau / hbar fixed, the level count, the ground dimension and the
    # quasistatic sum must not move.
    UNIT_PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

    def assert_invariant(self, base, scaled):
        reference, results = partition_results(base), partition_results(scaled)
        assert results["level_count"] == reference["level_count"]
        assert results["dim_min"] == reference["dim_min"]
        assert results["quasistatic"] == pytest.approx(reference["quasistatic"], rel=1e-12)

    @UNIT_PROPERTY
    @given(
        cube=st.booleans(),
        d=st.integers(min_value=1, max_value=4),
        n_max=st.integers(min_value=1, max_value=6),
        exponent=st.floats(min_value=-8.0, max_value=8.0),
    )
    def test_length_scale(self, cube, d, n_max, exponent):
        # the ball at l_max = 0: its angular energies do not scale with r0
        length = 10.0**exponent
        domain = ["--domain", "cube", "--d", str(d)] if cube else ["--domain", "ball"]
        flag = "--L" if cube else "--r0"
        config = [*domain, "--n-max", str(n_max)]
        self.assert_invariant(
            [*config, flag, "1", "--tau", "0.05"],
            [*config, flag, repr(length), "--tau", repr(0.05 * length * length)],
        )

    @UNIT_PROPERTY
    @given(
        cube=st.booleans(),
        extent=st.integers(min_value=1, max_value=4),
        n_max=st.integers(min_value=1, max_value=6),
        exponent=st.floats(min_value=-12.0, max_value=4.0),
    )
    def test_hbar_scale(self, cube, extent, n_max, exponent):
        # energies scale as hbar^2, so tau goes as 1/hbar; extent is the
        # cube's d or the ball's l_max + 1
        hbar = 10.0**exponent
        if cube:
            config = ["--domain", "cube", "--d", str(extent)]
        else:
            config = ["--domain", "ball", "--l-max", str(extent - 1)]
        config += ["--n-max", str(n_max)]
        self.assert_invariant(
            [*config, "--tau", "0.05"],
            [*config, "--hbar", repr(hbar), "--tau", repr(0.05 / hbar)],
        )

    @pytest.mark.parametrize(
        "argv, level_count, dim_min",
        [
            (["--domain", "cube", "--n-max", "4", "--L", "1e6"], 20, 1),
            (["--domain", "cube", "--n-max", "4", "--hbar", "1e-10"], 20, 1),
            (["--domain", "ball", "--n-max", "5", "--l-max", "2", "--hbar", "1e-10"], 15, 1),
        ],
    )
    def test_levels_in_small_units_match_unit_scale(self, argv, level_count, dim_min):
        results = partition_results(argv)
        assert (results["level_count"], results["dim_min"]) == (level_count, dim_min)


class TestWeylCommand:
    def test_cube_example(self, capsys):
        report = run_json(
            capsys, ["weyl", "--domain", "cube", "--d", "3", "--L", "1", "--t", "1e-6"]
        )
        row = report["results"]["rows"][0]
        assert row[2] == pytest.approx(CUBE_VOLUME_ESTIMATE_1E6, abs=1e-12)
        assert abs(row[2] - 1.0) < 0.01

    def test_ball_scan(self, capsys):
        report = run_json(
            capsys,
            ["weyl", "--domain", "ball", "--r0", "1",
             "--t", "1e-2", "--t", "1e-4", "--t", "1e-6"],
        )
        rows = report["results"]["rows"]
        assert [row[0] for row in rows] == [1e-2, 1e-4, 1e-6]
        for row in rows:
            assert row[2] == pytest.approx(INTERVAL_VOLUME_ESTIMATE[row[0]], abs=1e-12)

    def test_custom_levels(self, capsys, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("\n".join(f"{(n * math.pi) ** 2},1" for n in range(1, 400)) + "\n")
        report = run_json(
            capsys,
            ["weyl", "--domain", "custom", "--levels", str(path), "--d", "1",
             "--t", "1e-2"],
        )
        assert report["results"]["rows"][0][2] == pytest.approx(
            INTERVAL_VOLUME_ESTIMATE[1e-2], abs=1e-10
        )

    def test_csv_output(self, capsys):
        code = run(["weyl", "--domain", "ball", "--t", "1e-4", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().split("\n")
        assert lines[0] == "t,trace,volume_estimate"
        cells = lines[1].split(",")
        assert float(cells[0]) == 1e-4
        assert float(cells[2]) == pytest.approx(INTERVAL_VOLUME_ESTIMATE[1e-4], abs=1e-12)

    def test_unreadable_levels_file(self, capsys, tmp_path):
        code = run(
            ["weyl", "--domain", "custom", "--levels", str(tmp_path / "nope.txt"),
             "--t", "1e-2"]
        )
        assert code == 2

    def test_square_domain(self, capsys):
        report = run_json(
            capsys, ["weyl", "--domain", "cube", "--d", "2", "--L", "1", "--t", "1e-4"]
        )
        row = report["results"]["rows"][0]
        assert row[2] == pytest.approx(INTERVAL_VOLUME_ESTIMATE[1e-4] ** 2, rel=1e-12)

    def test_nonpositive_t_rejected(self, capsys):
        assert run(["weyl", "--domain", "ball", "--t", "-1e-4"]) == 2

    @pytest.mark.parametrize(
        "argv,t,d",
        [
            (["weyl", "--domain", "ball"], 1e-6, 1),
            (["weyl", "--domain", "ball"], 1e-8, 1),
            (["weyl", "--domain", "ball"], 1e-10, 1),
            (["weyl", "--domain", "cube", "--d", "3"], 1e-8, 3),
            (["weyl", "--domain", "ball"], 1e-14, 1),
            (["weyl", "--domain", "ball"], 1e-30, 1),
        ],
    )
    def test_small_t_trace_matches_jacobi_theta(self, capsys, argv, t, d):
        report = run_json(capsys, argv + ["--t", repr(t)])
        trace = report["results"]["rows"][0][1]
        reference = float(interval_trace_theta(t) ** d)
        assert abs(trace - reference) <= 8 * EPS * reference


class TestFiducialCommand:
    def test_sentinel(self, capsys):
        report = run_json(capsys, ["fiducial", "--r0", "1", "--s0", "-inf", "--branch", "2"])
        assert report["results"]["wavenumber"] == 2.0 * math.pi
        assert report["config"]["s0_is_negative_infinity"] is True

    def test_finite_root(self, capsys):
        s0 = 2.0 * math.log(0.5)
        report = run_json(capsys, ["fiducial", "--r0", "1", "--s0", str(s0)])
        assert report["results"]["wavenumber"] == pytest.approx(math.pi / 6.0, abs=1e-10)
        assert report["results"]["constraint_lhs"] == pytest.approx(0.5, abs=1e-12)

    def test_v0_refused(self, capsys):
        # no fiducial result reads V0, so the option is gone
        assert run(["fiducial", "--s0", "-1.4", "--v0", "7"]) == 2
        assert "unrecognized arguments: --v0 7" in capsys.readouterr().err

    # a root past the double range took sin(inf) ("math domain error"), an
    # exp(S0/2) past it raised "math range error", and the -inf root printed
    # the renderer's generic "a result is not finite: inf"
    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--r0", "1e-300", "--s0", "-1.4", "--branch", "10000000000"],
             "the fiducial wavenumber c or c*r0 overflows at branch=10000000000, r0=1e-300"),
            (["--r0", "1e-300", "--s0", "0", "--branch", "10000000000"],
             "the fiducial wavenumber c or c*r0 overflows at branch=10000000000, r0=1e-300"),
            (["--r0", "5e-324", "--s0", "1480"],
             "exp(S0/(2 k_B)) overflows at s0=1480.0, r0=5e-324"),
            (["--s0=-inf", "--r0", "1e-300", "--branch", "10000000000"],
             "the fiducial wavenumber c or c*r0 overflows at branch=10000000000, r0=1e-300"),
            # exp(S0/2) underflows to 0 or to a subnormal: the root printed 0 or lost digits
            (["--s0", "-1500", "--r0", "1"],
             "the fiducial wavenumber c is not a normal double at s0=-1500.0, r0=1.0"),
            (["--s0", "-1420", "--r0", "1"],
             "the fiducial wavenumber c is not a normal double at s0=-1420.0, r0=1.0"),
        ],
    )
    def test_overflow_is_a_named_error(self, argv, line):
        code, out, err = run_captured(["fiducial", *argv])
        assert (code, out, err) == (1, "", f"error: {line}\n")
        assert not re.search(r"math \w+ error", err)

    # y = r0 exp(S0/2) is subnormal: asin(y)/r0 printed 0, and then roots
    # wrong from the 14th and the 12th digit, with exit 0
    @pytest.mark.parametrize("r0, s0", [("5e-324", "-1.4"), ("1e-310", "-1.4"), ("1e-300", "-60")])
    def test_first_root_at_a_tiny_y_is_exp_s0_over_2(self, capsys, r0, s0):
        results = run_json(capsys, ["fiducial", "--r0", r0, "--s0", s0])["results"]
        assert results["wavenumber"] == results["constraint_rhs"]
        with mp.workdps(60):
            x0 = mp.mpf(float(r0))
            root = mp.asin(mp.exp(mp.mpf(float(s0)) / 2) * x0) / x0
        assert abs(mp.mpf(results["wavenumber"]) - root) <= math.ulp(results["wavenumber"])

    def test_no_real_solution_is_computational_error(self, capsys):
        s0 = 2.0 * math.log(1.5)
        code = run(["fiducial", "--r0", "1", "--s0", str(s0)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error" in captured.err

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        log_r0=st.floats(min_value=-7.0, max_value=7.0),
        branch=st.one_of(st.integers(1, 40), st.integers(1, 10**6)),
    )
    def test_wavenumbers_within_half_an_ulp_of_mpmath(self, log_r0, branch):
        """Every k pi / length, against its 60-digit value, with r0 taken as exact.

        The S0 = -inf root and pi_over(r0)(branch), radial_wavefunction's c_n, are
        branch pi / r0, the tangency root is (4 branch - 3) pi / (2 r0) and row n
        of the radial table is n pi / r0. Each is one quotient of ints, rounded
        once, so within 0.5 ulp (the 50-digit pi moves it by less than 1e-49
        relative). The -inf root and the table row print the same bytes.
        """
        r0, u = math.exp(log_r0), natural_units()

        def ulps(value, exact):
            return float(abs(mp.mpf(value) - exact)) / math.ulp(float(exact))

        node = wavenumber_mpmath(branch, r0)
        sentinel = solve_fiducial_wavenumber(NEGATIVE_INFINITE_ENTROPY, r0, branch, u)
        assert ulps(sentinel, node) <= 0.5
        assert ulps(pi_over(r0)(branch), node) <= 0.5

        # exp(S0/2) r0 rounds to 1 at S0 = -2 ln r0 for r0 or for one a few ulp above
        tangent = r0
        for _ in range(64):
            if math.exp(-math.log(tangent)) * tangent >= 1.0:
                break
            tangent = math.nextafter(tangent, math.inf)
        else:
            raise AssertionError(f"no tangency within 64 ulp above r0={r0!r}")
        root = solve_fiducial_wavenumber(-2.0 * math.log(tangent), tangent, branch, u)
        assert ulps(root, wavenumber_mpmath(4 * branch - 3, 2 * tangent)) <= 0.5

        n = min(branch, 40)
        code, out, err = run_captured(["fiducial", "--s0=-inf", "--r0", repr(r0),
                                       "--branch", str(n)])
        assert code == 0, err
        printed = re.search(r'"wavenumber": (\S+),', out).group(1)
        table = run_captured(["spectrum", "--kind", "radial", "--r0", repr(r0),
                              "--n-max", str(n), "--format", "csv"])[1]
        assert table.splitlines()[n].split(",")[1] == printed
        assert ulps(float(printed), wavenumber_mpmath(n, r0)) <= 0.5


class TestSpectrumCommand:
    def test_radial_table(self, capsys):
        report = run_json(capsys, ["spectrum", "--kind", "radial", "--r0", "1", "--n-max", "3"])
        rows = report["results"]["rows"]
        assert rows[0][1] == pytest.approx(math.pi, rel=1e-15)
        assert rows[2][2] == pytest.approx(9.0 * math.pi**2, rel=1e-14)

    def test_angular_table(self, capsys):
        report = run_json(capsys, ["spectrum", "--kind", "angular", "--l-max", "2"])
        rows = report["results"]["rows"]
        assert rows == [[0, 0.0, 1], [1, 2.0, 3], [2, 6.0, 5]]

    def test_box_table(self, capsys):
        report = run_json(
            capsys, ["spectrum", "--kind", "box", "--d", "3", "--L", "1", "--n-max", "2"]
        )
        rows = report["results"]["rows"]
        assert rows[0][0] == "1x1x1"
        assert rows[1][0] == "1x1x2"

    def test_numeric_table(self, capsys):
        report = run_json(
            capsys,
            ["spectrum", "--kind", "numeric", "--r0", "1", "--grid-points", "800",
             "--k", "3"],
        )
        rows = report["results"]["rows"]
        assert rows[0][1] == pytest.approx(math.pi**2, rel=1e-5)
        assert rows[2][2] == pytest.approx(3.0 * math.pi, rel=1e-5)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        log_r0=st.floats(min_value=-3.0, max_value=3.0),
        grid_points=st.integers(min_value=3, max_value=10**7),
        k=st.integers(min_value=1, max_value=60),
        log_hbar=st.floats(min_value=-3.0, max_value=3.0),
        log_mass=st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_numeric_table_prints_the_solver_bits(
        self, log_r0, grid_points, k, log_hbar, log_mass
    ):
        r0, hbar, mass = 10.0**log_r0, 10.0**log_hbar, 10.0**log_mass
        k = min(k, grid_points - 2)
        u = UnitSystem(hbar, 1.0, mass)  # hbar^2/(2 mass) is normal
        free = list(free_difference_energies(r0, grid_points, k, u))
        if grid_points * k <= 10**6:  # the solver also builds its k x N modes
            solved, _ = solve_radial_numeric(r0, grid_points, k, u)
            assert [e.hex() for e in free] == [e.hex() for e in solved.tolist()]

        argv = ["spectrum", "--kind", "numeric", "--r0", repr(r0), "--grid-points",
                str(grid_points), "--k", str(k), "--hbar", repr(hbar), "--mass", repr(mass)]
        code, out, err = run_captured(argv)
        assert code == 0, err
        rows = json.loads(out)["results"]["rows"]
        # float(): an energy such as 36.0 prints as 36, which json reads as an int
        assert [float(row[1]).hex() for row in rows] == [e.hex() for e in free]

    # each error line names the inputs, as the solver's checks word it
    @pytest.mark.parametrize(
        "argv, code, line",
        [
            (["--r0", "1e160", "--grid-points", "10", "--k", "2"], 1,
             "level energies underflow at r0=1e+160, grid_points=10, k_lowest=2"),
            (["--k", "0"], 2, "k_lowest must satisfy 1 <= k_lowest < grid_points - 1, got 0"),
            (["--k", "9", "--grid-points", "10"], 2,
             "k_lowest must satisfy 1 <= k_lowest < grid_points - 1, got 9"),
            (["--mass", "1e-307", "--grid-points", "100000"], 1,
             "level energies overflow at r0=1.0, grid_points=100000, k_lowest=5"),
            # h^2 underflows to 0
            (["--r0", "1e-170", "--grid-points", "10", "--k", "2"], 1,
             "level energies overflow at r0=1e-170, grid_points=10, k_lowest=2"),
            # h^2 is subnormal: pref/h^2 printed 101 ulp off, and 14 ulp at 3e-152
            (["--hbar", "1e-5", "--r0", "1e-149", "--grid-points", "1000000", "--k", "1"], 1,
             "level energies overflow at r0=1e-149, grid_points=1000000, k_lowest=1"),
            (["--hbar", "1e-5", "--r0", "3e-152", "--grid-points", "1000", "--k", "1"], 1,
             "level energies overflow at r0=3e-152, grid_points=1000, k_lowest=1"),
        ],
    )
    def test_numeric_error_lines(self, capsys, argv, code, line):
        assert run(["spectrum", "--kind", "numeric", *argv]) == code
        assert capsys.readouterr().err == f"error: {line}\n"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        log_r0=st.floats(min_value=-156.0, max_value=-138.0),
        log_hbar=st.floats(min_value=-100.0, max_value=0.0),
        log_grid=st.floats(min_value=0.5, max_value=6.3),
        k=st.integers(min_value=1, max_value=5),
    )
    def test_numeric_levels_near_a_subnormal_h2_are_exact_or_refused(
        self, log_r0, log_hbar, log_grid, k
    ):
        """h = r0/(N - 1) is drawn on both sides of h*h = 2**-1022.

        Each run exits 1 with one error line, or prints levels within 10 ulp of
        the 50-digit 4 pref/h^2 sin^2(j pi / (2 (N - 1))), taking the doubles
        pref and h (the grid's spacing) as exact. The bound is the sum of the
        roundings: h*h and pref/h^2 (one each), the angle and the sine (three,
        libm's sine within 1 ulp) twice, and the two products, 10 units of
        2**-53 relative, which is at most 10 ulp. A subnormal h*h has lost
        digits: at the parent, 1e-149 with N = 1e6 printed a level 101 ulp off.
        """
        r0, hbar = 10.0**log_r0, 10.0**log_hbar
        grid_points = max(3, int(10.0**log_grid))
        k = min(k, grid_points - 2)
        argv = ["spectrum", "--kind", "numeric", "--r0", repr(r0), "--hbar", repr(hbar),
                "--grid-points", str(grid_points), "--k", str(k), "--format", "csv"]
        code, out, err = run_captured(argv)
        if code != 0:
            assert code == 1 and one_error_line(err), err
            return
        pref, h = kinetic_prefactor(UnitSystem(hbar, 1.0, 0.5)), r0 / (grid_points - 1)
        with mp.workdps(50):
            for j, row in enumerate(out.splitlines()[1:], start=1):
                energy = float(row.split(",")[1])
                exact = 4 * mp.mpf(pref) / mp.mpf(h) ** 2 * mp.sin(
                    j * mp.pi / (2 * (grid_points - 1))) ** 2
                assert abs(mp.mpf(energy) - exact) <= 10 * math.ulp(float(exact)), (j, argv)

    def test_csv_round_trips_floats(self, capsys):
        code = run(["spectrum", "--kind", "radial", "--n-max", "2", "--format", "csv"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().split("\n")
        wavenumber = float(lines[1].split(",")[1])
        assert wavenumber == math.pi

    # The tables take their rows from thermo's stdlib functions, and so do the
    # ball's and the cube's partition sums: each level is the same key-1 energy
    # times the same int key, so the same bits. The ball's level walk at
    # l_max = 0 is the radial table, and the cube counts the box table's keys.
    # The wavenumber n pi / r0 is rounded once, so it is the 60-digit value
    # rounded to a double.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        log_hbar=st.floats(min_value=-3.0, max_value=3.0),
        log_mass=st.floats(min_value=-3.0, max_value=3.0),
        log_length=st.floats(min_value=-2.0, max_value=2.0),
        l_max=st.integers(min_value=0, max_value=3000),
        n_max=st.integers(min_value=1, max_value=3000),
        d=st.integers(min_value=1, max_value=4),
        box_n_max=st.integers(min_value=1, max_value=7),
    )
    def test_tables_print_the_level_list_bits(
        self, log_hbar, log_mass, log_length, l_max, n_max, d, box_n_max
    ):
        hbar, mass, length = 10.0**log_hbar, 10.0**log_mass, 10.0**log_length
        u = UnitSystem(hbar, 1.0, mass)
        units = ["--hbar", repr(hbar), "--mass", repr(mass)]

        def rows(*argv):
            return table_rows([*argv, *units])

        def bits(values):
            # float(): an energy such as 36.0 prints as 36, which json reads as an int
            return [float(v).hex() for v in values]

        radial = rows("--kind", "radial", "--r0", repr(length), "--n-max", str(n_max))
        assert [row[0] for row in radial] == list(range(1, n_max + 1))
        assert bits(row[1] for row in radial) == bits(
            wavenumber_mpmath(n, length) for n in range(1, n_max + 1)
        )
        scales = _level_scale(u, 0), _level_scale(u, n_max, length)
        assert (
            bits(row[2] for row in radial)
            == bits(interval_energies(length, n_max, u))
            == bits(e for e, _ in _ball_levels(*scales, n_max, 0))
        )

        angular = rows("--kind", "angular", "--l-max", str(l_max))
        assert [row[0] for row in angular] == list(range(l_max + 1))
        assert (
            bits(row[1] for row in angular)
            == bits(sphere_energies(l_max, u))
        )
        assert [row[2] for row in angular] == [2 * l + 1 for l in range(l_max + 1)]

        box = rows("--kind", "box", "--d", str(d), "--L", repr(length), "--n-max", str(box_n_max))
        numbers, energies = box_modes(length, d, box_n_max, u)
        assert [row[0] for row in box] == ["x".join(map(str, q)) for q in numbers]
        assert bits(row[1] for row in box) == bits(energies)
        assert _cube_partition(length, d, box_n_max, 0.0, u)[2] == len(set(energies))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        log_length=st.floats(min_value=-5.0, max_value=5.0),
        log_hbar=st.floats(min_value=-3.0, max_value=3.0),
        log_mass=st.floats(min_value=-3.0, max_value=3.0),
        n_max=st.integers(min_value=1, max_value=50),
        box=st.integers(min_value=1, max_value=4).flatmap(
            lambda d: st.tuples(st.just(d), st.integers(1, (50, 50, 27, 11)[d - 1]))
        ),
    )
    def test_printed_levels_within_their_ulp_bounds(
        self, log_length, log_hbar, log_mass, n_max, box
    ):
        """Printed levels and wavenumbers against their 60-digit values.

        The doubles pref = hbar^2/(2 mass) and L are taken as exact, and so is K,
        the int key of a level (n^2, n_1^2 + ... + n_d^2 or l(l+1)), below 2**53
        here. The radial and box levels are fl(s K), where s = fl(S) and
        S = pref pi^2 / L^2 is the key-1 energy; the error against E = S K is
            |fl(s K) - E| <= K |s - S| + |fl(s K) - s K|
                          <= K ulp(s)/2 + ulp(E)/2 <= 1.5 ulp(E),
        since K ulp(s)/2 <= K s 2**-53 ~ E 2**-53 < ulp(E), and the product is
        rounded once. (Where s K rounds up to the next power of two the error is
        still below ulp(E).) A sphere level fl(pref l(l+1)) and a wavenumber
        n pi / L, a ratio of ints, are rounded once: within 0.5 ulp. The 50-digit
        pi moves any of these by less than 1e-49 relative.
        """
        length, d, box_n_max = math.exp(log_length), *box
        hbar, mass = math.exp(log_hbar), math.exp(log_mass)
        pref = kinetic_prefactor(UnitSystem(hbar, 1.0, mass))
        units = ["--hbar", repr(hbar), "--mass", repr(mass)]

        def ulps(value, exact):
            return float(abs(mp.mpf(value) - exact)) / math.ulp(float(exact))

        radial = table_rows(["--kind", "radial", "--r0", repr(length),
                             "--n-max", str(n_max), *units])
        for n, wavenumber, energy in radial:
            assert ulps(wavenumber, wavenumber_mpmath(n, length)) <= 0.5
            assert ulps(energy, key_one_energy_mpmath(pref, length, n * n)) <= 1.5

        angular = table_rows(["--kind", "angular", "--l-max", str(n_max), *units])
        with mp.workdps(60):
            for l, energy, _ in angular:
                assert ulps(energy, mp.mpf(pref) * (l * (l + 1))) <= 0.5

        table = table_rows(["--kind", "box", "--d", str(d), "--L", repr(length),
                            "--n-max", str(box_n_max), *units])
        levels = {}  # key -> energy: every mode of a key prints the same level
        for numbers, energy in table:
            key = sum(int(n) ** 2 for n in numbers.split("x"))
            assert levels.setdefault(key, energy) == energy
        for key, energy in levels.items():
            assert ulps(energy, key_one_energy_mpmath(pref, length, key)) <= 1.5

    def test_unit_overrides_reach_the_spectra(self, capsys):
        default = run_json(capsys, ["spectrum", "--kind", "radial", "--n-max", "1"])
        heavy = run_json(
            capsys, ["spectrum", "--kind", "radial", "--n-max", "1", "--mass", "1"]
        )
        assert heavy["config"]["mass"] == 1.0
        assert heavy["results"]["rows"][0][2] == pytest.approx(
            0.5 * default["results"]["rows"][0][2], rel=1e-15
        )


class TestDualityCommand:
    def test_table(self, capsys):
        report = run_json(capsys, ["duality", "--tau", "1", "--tau", "2", "--temperature", "4"])
        rows = report["results"]["rows"]
        assert rows[0] == [1.0, 1.0]
        assert rows[1] == [2.0, 0.5]
        assert rows[2] == [0.25, 4.0]

    def test_requires_input(self, capsys):
        assert run(["duality"]) == 2


LEVELS = str(Path(__file__).resolve().parent / "golden" / "levels.txt")
# (argv, float options, formats): every subcommand and kind or domain, small sizes
SWEEP_TEMPLATES = [
    (["spectrum", "--kind", "angular", "--l-max", "3"], ["--r0", "--L"], ["json", "csv"]),
    (["spectrum", "--kind", "radial", "--n-max", "3"], ["--r0", "--L"], ["json", "csv"]),
    (["spectrum", "--kind", "box", "--d", "2", "--n-max", "2"], ["--r0", "--L"], ["json", "csv"]),
    (["spectrum", "--kind", "numeric", "--grid-points", "20", "--k", "3"], ["--r0", "--L"],
     ["json", "csv"]),
    (["weyl", "--domain", "ball"], ["--r0", "--L", "--t"], ["json", "csv"]),
    (["weyl", "--domain", "cube", "--d", "3"], ["--r0", "--L", "--t"], ["json", "csv"]),
    (["weyl", "--domain", "custom", "--levels", LEVELS], ["--r0", "--L", "--t"], ["json", "csv"]),
    (["entropy", "--n", "3"], ["--r0"], ["json"]),
    (["fiducial"], ["--r0", "--s0"], ["json"]),
    (["partition", "--domain", "ball", "--n-max", "3", "--l-max", "1"], ["--r0", "--L", "--tau"],
     ["json"]),
    (["partition", "--domain", "cube", "--d", "2", "--n-max", "2"], ["--r0", "--L", "--tau"],
     ["json"]),
    (["partition", "--domain", "custom", "--levels", LEVELS], ["--r0", "--L", "--tau"], ["json"]),
    (["duality"], ["--tau", "--temperature"], ["json", "csv"]),
]
# the edges of the double range, where products and quotients leave it, and invalid input
SWEEP_VALUES = ["5e-324", "1e-310", "1e-170", "1e-155", "1e-20", "0.3", "1", "1e20", "1e155",
                "1e170", "1e300", "inf", "nan", "-1", "0"]


class TestExitCodesAndOutput:
    @settings(max_examples=1000, deadline=timedelta(seconds=5), derandomize=True)
    @given(st.data())
    def test_float_option_sweep(self, data):
        base, options, formats = data.draw(st.sampled_from(SWEEP_TEMPLATES))
        argv = [*base, "--format", data.draw(st.sampled_from(formats))]
        for option in ("--hbar", "--kb", "--mass", *options):
            argv += [option, data.draw(st.sampled_from(SWEEP_VALUES))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a warning would print more stderr lines
            code, out, err = run_captured(argv)
        assert code in (0, 1, 2), err
        if code == 1:
            assert one_error_line(err), err
        if code == 0:
            assert not re.search(r"\b(inf|nan|infinity)\b", out, re.IGNORECASE), out

    def test_unknown_flag(self, capsys):
        assert run(["entropy", "--frequency", "3"]) == 2

    def test_unknown_subcommand(self, capsys):
        assert run(["resonance"]) == 2

    def test_no_arguments(self, capsys):
        assert run([]) == 2

    def test_negative_parameter(self, capsys):
        assert run(["entropy", "--n", "1", "--r0", "-2"]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["weyl", "--domain", "ball", "--t", "0"],
            ["weyl", "--domain", "ball", "--t", "-1"],
            ["weyl", "--domain", "cube", "--t", "0.1", "--d", "0"],
            ["weyl", "--domain", "ball", "--t", "0.1", "--r0", "inf"],
            ["weyl", "--domain", "custom", "--levels", "neg.txt", "--t", "0.1"],
            ["spectrum", "--kind", "box", "--d", "0"],
            ["spectrum", "--kind", "numeric", "--k", "0"],
            ["partition", "--domain", "ball", "--l-max", "-1"],
            ["partition", "--domain", "ball", "--tau", "nan"],
            ["entropy", "--n", "0"],
            ["entropy", "--hbar", "0"],
            ["fiducial", "--s0", "nan"],
            # was --v0 -1: argparse now refuses --v0 (test_v0_refused), so the
            # fiducial's other positive input takes this place
            ["fiducial", "--s0", "0", "--r0", "-1"],
            ["duality", "--tau", "inf"],
            ["spectrum", "--kind", "numeric", "--hbar", "1e-200", "--grid-points", "100", "--k", "2"],
            ["spectrum", "--kind", "radial", "--hbar", "1e200"],
            ["spectrum", "--kind", "radial", "--hbar", "1e-155", "--mass", "1", "--n-max", "2"],
            ["weyl", "--domain", "ball", "--r0", "10", "--t", "5e-324"],
            ["partition", "--domain", "cube", "--d", "40", "--n-max", "5"],
        ],
    )
    def test_rejected_input_exits_2_with_one_error_line(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        Path("neg.txt").write_text("-1,1\n2,1\n")
        code = run(argv)
        err = capsys.readouterr().err
        assert code == 2, err
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert "np." not in err, err

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--kind", "radial", "--mass", "1e-300", "--n-max", "100000"],
            ["spectrum", "--kind", "numeric", "--mass", "1e-307", "--grid-points", "100000",
             "--k", "2"],
            ["duality", "--tau", "1e-320"],
            ["partition", "--domain", "ball", "--tau", "1e-320"],
            ["duality", "--temperature", "1e-320"],
            ["weyl", "--domain", "cube", "--L", "1e150", "--t", "1"],
            ["partition", "--domain", "ball", "--r0", "1e-200"],
            ["partition", "--domain", "cube", "--L", "1e-200"],
            ["spectrum", "--kind", "box", "--L", "1e-200"],
            # a key-1 energy below the normal range would merge levels
            ["partition", "--domain", "cube", "--n-max", "4", "--L", "1e200"],
            ["partition", "--domain", "ball", "--n-max", "4", "--r0", "1e200"],
            ["spectrum", "--kind", "box", "--L", "1e200"],
            ["spectrum", "--kind", "radial", "--r0", "1e160", "--n-max", "2"],
            # so would the finite-difference energies, where h^2 overflows
            ["spectrum", "--kind", "numeric", "--r0", "1e160", "--grid-points", "10", "--k", "2"],
            # a subnormal dual has lost digits
            ["duality", "--tau", "1e300", "--hbar", "1e-10"],
            ["duality", "--temperature", "1e300", "--hbar", "1e-10"],
        ],
    )
    def test_nonfinite_result_exits_1_with_one_error_line(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would print two more lines
            code = run(argv)
        captured = capsys.readouterr()
        assert code == 1, captured.err
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert "np." not in captured.err, captured.err
        assert "out of range" not in captured.err, captured.err  # Python's errno 34 text

    @pytest.mark.parametrize(
        "argv, line",
        [
            # k_B times the value underflows to 0, so the dual is infinite
            (["duality", "--tau", "1e-300", "--kb", "1e-30"],
             "hbar/(k_B tau) at tau=1e-300 is not a normal double"),
            (["duality", "--temperature", "0.3", "--kb", "5e-324"],
             "hbar/(k_B temperature) at temperature=0.3 is not a normal double"),
            (["partition", "--domain", "ball", "--tau", "0.3", "--kb", "5e-324"],
             "hbar/(k_B tau) at tau=0.3 is not a normal double"),
            # the ball's radial tower overflows, and its check names the tower's inputs
            (["partition", "--domain", "ball", "--r0", "1e-200"],
             "level energies overflow at length=1e-200, n_max=25"),
            # 3 k_B times a negative expectation overflows: the renderer refuses -inf
            (["entropy", "--n", "1", "--kb", "1e308"], "a result is not finite: -inf"),
        ],
    )
    def test_computational_failure_lines(self, capsys, argv, line):
        assert run(argv) == 1
        assert capsys.readouterr() == ("", f"error: {line}\n")

    # a bare MemoryError has no text; numpy's names the allocation
    @pytest.mark.parametrize(
        "exc, line",
        [(MemoryError(), "out of memory"),
         (MemoryError("Unable to allocate 7.45 GiB"), "Unable to allocate 7.45 GiB")],
    )
    def test_out_of_memory_exits_1_with_one_error_line(self, capsys, monkeypatch, exc, line):
        def exhaust(*args):
            raise exc

        monkeypatch.setattr("spectherm.cli.box_modes", exhaust)
        assert run(["spectrum", "--kind", "box", "--d", "3", "--n-max", "1000"]) == 1
        assert capsys.readouterr() == ("", f"error: {line}\n")

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["entropy", "--n", "1"]
        run(argv)
        stdout_payload = capsys.readouterr().out
        out_path = tmp_path / "report.json"
        run(argv + ["--out", str(out_path)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert out_path.read_text(encoding="utf-8") == stdout_payload

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--kind", "radial", "--n-max", "4"],
            ["spectrum", "--kind", "numeric", "--grid-points", "400", "--k", "3"],
            ["weyl", "--domain", "cube", "--t", "1e-4", "--t", "1e-6"],
            ["entropy", "--n", "2"],
            ["fiducial", "--s0", "-inf", "--branch", "3"],
            ["partition", "--domain", "ball", "--tau", "0.25"],
            ["duality", "--tau", "3"],
            ["entropy", "--n", "1", "--format", "json"],
        ],
    )
    def test_byte_identical_reruns(self, capsys, argv):
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()

    @pytest.mark.parametrize(
        "argv",
        [
            ["partition", "--domain", "cube", "--format", "csv"],
            ["entropy", "--format", "csv"],
            ["fiducial", "--s0", "0", "--format", "csv"],
        ],
    )
    def test_csv_refused_before_any_computation(self, capsys, monkeypatch, argv):
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError("computed a report whose format is refused")

        # where the handlers look each name up
        for name in ("cli._cube_partition", "cli.entropy_expectation",
                     "cli.solve_fiducial_wavenumber"):
            monkeypatch.setattr(f"spectherm.{name}", refuse)
        assert run(argv) == 2
        assert calls == []
        assert "invalid choice: 'csv'" in capsys.readouterr().err

    def test_json_floats_use_17_significant_digits(self, capsys):
        run(["duality", "--tau", "3"])
        payload = capsys.readouterr().out
        assert "0.33333333333333331" in payload


# The argvs of the benchmark workloads that need no arrays: startup's ten,
# the entropy and fiducial forms of solver's, and the free numeric spectrum;
# then every spectrum table, whose rows come from thermo, in json and csv.
SCALAR_ARGVS = [
    ["partition", "--domain", "ball", "--r0", "1", "--tau", "0"],
    ["partition", "--domain", "cube", "--n-max", "4", "--tau", "0.5"],
    ["entropy", "--n", "1", "--r0", "1"],
    ["entropy", "--n", "3", "--r0", "0.5", "--kb", "2"],
    ["fiducial", "--r0", "1", "--s0", "-inf", "--branch", "2"],
    ["fiducial", "--r0", "1", "--s0", "-1.3862943611198906"],
    ["duality", "--tau", "1", "--tau", "3", "--temperature", "7"],
    ["duality", "--tau", "0.125", "--format", "csv"],
    ["weyl", "--domain", "cube", "--d", "3", "--L", "1", "--t", "1e-06"],
    ["weyl", "--domain", "ball", "--t", "0.01", "--t", "0.0001", "--format", "csv"],
    ["entropy", "--n", "4321", "--r0", "1.234567"],
    ["fiducial", "--r0", "1.5", "--s0", "-1.6", "--branch", "57"],
    ["spectrum", "--kind", "numeric", "--grid-points", "100000", "--k", "50"],
    ["spectrum", "--kind", "numeric", "--grid-points", "100000", "--k", "50", "--format", "csv"],
    ["spectrum", "--kind", "radial"],
    ["spectrum", "--kind", "radial", "--n-max", "4", "--format", "csv"],
    ["spectrum", "--kind", "angular", "--l-max", "4"],
    ["spectrum", "--kind", "angular", "--format", "csv"],
    ["spectrum", "--kind", "box", "--d", "3", "--L", "1", "--n-max", "2"],
    ["spectrum", "--kind", "box", "--format", "csv"],
]

# The modules a fresh process is checked for: numpy and spectherm.spectra,
# which only a level list needs; fractions (with decimal) and
# spectherm.heattrace, which only weyl needs; csv, which nothing needs (csv
# output is joined by hand); and dataclasses, which no computation needs and
# which loads inspect, ast and dis.
WATCHED = ("csv", "dataclasses", "decimal", "fractions", "numpy", "spectherm.heattrace",
           "spectherm.spectra")
LOADED = f"*[m for m in {WATCHED!r} if m in sys.modules]"

# Runs argv through the CLI's run(), as the console script does, then
# prints the WATCHED modules loaded to stderr.
MODULE_PROBE = (
    "import sys; from spectherm.cli import run; code = run(sys.argv[1:]); "
    f"print({LOADED}, file=sys.stderr); sys.exit(code)"
)


class TestFreshProcess:
    # Subprocesses, because pytest and the test modules import scipy themselves.

    def test_import_loads_no_numpy(self):
        probe = run_python(
            "-c",
            "import sys\n"
            "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'numpy')\n"
            "import spectherm\n"
            "first = loaded()\n"
            "import spectherm.cli\n"
            "from spectherm import duality_map, entropy_expectation, interval_heat_trace\n"
            "from spectherm import Spectrum, heat_trace, natural_units, qm_partition\n"
            "levels = Spectrum([0.0, 1.0], [2, 1])\n"
            "heat_trace(levels, 1.0, natural_units()), qm_partition(levels, 1.0, natural_units())\n"
            "print(first, loaded())",
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout == "[] []\n"

    def test_cli_import_loads_none_of_the_watched_modules(self):
        probe = run_python("-c", f"import sys, spectherm.cli; print({LOADED})")
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout == "\n"

    @pytest.mark.parametrize("argv", SCALAR_ARGVS, ids=" ".join)
    def test_scalar_subcommand_loads_no_numpy(self, argv):
        # nor any other WATCHED module it does not run: fractions (with
        # decimal) and heattrace only for weyl, and csv never
        probe = run_python("-c", MODULE_PROBE, *argv)
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout != ""
        loaded = set(probe.stderr.split())
        allowed = {"decimal", "fractions", "spectherm.heattrace"} if argv[0] == "weyl" else set()
        assert loaded <= allowed
        assert "csv" not in loaded

    @pytest.mark.parametrize(
        "argv",
        [
            ["partition", "--domain", "custom", "--levels", "levels.txt"],
            ["weyl", "--domain", "custom", "--levels", "levels.txt", "--t", "1"],
        ],
        ids=" ".join,
    )
    def test_level_file_subcommand_loads_no_numpy(self, tmp_path, argv):
        # the handlers that read a level file parse and sum it with the standard library
        (tmp_path / "levels.txt").write_text("1,1\n")
        argv = [str(tmp_path / a) if a == "levels.txt" else a for a in argv]
        probe = run_python("-c", MODULE_PROBE, *argv)
        assert probe.returncode == 0, probe.stderr
        loaded = set(probe.stderr.split())
        assert "spectherm.spectra" in loaded and "numpy" not in loaded

    @pytest.mark.parametrize("domain", ["ball", "cube"])
    def test_partition_loads_no_heattrace(self, domain):
        # thermo sums the ball and the cube, and imports neither heattrace nor fractions
        probe = run_python("-c", MODULE_PROBE, "partition", "--domain", domain)
        assert probe.returncode == 0, probe.stderr
        assert not {"decimal", "fractions", "spectherm.heattrace"} & set(probe.stderr.split())

    def test_public_names_are_the_objects_their_modules_define(self):
        import spectherm
        from spectherm import heattrace, specfun, spectra, thermo, units

        modules = (heattrace, specfun, spectra, thermo, units)
        for name in spectherm.__all__:
            owners = [m for m in modules if name in m.__all__]
            assert len(owners) == 1, (name, owners)
            value = getattr(spectherm, name)
            assert value is vars(owners[0])[name], name
            if callable(value):  # a function or a class, defined where it is owned
                assert value.__module__ == owners[0].__name__, name
        assert sorted(n for m in modules for n in m.__all__) == spectherm.__all__

    def test_import_loads_no_scipy(self):
        probe = run_python(
            "-c",
            "import spectherm, spectherm.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout == "[]\n"

    def test_numeric_spectrum_resolves_deferred_scipy_import(self):
        probe = run_python(
            "-c",
            "import sys\n"
            "from spectherm import natural_units, solve_radial_numeric\n"
            "before = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "energies, modes = solve_radial_numeric(\n"
            "    1.0, 50, 2, natural_units(), lambda r: r * r\n"
            ")\n"
            "print(before, 'scipy.linalg' in sys.modules, len(energies))",
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout == "[] True 2\n"

    def test_free_numeric_spectrum_loads_no_scipy(self):
        argv = ["spectrum", "--kind", "numeric", "--grid-points", "100000", "--k", "50"]
        probe = run_python(
            "-c",
            "import sys; from spectherm.cli import run; code = run(%r); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), "
            "file=sys.stderr); sys.exit(code)" % argv,
        )
        assert probe.returncode == 0, probe.stderr
        assert len(json.loads(probe.stdout)["results"]["rows"]) == 50
        assert probe.stderr == "[]\n"

    @pytest.mark.parametrize("branch", [10**12, 10**12 + 1])
    def test_fiducial_root_at_branch_1e12_is_closed_form(self, branch):
        argv = ["fiducial", "--r0", "1", "--s0", "-1.3862943611198906", "--branch", str(branch)]
        probe = run_python("-m", "spectherm", *argv, timeout=10)
        assert probe.returncode == 0, probe.stderr
        c = json.loads(probe.stdout)["results"]["wavenumber"]
        period, falling = divmod(branch - 1, 2)
        with mp.workdps(40):
            phase = mp.mpf(c) - 2 * mp.pi * period  # r0 = 1
            quarter = (mp.pi / 2, mp.pi) if falling else (0, mp.pi / 2)
            assert quarter[0] < phase < quarter[1]

    def test_python_m_matches_console_script(self):
        argv = ["duality", "--tau", "1"]
        module = run_python("-m", "spectherm", *argv)
        # the [project.scripts] target, called the way the installed script calls it
        script = run_python(
            "-c", "import sys; from spectherm.cli import main; sys.exit(main())", *argv
        )
        assert module.returncode == script.returncode == 0, module.stderr + script.stderr
        assert module.stdout == script.stdout
        assert json.loads(module.stdout)["results"]["rows"] == [[1.0, 1.0]]

    def test_python_m_cli_matches_python_m_package(self):
        argv = ["duality", "--tau", "1"]
        package = run_python("-m", "spectherm", *argv)
        module = run_python("-m", "spectherm.cli", *argv)
        assert package.returncode == module.returncode == 0, package.stderr + module.stderr
        assert module.stdout == package.stdout != ""
