import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bellopt import (
    EWLParams,
    OracleConfig,
    TimeScan,
    brute_force_bmax,
    cli,
    crossing_roots,
    dynamics,
    ewl_state,
    x_to_dense,
)
from bellopt.cli import _csv_rows, _scan_csv, fmt9, main
from conftest import lower_triangle_fault, random_density, werner

GOLDEN = Path(__file__).parent / "golden"
GOLDEN_CASES = json.loads((GOLDEN / "cases.json").read_text())


def write_state(tmp_path, entries, name="state.json", off_x_tol=None):
    doc = {"rho": [[[z.real, z.imag] for z in row] for row in np.asarray(entries, complex)]}
    if off_x_tol is not None:
        doc["off_x_tol"] = off_x_tol
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def bell_file(tmp_path):
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = m[1, 2] = m[2, 1] = 0.5
    return write_state(tmp_path, m, "bell.json")


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "bellopt", *args],
                          capture_output=True, text=True)


def run_golden(argv):
    """Run one golden case in-process from the golden directory (its argv
    holds paths relative to it); returns (exit code, stdout)."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(GOLDEN)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


class TestFmt9:
    def test_plain(self):
        assert fmt9(2.8284271247461903) == "2.82842712"
        assert fmt9(0.5) == "0.5"
        assert fmt9(0.0) == "0"
        assert fmt9(-0.0) == "0"

    def test_scientific(self):
        assert fmt9(1.23e-5) == "1.23000000e-05"
        assert fmt9(1.5e7) == "1.50000000e+07"
        assert "e" in fmt9(9.999e-5)

    @pytest.mark.parametrize("value,text", [
        (math.nextafter(1e-4, 0.0), "1.00000000e-04"),
        (1e-4, "0.0001"),
        (math.nextafter(1e6, 0.0), "1000000"),
        (1e6, "1.00000000e+06"),
        (5e-324, "4.94065646e-324"),
        (-5e-324, "-4.94065646e-324"),
        (-0.0, "0"),
        (math.inf, "inf"),
    ])
    def test_edges(self, value, text):
        assert fmt9(value) == text

    def test_table_rows_mix_formats_and_empty_cells(self):
        columns = (np.array([0.5, -0.0, math.nan, 2.0]),
                   np.array([[1e-5, math.nan], [-2.0, 1e6], [math.nan, math.nan],
                             [1.0, 1.0]]))
        assert _csv_rows(columns) == ("0.5,1.00000000e-05,\n0,-2,1.00000000e+06\n,,\n"
                                      "2,1,1")


def _scalar_rule(v: float) -> str:
    """The number rule written out one cell at a time: a reference for the
    column formatter."""
    v = float(v) + 0.0
    if v != 0.0 and (abs(v) < 1e-4 or abs(v) >= 1e6):
        return f"{v:.8e}"
    return f"{v:.9g}"


class TestScanCsv:
    # edge values of the two formats, -0.0, and negative scientific
    EDGES = [1e-4, math.nextafter(1e-4, 0.0), 1e6, math.nextafter(1e6, 0.0),
             -0.0, 0.0, 5e-324, -5e-324, -3.25e-7, -math.nextafter(1e-4, 0.0),
             -1e-4, -2.5e8, -1e6, 0.1 + 0.2, math.pi, -1e300, 123456.789]

    def test_cells_equal_fmt9(self):
        # every edge value lands in every numeric column and in both event cells
        n = len(self.EDGES)
        columns = [np.roll(self.EDGES, j) for j in range(16)]
        scan = TimeScan(*columns[:8], region=np.array([1, 2] * n)[:n],
                        tie=np.zeros(n, dtype=bool),
                        thetas=np.column_stack(columns[8:12]),
                        phis=np.column_stack(columns[12:]))
        events = [{"kind": "SetJump", "t": t, "q2": q2}
                  for t, q2 in zip(self.EDGES, self.EDGES[::-1])]
        lines = _scan_csv(scan, {"version": "v", "events": events}).splitlines()
        for cell in (fmt9, _scalar_rule):
            expected = [",".join([cell(c[i]) for c in columns[:8]] + [str(scan.region[i])]
                                 + [cell(c[i]) for c in columns[8:]]) for i in range(n)]
            assert lines[2:2 + n] == expected
            assert lines[2 + n:] == [f"# event,SetJump,{cell(e['t'])},{cell(e['q2'])}"
                                     for e in events]

    def test_no_events(self):
        scan = TimeScan(*([np.array([0.5])] * 8), region=np.array([2]),
                        tie=np.array([False]), thetas=np.full((1, 4), 0.25),
                        phis=np.full((1, 4), -0.25))
        assert _scan_csv(scan, {"version": "v", "events": []}).splitlines()[2:] == [
            "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,2,0.25,0.25,0.25,0.25,"
            "-0.25,-0.25,-0.25,-0.25"]


class TestBmax:
    def test_bell_state(self, tmp_path, capsys):
        path = bell_file(tmp_path)
        assert main(["bmax", "--input", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bmax"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        assert doc["violates"] is True
        assert doc["region"] == 1 and doc["tie"] is True
        assert doc["u"] == pytest.approx([1.0, 1.0, 1.0], abs=1e-14)

    def test_werner_half_does_not_violate(self, tmp_path, capsys):
        path = write_state(tmp_path, x_to_dense(werner(0.5)).entries)
        assert main(["bmax", "--input", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bmax"] == pytest.approx(math.sqrt(2), abs=1e-12)
        assert doc["violates"] is False

    def test_non_x_entangled_routes_to_horodecki(self, tmp_path, capsys):
        ket = np.array([1.0, 1.0, 0.0, 1.0], dtype=complex) / math.sqrt(3)
        path = write_state(tmp_path, np.outer(ket, ket.conj()), "nonx.json")
        assert main(["bmax", "--input", path, "--format", "json"]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["region"] is None
        assert doc["bmax"] > 2.0  # pure entangled states always violate

    def test_invalid_matrix_exits_2(self, tmp_path, capsys):
        path = write_state(tmp_path, np.diag([0.6, 0.6, -0.1, -0.1]))
        assert main(["bmax", "--input", path, "--format", "json"]) == 2

    def test_negative_hermitian_part_exits_2(self, tmp_path, capsys):
        path = write_state(tmp_path, lower_triangle_fault())
        assert main(["bmax", "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: smallest eigenvalue -2.475e-10\n"

    def test_human_output(self, tmp_path, capsys):
        assert main(["bmax", "--input", bell_file(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "B_max = 2.82842712" in out
        assert "violates CHSH (B_max > 2): yes" in out


class TestHermiticityDefectBelowTolerance:
    """A defect below HERMITICITY_TOL passes validation, so every command
    must accept the state and answer as for its Hermitian part."""

    @pytest.mark.parametrize("cmd", [("bmax",), ("angles",),
                                     ("oracle-check", "--seed", "5")])
    def test_exit_0_and_same_output_as_hermitian_part(self, tmp_path, capsys, cmd):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = m[3, 3] = 0.5
        m[0, 3], m[3, 0] = 0.5j, -0.5j
        m[3, 0] += 4e-11
        defect = write_state(tmp_path, m, "defect.json")
        hermitian = write_state(tmp_path, 0.5 * (m + m.conj().T), "hermitian.json")
        outputs = []
        for path in (defect, hermitian):
            assert main([*cmd, "--input", path]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == outputs[1].err == ""
        assert outputs[0].out == outputs[1].out


class TestOffXTolInput:
    """A NaN or non-numeric tolerance is an input error, never an X verdict."""

    def non_x_file(self, tmp_path, raw_tol=None):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = 0.01
        path = write_state(tmp_path, m)
        if raw_tol is not None:
            text = (tmp_path / "state.json").read_text()
            (tmp_path / "state.json").write_text(
                text[:-1] + f', "off_x_tol": {raw_tol}}}')
        return path

    def test_nan_flag_exits_2(self, tmp_path, capsys):
        path = self.non_x_file(tmp_path)
        assert main(["bmax", "--input", path, "--off-x-tol", "nan",
                     "--format", "json"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("raw_tol", ["NaN", "null", "[1]", '"abc"', "true", '"0.5"'])
    def test_bad_json_tolerance_exits_2(self, tmp_path, capsys, raw_tol):
        path = self.non_x_file(tmp_path, raw_tol)
        assert main(["bmax", "--input", path, "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "off_x_tol" in captured.err

    def test_integer_beyond_float_range_exits_2(self, tmp_path, capsys):
        path = self.non_x_file(tmp_path, "1" + "0" * 400)
        assert main(["bmax", "--input", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: 'off_x_tol' is out of range: "
                                "int too large to convert to float\n")


class TestStateFile:
    """A 'rho' cell is a list of exactly two JSON numbers."""

    @pytest.mark.parametrize("cell", [[0.5, 0.0, 99.0], [0.5], [], [True, False],
                                      [0.5, False], ["0.5", 0.0], {"0": 0.5, "1": 0.0}],
                             ids=["three", "one", "empty", "bools", "bool-im", "string",
                                  "object"])
    @pytest.mark.parametrize("command", ["bmax", "angles"])
    def test_malformed_cell_exits_2(self, tmp_path, capsys, command, cell):
        doc = {"rho": [[[0.25 if i == j else 0.0, 0.0] for j in range(4)]
                       for i in range(4)]}
        doc["rho"][1][1] = cell
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--input", str(path), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: 'rho' must be a 4x4 array of [re, im] pairs: "
                                "each cell must be a list of two numbers\n")

    @pytest.mark.parametrize("command", ["bmax", "angles"])
    def test_integer_beyond_float_range_names_rho(self, tmp_path, capsys, command):
        doc = {"rho": [[[0.25 if i == j else 0, 0] for j in range(4)] for i in range(4)]}
        doc["rho"][0][1] = [10 ** 400, 0]
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: 'rho' must be a 4x4 array of [re, im] pairs: "
                                "int too large to convert to float\n")

    def test_integer_cells_are_numbers(self, tmp_path, capsys):
        doc = {"rho": [[[1 if i == j == 0 else 0, 0] for j in range(4)] for i in range(4)]}
        path = tmp_path / "state.json"
        path.write_text(json.dumps(doc))
        assert main(["bmax", "--input", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["bmax"] == 2.0

    @pytest.mark.parametrize("command", ["bmax", "angles", "oracle-check", "scan"])
    def test_non_utf8_file_names_the_file(self, tmp_path, capsys, command):
        path = tmp_path / "state.json"
        path.write_bytes(b"\xff\xfe" + '{"rho": []}'.encode("utf-16-le"))
        argv = [command, "--input", str(path)]
        if command == "scan":
            argv += ["--qmodel", "exp:1", "--tmax", "1", "--samples", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path} is not valid JSON: 'utf-8' codec "
                                       "can't decode byte 0xff")
        assert captured.err.count("\n") == 1

    def test_file_size_cap(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        text = Path(bell_file(tmp_path)).read_text()
        path.write_text(text + " " * (cli.MAX_STATE_BYTES - len(text)))
        assert main(["bmax", "--input", str(path)]) == 0
        capsys.readouterr()
        path.write_text(text + " " * (cli.MAX_STATE_BYTES + 1 - len(text)))
        assert main(["bmax", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path} is larger than 1048576 bytes\n"

    @pytest.mark.parametrize("command", ["bmax", "angles", "oracle-check", "scan"])
    def test_missing_file_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "absent.json"
        argv = [command, "--input", str(path)]
        if command == "scan":
            argv += ["--qmodel", "exp:1", "--tmax", "1", "--samples", "2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: ")
        assert captured.err.count("\n") == 1


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["bmax", "--input", "STATE"],
        ["surface", "--grid", "3,3"],
    ], ids=["bmax", "surface"])
    @pytest.mark.parametrize("target", ["missing-dir", "dir"])
    def test_exits_2_with_one_error_line(self, tmp_path, capsys, argv, target):
        argv = [bell_file(tmp_path) if a == "STATE" else a for a in argv]
        output = tmp_path / "no" / "out.txt" if target == "missing-dir" else tmp_path
        assert main([*argv, "--output", str(output)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {output}: ")
        assert captured.err.count("\n") == 1


class TestAngles:
    def test_bell_state_reports_tied_set2(self, tmp_path, capsys):
        assert main(["angles", "--input", bell_file(tmp_path),
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["set"] == 1 and doc["tie"] is True
        assert doc["bell_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-10)
        alt = doc["tied_alternative"]
        assert alt["set"] == 2
        assert alt["phi"][2] == pytest.approx(math.pi / 4, abs=1e-12)
        assert alt["phi"][3] == pytest.approx(-math.pi / 4, abs=1e-12)

    def test_ewl_pure_state_set1(self, tmp_path, capsys):
        path = write_state(tmp_path, x_to_dense(ewl_state(EWLParams(0.3, 1.0))).entries)
        assert main(["angles", "--input", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["set"] == 1 and doc["tie"] is False
        assert doc["theta"][2] == pytest.approx(
            math.pi / 2 + math.atan(math.sqrt(1.0 / 0.84)), abs=1e-12)
        assert doc["bell_value"] == pytest.approx(2 * math.sqrt(1.84), abs=1e-10)

    def test_maximally_mixed_degenerate(self, tmp_path, capsys):
        path = write_state(tmp_path, np.eye(4) / 4)
        assert main(["angles", "--input", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bell_value"] == pytest.approx(0.0, abs=1e-14)
        assert doc["violates"] is False

    def test_non_x_exits_3(self, tmp_path, capsys):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = 0.01
        path = write_state(tmp_path, m)
        assert main(["angles", "--input", path, "--format", "json"]) == 3

    def test_off_x_tol_flag_overrides(self, tmp_path, capsys):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = 0.01
        path = write_state(tmp_path, m)
        assert main(["angles", "--input", path, "--off-x-tol", "0.02",
                     "--format", "json"]) == 0

    def test_degrees_display(self, tmp_path, capsys):
        assert main(["angles", "--input", bell_file(tmp_path), "--degrees"]) == 0
        out = capsys.readouterr().out
        assert "(deg)" in out and "90" in out

    def test_self_certifying_output(self, tmp_path, capsys):
        from bellopt import AngleSettings, Region, bell_function, validate_density_matrix

        rng = np.random.default_rng(44)
        from conftest import random_x_state

        x = random_x_state(rng)
        path = write_state(tmp_path, x_to_dense(x).entries)
        assert main(["angles", "--input", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        settings = AngleSettings(tuple(doc["theta"]), tuple(doc["phi"]),
                                 set_id=Region(doc["set"]))
        reevaluated = bell_function(x_to_dense(x), settings.bell_settings())
        assert reevaluated == pytest.approx(doc["bell_value"], abs=1e-9)


class TestScan:
    def test_csv_layout_and_events(self, tmp_path):
        out = tmp_path / "scan.csv"
        assert main(["scan", "--ewl", "0.3,1,0", "--qmodel", "exp:1.0",
                     "--tmax", "5", "--samples", "400",
                     "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# bellopt scan")
        assert lines[1] == ("t,q2,u1,u2,u3,B1,B2,bmax,active_set,"
                            "theta1,theta1p,theta2,theta2p,phi1,phi1p,phi2,phi2p")
        events = [l.split(",") for l in lines if l.startswith("# event")]
        kinds = [e[1] for e in events]
        assert kinds.count("SetJump") == 2
        assert kinds.count("ViolationOff") == 1
        roots = crossing_roots(EWLParams(0.3, 1.0))
        jump_ts = sorted(float(e[2]) for e in events if e[1] == "SetJump")
        expected_ts = sorted(-math.log(x) for x in roots)
        assert jump_ts == pytest.approx(expected_ts, abs=1e-7)

    def test_json_format(self, tmp_path, capsys):
        assert main(["scan", "--ewl", "0.5,0.9,0", "--qmodel", "exp:0.5",
                     "--tmax", "4", "--samples", "50", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 50
        row = doc["rows"][0]
        assert row["t"] == 0.0 and row["q2"] == 1.0
        assert row["bmax"] == pytest.approx(0.9 * 2 * math.sqrt(2), abs=1e-12)
        assert [e["kind"] for e in doc["events"]].count("ViolationOff") == 1
        assert sorted(doc) == ["events", "rows", "version"]  # no "warnings"

    def test_werner_violation_off_matches_root_finding(self, tmp_path, capsys):
        # independent oracle: bisection on horodecki(evolved dense) - 2
        from bellopt import ExponentialModel, apply_amplitude_damping, horodecki_bmax

        rho0 = x_to_dense(werner(0.9))
        model = ExponentialModel(1.0)

        def g(t):
            return horodecki_bmax(apply_amplitude_damping(rho0, model.q(t))) - 2.0

        lo, hi = 0.0, 2.0
        assert g(lo) > 0 > g(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        t_oracle = 0.5 * (lo + hi)

        assert main(["scan", "--ewl", "0.5,0.9,0", "--qmodel", "exp:1.0",
                     "--tmax", "3", "--samples", "300", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        offs = [e for e in doc["events"] if e["kind"] == "ViolationOff"]
        assert len(offs) == 1
        assert offs[0]["t"] == pytest.approx(t_oracle, abs=1e-7)

    def test_two_row_grid_reports_both_set_jumps(self, tmp_path, capsys):
        # a 2-row grid holds both jumps in its one interval; no annotation
        assert main(["scan", "--ewl", "0.3,1,0", "--qmodel", "exp:1.0",
                     "--tmax", "5", "--samples", "2"]) == 0
        out = capsys.readouterr().out
        assert [l.split(",")[1] for l in out.splitlines() if l.startswith("# event")
                ].count("SetJump") == 2
        assert "# warning" not in out
        assert out.splitlines()[-1].startswith("# event,")

    def test_pair_between_probes_is_found(self, capsys):
        # strong coupling: |q|^2 barely rises through the set-2 level at
        # t ~ 1.12, a 5 ms window that 100 samples of a probe grid missed
        assert main(["scan", "--ewl", "0.446,0.814,0", "--qmodel", "lorentz:0.9,17.92",
                     "--tmax", "8", "--samples", "100", "--format", "json"]) == 0
        events = json.loads(capsys.readouterr().out)["events"]
        assert [e["kind"] for e in events] == ["SetJump", "ViolationOff", "SetJump",
                                               "SetJump", "SetJump"]
        assert 1.11 < events[3]["t"] < events[4]["t"] < 1.13

    @pytest.mark.parametrize("config", [
        ("--ewl", "0.3,1,0", "--qmodel", "exp:1.0", "--tmax", "5"),
        ("--ewl", "0.6,0.95,0.7", "--qmodel", "lorentz:5.0,0.5", "--tmax", "8"),
        ("--ewl", "0.5,0.8,0.4", "--qmodel", "lorentz:1.0,5.0", "--tmax", "6"),
        ("--ewl", "0.3,1,0", "--qmodel", f"table:{GOLDEN / 'q_table.csv'}",
         "--tmax", "6"),
    ], ids=["exp", "weak", "strong", "table"])
    def test_events_independent_of_samples(self, capsys, config):
        runs = []
        for samples in ("2", "3", "60", "500"):
            assert main(["scan", *config, "--samples", samples,
                         "--format", "json"]) == 0
            runs.append(json.loads(capsys.readouterr().out)["events"])
        assert runs[0] and all(run == runs[0] for run in runs)

    def test_too_many_monotone_pieces_exit_2(self, capsys):
        t0 = time.perf_counter()
        assert main(["scan", "--ewl", "0.3,1,0", "--qmodel", "lorentz:1e-9,1e9",
                     "--tmax", "1e9", "--samples", "5"]) == 2
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: |q(t)|^2 has 450158159 monotone pieces up to "
                                "t = 1000000000.0, more than 1000000\n")

    def test_markov_limit_of_a_broad_lorentzian(self, capsys):
        assert main(["scan", "--ewl", "0.3,1,0", "--qmodel", "lorentz:1e17,1",
                     "--tmax", "5", "--samples", "3", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [row["q2"] for row in doc["rows"]] == pytest.approx(
            [1.0, math.exp(-2.5), math.exp(-5.0)], rel=1e-12)
        assert [e["kind"] for e in doc["events"]] == ["SetJump", "ViolationOff",
                                                      "SetJump"]

    def test_table_model(self, tmp_path, capsys):
        table = tmp_path / "q.csv"
        table.write_text("t,q_re,q_im\n0,1,0\n5,1,0\n")
        assert main(["scan", "--ewl", "0.5,1,0", "--qmodel", f"table:{table}",
                     "--tmax", "5", "--samples", "10", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["events"] == []

    def test_initial_state_from_density_file(self, tmp_path, capsys):
        path = write_state(tmp_path, x_to_dense(werner(0.95)).entries)
        assert main(["scan", "--input", path, "--qmodel", "exp:1.0",
                     "--tmax", "3", "--samples", "120", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["rows"][0]["bmax"] == pytest.approx(
            0.95 * 2 * math.sqrt(2), abs=1e-12)
        assert [e["kind"] for e in doc["events"]].count("ViolationOff") == 1

    @pytest.mark.parametrize("rho11", [1e-310, 1e-320, 5e-324])
    def test_subnormal_rho11_scans_like_zero(self, tmp_path, capsys, rho11):
        outputs = []
        for r11 in (rho11, 0.0):
            m = np.diag([r11, 0.5, 0.5, 0.0]).astype(complex)
            m[1, 2] = m[2, 1] = 0.5
            assert main(["scan", "--input", write_state(tmp_path, m), "--qmodel", "exp:1",
                         "--tmax", "5", "--samples", "11", "--format", "json"]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].err == outputs[1].err == ""
        events = json.loads(outputs[0].out)["events"]
        assert events == json.loads(outputs[1].out)["events"]
        assert [e["kind"] for e in events] == ["ViolationOff", "SetJump"]

    def test_config_errors_exit_2(self, tmp_path):
        assert main(["scan", "--ewl", "0.3,1,0", "--qmodel", "exp:1.0",
                     "--tmax", "5", "--samples", "1"]) == 2
        assert main(["scan", "--ewl", "0.3,1,0", "--qmodel", "bogus:1",
                     "--tmax", "5", "--samples", "10"]) == 2
        assert main(["scan", "--qmodel", "exp:1.0",
                     "--tmax", "5", "--samples", "10"]) == 2
        assert main(["scan", "--ewl", "2.0,1,0", "--qmodel", "exp:1.0",
                     "--tmax", "5", "--samples", "10"]) == 2

    def test_too_many_samples_exit_2_before_allocating(self, capsys):
        t0 = time.perf_counter()
        assert main(["scan", "--ewl", "0.3,0.9,0", "--qmodel", "exp:1", "--tmax", "5",
                     "--samples", "1000000000000000"]) == 2
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --samples must be <= 1000000\n"

    def test_weak_coupling_long_horizon(self, capsys):
        # cosh/sinh of the Lorentzian amplitude overflow at t ~ 145 here
        assert main(["scan", "--ewl", "0.3,1,0", "--qmodel", "lorentz:10,0.1",
                     "--tmax", "400", "--samples", "5"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("tmax", ["inf", "-inf", "nan"])
    def test_non_finite_tmax_exits_2(self, capsys, tmax):
        assert main(["scan", "--ewl", "0.3,1,0", "--qmodel", "exp:1",
                     f"--tmax={tmax}", "--samples", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --tmax must be finite and > 0\n"

    @pytest.mark.parametrize("flag,value,message", [
        ("--qmodel", "exp:nan", "gamma must be finite and > 0, got nan"),
        ("--qmodel", "exp:inf", "gamma must be finite and > 0, got inf"),
        ("--qmodel", "lorentz:nan,1", "lam must be finite and > 0, got nan"),
        ("--qmodel", "lorentz:1,inf", "gamma0 must be finite and > 0, got inf"),
        ("--ewl", "0.3,1,nan", "delta must be finite, got nan"),
        ("--qmodel", "lorentz:1e200,1",
         "lam^2 - 2*gamma0*lam overflows for lam = 1e+200, gamma0 = 1.0"),
        ("--qmodel", "lorentz:1e300,1e-12",
         "lam^2 - 2*gamma0*lam overflows for lam = 1e+300, gamma0 = 1e-12"),
    ])
    def test_non_finite_model_and_state_flags_exit_2(self, capsys, flag, value,
                                                     message):
        argv = ["scan", "--ewl", "0.3,1,0", "--qmodel", "exp:1",
                "--tmax", "5", "--samples", "3"]
        argv[argv.index(flag) + 1] = value
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad {flag} {value!r}: {message}\n"

    def test_non_finite_table_and_density_exit_2(self, tmp_path, capsys):
        table = tmp_path / "q.csv"
        table.write_text("t,q_re,q_im\n0,1,0\n1,nan,0\n2,0.5,0\n")
        assert main(["scan", "--ewl", "0.5,1,0", "--qmodel", f"table:{table}",
                     "--tmax", "2", "--samples", "3"]) == 2
        assert "sample 1 is not finite" in capsys.readouterr().err
        state = tmp_path / "nan.json"
        rho = [[[0.25 if i == j else 0.0, 0.0] for j in range(4)] for i in range(4)]
        state.write_text(json.dumps({"rho": rho}).replace("0.25", "NaN", 1))
        assert main(["scan", "--input", str(state), "--qmodel", "exp:1",
                     "--tmax", "2", "--samples", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: matrix has a non-finite entry\n"

    @pytest.mark.parametrize("row,message", [
        ("1,0.5", "line 3: expected 3 fields, got 2"),
        ("1,0.5,0,7", "line 3: expected 3 fields, got 4"),
        ("1," + "0" * 131073 + ",0", "line 3: field larger than field limit (131072)"),
        ("0.5,abc,0", "line 3: could not convert string to float: 'abc'"),
    ], ids=["short", "long", "huge-field", "not-a-number"])
    def test_malformed_table_row_exits_2(self, tmp_path, capsys, row, message):
        table = tmp_path / "q.csv"
        table.write_text(f"t,q_re,q_im\n0,1,0\n{row}\n2,0.5,0\n")
        spec = f"table:{table}"
        assert main(["scan", "--ewl", "0.5,1,0", "--qmodel", spec,
                     "--tmax", "2", "--samples", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: bad --qmodel {spec!r}: {message}\n"

    @pytest.mark.parametrize("text", ["", "time,q_re,q_im\n0,1,0\n1,0.5,0\n"],
                             ids=["empty", "wrong-header"])
    def test_table_without_the_header_exits_2(self, tmp_path, capsys, text):
        table = tmp_path / "q.csv"
        table.write_text(text)
        spec = f"table:{table}"
        assert main(["scan", "--ewl", "0.5,1,0", "--qmodel", spec,
                     "--tmax", "1", "--samples", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: bad --qmodel {spec!r}: "
                                "expected CSV header 't,q_re,q_im'\n")

    def test_non_x_input_exits_3(self, tmp_path, capsys):
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = 0.01
        assert main(["scan", "--input", write_state(tmp_path, m), "--qmodel", "exp:1",
                     "--tmax", "1", "--samples", "3"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: state is not X-structured (off-pattern entry "
                                "(0, 1) has magnitude 1.000e-02)\n")

    def test_table_shorter_than_tmax_exits_2(self, tmp_path):
        table = tmp_path / "q.csv"
        table.write_text("t,q_re,q_im\n0,1,0\n2,0.5,0\n")
        assert main(["scan", "--ewl", "0.5,1,0", "--qmodel", f"table:{table}",
                     "--tmax", "5", "--samples", "10"]) == 2

    def test_table_with_a_byte_order_mark(self, tmp_path):
        table = tmp_path / "q.csv"
        table.write_bytes(b"\xef\xbb\xbf" + (GOLDEN / "q_table.csv").read_bytes())
        case = next(c for c in GOLDEN_CASES if c["name"] == "scan-table-csv")
        argv = [f"table:{table}" if a == "table:q_table.csv" else a for a in case["argv"]]
        assert run_golden(argv) == (0, (GOLDEN / "scan-table-csv.out").read_text())

    def test_table_bad_byte_names_its_line(self, tmp_path, capsys):
        table = tmp_path / "q.csv"
        table.write_bytes(b"t,q_re,q_im\n0,1,0\n1,0.5\xff,0\n2,0.5,0\n")
        spec = f"table:{table}"
        assert main(["scan", "--ewl", "0.5,1,0", "--qmodel", spec,
                     "--tmax", "2", "--samples", "3"]) == 2
        assert capsys.readouterr().err == (
            f"error: bad --qmodel {spec!r}: line 3: 'utf-8' codec can't decode "
            "byte 0xff in position 5: invalid start byte\n")

    def test_table_stops_at_the_row_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_PIECES", 3)
        table = tmp_path / "q.csv"
        # five samples, one over the cap of MAX_PIECES + 1, then a bad row
        table.write_text("t,q_re,q_im\n0,1,0\n1,0.9,0\n\n2,0.8,0\n3,0.7,0\n"
                         "4,0.6,0\nnot,a,row\n")
        spec = f"table:{table}"
        assert main(["scan", "--ewl", "0.5,1,0", "--qmodel", spec,
                     "--tmax", "2", "--samples", "3"]) == 2
        assert capsys.readouterr().err == (
            f"error: bad --qmodel {spec!r}: line 7: more than 4 samples\n")
        table.write_text("t,q_re,q_im\n0,1,0\n1,0.9,0\n2,0.8,0\n3,0.7,0\n\n")
        assert main(["scan", "--ewl", "0.5,1,0", "--qmodel", spec,
                     "--tmax", "2", "--samples", "3"]) == 0


class TestSurface:
    def test_exact_row(self, tmp_path):
        out = tmp_path / "surface.csv"
        assert main(["surface", "--grid", "10,10", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "alpha2,r,x_root1,x_root2"
        rows = {tuple(l.split(",")[:2]): l.split(",")[2:] for l in lines[2:]}
        # roots are computed exactly; cells carry the 9-significant-digit form
        assert rows[("0.5", "1")] == [fmt9(1.0 / 3.0), "1"]
        assert crossing_roots(EWLParams(0.5, 1.0)) == [1.0 / 3.0, 1.0]

    def test_alpha_zero_rows_empty(self, tmp_path):
        out = tmp_path / "surface.csv"
        assert main(["surface", "--grid", "4,4", "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        zero_rows = [l for l in lines[2:] if l.startswith("0,")]
        assert zero_rows and all(l.endswith(",,") for l in zero_rows)

    def test_bad_grid_exits_2(self):
        assert main(["surface", "--grid", "1,10"]) == 2
        assert main(["surface", "--grid", "abc"]) == 2

    def test_grid_over_the_cell_cap_exits_2_at_once(self, capsys):
        t0 = time.perf_counter()
        assert main(["surface", "--grid", "1000000000,1000000000"]) == 2
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --grid must have at most 1000000 cells, "
                                "got 1000000000 x 1000000000\n")


class TestOracleCheck:
    def test_bell_state(self, tmp_path, capsys):
        assert main(["oracle-check", "--input", bell_file(tmp_path),
                     "--grid-n", "6", "--restarts", "2", "--refine", "200",
                     "--seed", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["difference"]) <= 1e-4
        assert doc["certificate_margin"] <= 1e-6
        assert doc["is_x"] is True

    def test_werner_03(self, tmp_path, capsys):
        path = write_state(tmp_path, x_to_dense(werner(0.3)).entries)
        assert main(["oracle-check", "--input", path,
                     "--grid-n", "6", "--restarts", "2", "--refine", "200",
                     "--seed", "1", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["analytic_bmax"] == pytest.approx(0.3 * 2 * math.sqrt(2), abs=1e-12)
        assert doc["oracle_bmax"] == pytest.approx(doc["analytic_bmax"], abs=1e-4)

    def test_disagreement_exits_4_and_still_writes_the_document(self, tmp_path, capsys):
        # a coarse oracle (one start, no refinement) misses this Ginibre state's maximum
        path = write_state(tmp_path, random_density(np.random.default_rng(11)).entries)
        argv = ["oracle-check", "--input", path, "--grid-n", "4", "--restarts", "1",
                "--refine", "0", "--format", "json"]
        assert main(argv) == 4
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["is_x"] is False
        assert doc["difference"] == pytest.approx(-0.106, abs=1e-3)
        output = tmp_path / "oracle.json"
        assert main([*argv, "--output", str(output)]) == 4
        assert capsys.readouterr().out == ""
        assert output.read_text() == out

    def test_defaults_are_the_oracle_config_defaults(self, tmp_path, monkeypatch):
        configs = []

        def recording(rho, cfg):
            configs.append(cfg)
            return brute_force_bmax(rho, cfg)

        monkeypatch.setattr(cli, "brute_force_bmax", recording)
        assert main(["oracle-check", "--input", bell_file(tmp_path)]) == 0
        assert configs == [OracleConfig()]

    @pytest.mark.parametrize("seed", [str(2 ** 64), "-1"])
    def test_seed_outside_64_bits_exits_2(self, tmp_path, capsys, seed):
        assert main(["oracle-check", "--input", bell_file(tmp_path), "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: seed must fit in 64 bits\n"

    def test_corrupted_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["oracle-check", "--input", str(bad)]) == 2

    def test_grid_over_the_memory_budget_exits_2(self, tmp_path, capsys):
        assert main(["oracle-check", "--input", bell_file(tmp_path),
                     "--grid-n", "3000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: oracle search needs 576134368 bytes "
                                "(limit 268435456 bytes)\n")

    def test_restarts_over_the_memory_budget_exit_2_at_once(self, tmp_path, capsys):
        start = time.perf_counter()
        assert main(["oracle-check", "--input", bell_file(tmp_path),
                     "--restarts", str(10 ** 12)]) == 2
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: oracle search needs 128000001994880 bytes "
                                "(limit 268435456 bytes)\n")


_NUMBER = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([1e308, -1e308, 5e-324, 10 ** 400, 0, 1]),
)
_JUNK = st.one_of(st.none(), st.booleans(), st.text(max_size=3), _NUMBER,
                  st.dictionaries(st.sampled_from(["0", "1", "rho"]), _NUMBER,
                                  max_size=2))
_CELL = st.one_of(st.lists(_NUMBER, min_size=2, max_size=2),
                  st.lists(_JUNK, max_size=3), _JUNK)
_ROW = st.one_of(st.lists(_CELL, min_size=4, max_size=4), st.lists(_CELL, max_size=5),
                 _JUNK)
_RHO = st.one_of(st.lists(_ROW, min_size=4, max_size=4), st.lists(_ROW, max_size=5),
                 _JUNK)
_VALID = (
    np.diag([0.0, 0.5, 0.5, 0.0]) + np.fliplr(np.diag([0.0, 0.5, 0.5, 0.0])),
    np.eye(4) / 4.0,
    x_to_dense(werner(0.9)).entries,
    np.outer([0.6, 0.0, 0.48, 0.64], [0.6, 0.0, 0.48, 0.64]),  # pure, not X
)


@st.composite
def _valid_or_spoilt_rho(draw):
    """A valid density matrix, possibly with one component replaced or the
    whole matrix scaled."""
    m = np.array(draw(st.sampled_from(_VALID)), dtype=complex)
    rho = [[[z.real, z.imag] for z in row] for row in m]
    if draw(st.booleans()):
        i, j, k = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 1))
        rho[i][j][k] = draw(_NUMBER)
    elif draw(st.booleans()):
        scale = draw(st.sampled_from([1e300, -1.0, 1e-300, 2.0]))
        rho = [[[scale * v for v in cell] for cell in row] for row in rho]
    return rho


@st.composite
def _oracle_input(draw):
    """The text of an --input file: JSON of any shape, NaN/Infinity literals,
    huge magnitudes, optionally cut short."""
    rho = draw(st.one_of(_valid_or_spoilt_rho(), _RHO))
    doc = draw(st.one_of(
        st.fixed_dictionaries({"rho": st.just(rho)}),
        st.fixed_dictionaries({"rho": st.just(rho), "off_x_tol": _JUNK}),
        st.just(rho), _JUNK))
    text = json.dumps(doc)
    cut = draw(st.one_of(st.none(), st.integers(0, len(text))))
    return text if cut is None else text[:cut]


def _run_fuzzed(argv):
    """Run main in-process: a documented exit code, no traceback, a single
    `error:` line and no output on an error exit, within 10 s."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - t0 < 10.0
    assert "Traceback" not in err.getvalue()
    if err.getvalue():
        assert code in (2, 3)
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    return code, out.getvalue()


_SCAN_PARAM = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -1.0, math.nan, math.inf, 1e300, 1e-300, 1e308]),
)


@st.composite
def _scan_argv(draw):
    """scan flags: valid alpha2, r, delta, model parameters and tmax, with up
    to two of them replaced by any float (0, negative, NaN, inf, 1e+-300)."""
    values = [draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0)),
              draw(st.floats(-10.0, 10.0)), draw(st.floats(1e-3, 1e3)),
              draw(st.floats(1e-3, 1e3)),
              draw(st.one_of(st.floats(1e-3, 50.0), st.floats(0.0, 1e308)))]
    for _ in range(draw(st.integers(0, 2))):
        values[draw(st.integers(0, 5))] = draw(_SCAN_PARAM)
    alpha2, r, delta, p1, p2, tmax = values
    qmodel = draw(st.sampled_from([f"exp:{p1!r}", f"lorentz:{p1!r},{p2!r}"]))
    return ["scan", f"--ewl={alpha2!r},{r!r},{delta!r}", f"--qmodel={qmodel}",
            f"--tmax={tmax!r}", "--samples", str(draw(st.integers(2, 50))),
            "--format", "json"]


_GRID_DIM = st.one_of(st.integers(-3, 12), st.integers(10 ** 6, 10 ** 30)).map(str)


@st.composite
def _grid_spec(draw):
    """--grid text: two or any number of small or huge integers (so that a
    grid the cap lets through stays small), or junk without digits other
    than 0."""
    return draw(st.one_of(
        st.builds(lambda a, b: f"{a},{b}", _GRID_DIM, _GRID_DIM),
        st.lists(_GRID_DIM, max_size=3).map(",".join),
        st.text(alphabet=" ,-+_.e0x\n", max_size=8)))


class TestFuzz:
    """Fuzzed `scan`, `surface`, `bmax` and `angles` runs (`oracle-check`
    below)."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(argv=_scan_argv())
    @example(argv=["scan", "--ewl=0.3,1,0", "--qmodel=lorentz:1e-300,1e300",
                   "--tmax=1e308", "--samples", "50", "--format", "json"])
    @example(argv=["scan", "--ewl=0.5,1,0", "--qmodel=lorentz:1e150,1e-300",
                   "--tmax=1e308", "--samples", "2", "--format", "json"])
    @example(argv=["scan", "--ewl=0.3,1,0", "--qmodel=exp:1e-300",
                   "--tmax=1e308", "--samples", "50", "--format", "json"])
    @example(argv=["scan", "--ewl=0.3,1,0", "--qmodel=exp:1e300",
                   "--tmax=1e-300", "--samples", "3", "--format", "json"])
    def test_scan(self, argv):
        code, out = _run_fuzzed(argv)
        assert code in (0, 2)
        if code == 0:
            assert len(json.loads(out)["rows"]) == int(argv[5])

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(grid=_grid_spec())
    @example(grid="1000,1001")
    @example(grid="2,500001")
    @example(grid="9" * 5000 + ",2")
    @example(grid="1e3,1e3")
    @example(grid="3,3,3")
    def test_surface_grid(self, grid):
        code, out = _run_fuzzed(["surface", f"--grid={grid}"])
        assert code in (0, 2)
        if code == 0:
            n_alpha, n_r = (int(v) for v in grid.split(","))
            assert len(out.splitlines()) == 2 + n_alpha * n_r

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(text=_oracle_input(), command=st.sampled_from(["bmax", "angles"]))
    def test_bmax_and_angles(self, tmp_path_factory, text, command):
        path = tmp_path_factory.getbasetemp() / "fuzz-state.json"
        path.write_text(text)
        code, out = _run_fuzzed([command, "--input", str(path), "--format", "json"])
        assert code in (0, 2, 3)
        if out:  # bmax reports a non-X state's Horodecki value with exit 3
            assert code == 0 or (code == 3 and command == "bmax")
            assert json.loads(out)["version"]


class TestOracleCheckFuzz:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(text=_oracle_input(), grid_n=st.integers(4, 5),
           refine=st.integers(0, 50), restarts=st.integers(1, 3))
    @example(text='{"rho": [[{"0": 1, "1": 0}]]}', grid_n=4, refine=0, restarts=1)
    @example(text='{"rho": ' + "[" * 10 ** 5 + "]" * 10 ** 5 + "}", grid_n=4, refine=0,
             restarts=1)
    def test_documented_exit_and_clean_error(self, tmp_path_factory, text, grid_n,
                                             refine, restarts):
        path = tmp_path_factory.getbasetemp() / "fuzz-state.json"
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["oracle-check", "--input", str(path), "--grid-n", str(grid_n),
                         "--refine", str(refine), "--restarts", str(restarts),
                         "--format", "json"])
        assert code in (0, 2, 3, 4)
        if code in (2, 3):
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""
            assert json.loads(out.getvalue())["certificate_margin"] >= 0.0
        assert "Traceback" not in err.getvalue()


class TestDeterminism:
    """Byte-identical machine output across repeated runs (fixed seeds)."""

    def golden_commands(self, tmp_path):
        bell = bell_file(tmp_path)
        return [
            ("bmax", "--input", bell, "--format", "json"),
            ("angles", "--input", bell, "--format", "json"),
            ("scan", "--ewl", "0.3,1,0", "--qmodel", "exp:1.0",
             "--tmax", "5", "--samples", "60", "--format", "csv"),
            ("scan", "--ewl", "0.5,0.8,0.4", "--qmodel", "lorentz:1.0,5.0",
             "--tmax", "6", "--samples", "40", "--format", "json"),
            ("surface", "--grid", "8,8"),
            ("oracle-check", "--input", bell, "--grid-n", "5",
             "--restarts", "2", "--refine", "100", "--seed", "7",
             "--format", "json"),
        ]

    def test_byte_identical_runs(self, tmp_path):
        for cmd in self.golden_commands(tmp_path):
            first = run_cli(*cmd)
            second = run_cli(*cmd)
            assert first.returncode == second.returncode == 0, first.stderr
            assert first.stdout == second.stdout
            assert first.stdout  # non-empty

    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c["name"])
    def test_golden_output(self, case):
        code, out = run_golden(case["argv"])
        assert code == case["exit"]
        assert out == (GOLDEN / f"{case['name']}.out").read_bytes().decode()

    @pytest.mark.parametrize("case", GOLDEN_CASES, ids=lambda c: c["name"])
    def test_golden_output_through_output_flag(self, case, tmp_path):
        output = tmp_path / "out"
        code, out = run_golden([*case["argv"], "--output", str(output)])
        assert code == case["exit"]
        assert out == ""
        golden = (GOLDEN / f"{case['name']}.out").read_bytes()
        if golden:
            assert output.read_bytes() == golden
        else:  # angles on a non-X state exits 3 before any result exists
            assert not output.exists()

    def test_console_entry_point_help(self):
        result = run_cli("--help")
        assert result.returncode == 0
        for sub in ("bmax", "angles", "scan", "surface", "oracle-check"):
            assert sub in result.stdout

    @pytest.mark.parametrize("command,default", [
        ("bmax", "human-readable text"), ("angles", "human-readable text"),
        ("scan", "csv"), ("surface", "csv"), ("oracle-check", "human-readable text")])
    def test_format_help_names_the_default(self, command, default):
        result = run_cli(command, "--help")
        assert result.returncode == 0
        assert f"(default: {default})" in " ".join(result.stdout.split())


if __name__ == "__main__":
    # Re-capture the golden outputs from the current code, optionally only the
    # cases whose name starts with a prefix:
    #   PYTHONPATH=src python tests/test_cli.py [NAME_PREFIX]
    prefix = sys.argv[1] if len(sys.argv) > 1 else ""
    for case in GOLDEN_CASES:
        if not case["name"].startswith(prefix):
            continue
        case["exit"], text = run_golden(case["argv"])
        (GOLDEN / f"{case['name']}.out").write_bytes(text.encode())
    (GOLDEN / "cases.json").write_text(json.dumps(GOLDEN_CASES, indent=1) + "\n")
