import importlib.util
import math
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bellopt import EWLParams, angles, crossing_roots

ROOT = Path(__file__).parent.parent


def test_branch_jump_data(tmp_path):
    output = tmp_path / "branches.csv"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, str(ROOT / "scripts" / "branch_jump_data.py"),
                    "--points", "50", "--output", str(output)],
                   check=True, capture_output=True, env=env)
    lines = output.read_text().splitlines()
    assert lines[0] == "q2,u1,u2,u3,B1,B2,bmax,active_set"
    assert len([line for line in lines[1:] if not line.startswith("#")]) == 50
    jumps = [line.split(",")[1] for line in lines if line.startswith("# jump,")]
    assert len(jumps) == 2
    assert jumps == [f"q2={root:.12g}" for root in crossing_roots(EWLParams(0.3, 1.0))]


def _load_differential():
    spec = importlib.util.spec_from_file_location("differential",
                                                  ROOT / "scripts" / "differential.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def differential_runs(tmp_path_factory):
    """Two runs of the differential script, as (path, seconds) each."""
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    runs = []
    for name in ("a.txt", "b.txt"):
        path = tmp_path_factory.mktemp("differential") / name
        start = time.perf_counter()
        subprocess.run([sys.executable, str(ROOT / "scripts" / "differential.py"),
                        "--write", str(path)], check=True, capture_output=True, env=env)
        runs.append((path, time.perf_counter() - start))
    return runs


def test_differential_runs_are_fast_and_byte_identical(differential_runs):
    (a, seconds_a), (b, seconds_b) = differential_runs
    assert max(seconds_a, seconds_b) < 10.0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert len(lines) >= 100_000
    # raised calls are records too
    assert any(" !NotXStructured " in line for line in lines)
    assert any(" !TraceNotOne " in line for line in lines)
    # the Bell value at both closed-form sets of every X state that has them
    states = {line.split()[0] for line in lines if " set1.set_id " in line}
    for k in (0, 1):
        valued = {line.split()[0] for line in lines
                  if re.match(rf"x\d+ bell_function\[{k}\] float ", line)}
        assert states and valued == states
    differential = _load_differential()
    assert differential.compare(str(a), str(b)) is None
    assert differential.main(["--compare", str(a), str(b)]) == 0


def test_differential_compare_runs_without_pythonpath(differential_runs, tmp_path):
    # comparing two record files needs neither bellopt nor numpy
    (a, _), (b, _) = differential_runs
    changed = tmp_path / "changed.txt"
    changed.write_text(a.read_text().replace(" float 0x", " float 0X", 1))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = str(ROOT / "scripts" / "differential.py")
    same = subprocess.run([sys.executable, script, "--compare", str(a), str(b)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (same.returncode, same.stderr) == (0, "")
    assert same.stdout == f"identical: {len(a.read_text().splitlines())} records\n"
    differs = subprocess.run([sys.executable, script, "--compare", str(a), str(changed)],
                             capture_output=True, text=True, env=env, cwd=tmp_path)
    assert (differs.returncode, differs.stderr) == (1, "")
    assert differs.stdout.endswith("1 records differ in 1 states\n")


def test_differential_reports_a_one_ulp_change(differential_runs, tmp_path, monkeypatch):
    wrap = angles._wrap

    def shifted(phi):  # one ulp up, of a float or of each array entry
        out = wrap(phi)
        if isinstance(out, np.ndarray):
            return np.nextafter(out, np.inf)
        return math.nextafter(out, math.inf)
    monkeypatch.setattr(angles, "_wrap", shifted)
    differential = _load_differential()
    changed = tmp_path / "changed.txt"
    differential.write(str(changed))
    reference = differential_runs[0][0]
    report = differential.compare(str(reference), str(changed))
    assert report is not None
    # every differing pair, three lines each, then their count
    *pairs, count = report.splitlines()
    ref_lines, changed_lines = reference.read_text().splitlines(), changed.read_text().splitlines()
    assert len(ref_lines) == len(changed_lines)
    differing = [(a, b) for a, b in zip(ref_lines, changed_lines) if a != b]
    labels = [a.rsplit(" ", 2)[0] for a, _ in differing]
    assert labels == [b.rsplit(" ", 2)[0] for _, b in differing]
    assert len(differing) > 1 and len(pairs) == 3 * len(differing)
    assert pairs[::3] == [f"{label} differs:" for label in labels]
    assert pairs[1::3] == [f"  {reference}: {a}" for a, _ in differing]
    assert pairs[2::3] == [f"  {changed}: {b}" for _, b in differing]
    states = {re.split(r"[ .\[]", label)[0] for label in labels}
    assert count == f"{len(differing)} records differ in {len(states)} states"
    assert labels[0] == "x0 set1.phis[0]"
    # _wrap moves only phis, and with them the Bell value at the settings
    assert all(".phis[" in label or " bell_function[" in label for label in labels)
    assert any(" bell_function[" in label for label in labels)
    assert differential.main(["--compare", str(reference), str(changed)]) == 1


def test_differential_pairs_records_by_label(tmp_path, capsys):
    # x1 is rejected in a and accepted in b: only x1's records differ, although
    # every later line of b sits at another position
    later = ["x2.rho11 float 0x1.0000000000000p-1", "x2 set1.set_id Region SET1",
             "surface[0][0] float nan"]
    a = ["x0.rho11 float 0x1.0000000000000p-2",
         "x1 !NotPositive smallest eigenvalue -1.005e-10", *later]
    b = ["x0.rho11 float 0x1.0000000000000p-2", "x1.rho11 float 0x1.0000000000000p-1",
         "x1.rho14.re float 0x1.0000000000000p-1", *later]
    path_a, path_b = tmp_path / "a.txt", tmp_path / "b.txt"
    path_a.write_text("\n".join(a) + "\n")
    path_b.write_text("\n".join(b) + "\n")
    differential = _load_differential()
    assert differential.compare(str(path_a), str(path_b)).splitlines() == [
        "x1 differs:", f"  {path_a}: {a[1]}", f"  {path_b}: <absent>",
        "x1.rho11 differs:", f"  {path_a}: <absent>", f"  {path_b}: {b[1]}",
        "x1.rho14.re differs:", f"  {path_a}: <absent>", f"  {path_b}: {b[2]}",
        "3 records differ in 1 states",
    ]
    assert differential.main(["--compare", str(path_a), str(path_b)]) == 1
    assert differential.compare(str(path_b), str(path_b)) is None
    assert differential.main(["--compare", str(path_b), str(path_b)]) == 0
    assert capsys.readouterr().out.endswith("identical: 6 records\n")


_SHIFTED_WRAP = '''

_wrap_exact = _wrap


def _wrap(phi):  # one ulp up, of a float or of each array entry
    import numpy as np

    out = _wrap_exact(phi)
    return math.nextafter(out, math.inf) if isinstance(out, float) else np.nextafter(out, np.inf)
'''


@pytest.fixture
def scratch_clone(tmp_path):
    """A clone of this repository's HEAD, holding this checkout's
    scripts/differential.py; skips outside a git checkout."""
    if shutil.which("git") is None or subprocess.run(
            ["git", "rev-parse", "--git-dir"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("not a git checkout (or no git): --against reads src/ from git")
    clone = tmp_path / "clone"
    subprocess.run(["git", "clone", "--quiet", str(ROOT), str(clone)], check=True)
    shutil.copy(ROOT / "scripts" / "differential.py", clone / "scripts" / "differential.py")
    return clone


def _against(clone, rev):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(clone / "scripts" / "differential.py"),
                           "--against", rev], cwd=clone, capture_output=True, text=True,
                          env=env)


def test_differential_against_head_of_a_clean_checkout_is_identical(scratch_clone):
    run = _against(scratch_clone, "HEAD")
    assert (run.returncode, run.stderr) == (0, "")
    assert re.fullmatch(r"identical: \d+ records\n", run.stdout)


def test_differential_against_reports_a_one_ulp_commit(scratch_clone):
    angles_py = scratch_clone / "src" / "bellopt" / "angles.py"
    angles_py.write_text(angles_py.read_text() + _SHIFTED_WRAP)
    git = ["git", "-c", "user.name=test", "-c", "user.email=test@example.invalid",
           "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "commit", "--quiet", "-am", "shift _wrap by one ulp"],
                   cwd=scratch_clone, check=True)
    run = _against(scratch_clone, "HEAD~1")
    assert (run.returncode, run.stderr) == (1, "")
    lines = run.stdout.splitlines()
    assert lines[0] == "x0 set1.phis[0] differs:"
    assert lines[1].startswith("  HEAD~1: x0 set1.phis[0] float ")
    assert lines[2].startswith("  src: x0 set1.phis[0] float ")
    assert lines[1].rsplit(" ", 1)[1] != lines[2].rsplit(" ", 1)[1]
    labels = lines[:-1:3]
    assert all(".phis[" in label or " bell_function[" in label for label in labels)
    assert re.fullmatch(rf"{len(labels)} records differ in \d+ states", lines[-1])


def test_differential_against_an_unknown_revision_exits_2(scratch_clone):
    run = _against(scratch_clone, "no-such-revision")
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error: git archive no-such-revision failed: ")
