import importlib.util
import math
import os
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
    differential = _load_differential()
    assert differential.compare(str(a), str(b)) is None
    assert differential.main(["--compare", str(a), str(b)]) == 0


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
    assert report is not None and report.startswith("record ")
    # every differing pair, three lines each, then their count
    *pairs, count = report.splitlines()
    ref_lines, changed_lines = reference.read_text().splitlines(), changed.read_text().splitlines()
    assert len(ref_lines) == len(changed_lines)
    differing = [n for n, (a, b) in enumerate(zip(ref_lines, changed_lines), 1) if a != b]
    assert len(differing) > 1 and len(pairs) == 3 * len(differing)
    assert pairs[::3] == [f"record {n} differs:" for n in differing]
    assert count == f"{len(differing)} records differ"
    first, second = pairs[1:3]
    assert first.split()[1:3] == second.split()[1:3] == ["x0", "set1.phis[0]"]
    assert all(".phis[" in line for line in pairs[1::3])  # _wrap moves only phis
    assert differential.main(["--compare", str(reference), str(changed)]) == 1
