import os
import subprocess
import sys
from pathlib import Path

from bellopt import EWLParams, crossing_roots

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
