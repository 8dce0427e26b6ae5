import ast
import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import bellopt

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("name", bellopt.__all__)
def test_exported_name_resolves(name):
    # the package hands out the object its defining module holds, not a copy
    module = bellopt
    if name in bellopt._NAMES:
        module = import_module(f"bellopt.{bellopt._NAMES[name]}")
    assert getattr(bellopt, name) is getattr(module, name) is not None


PUBLIC_API = {
    "__version__",
    "DensityMatrix4", "XState", "BellSettings", "StateValidationError", "NotHermitian",
    "TraceNotOne", "NotPositive", "NotXStructured", "validate_density_matrix",
    "as_x_state", "x_to_dense", "pauli_correlation_matrix",
    "Region", "BellEigenvalues", "TSIRELSON", "bell_function", "x_state_eigenvalues",
    "horodecki_eigenvalues", "horodecki_bmax",
    "AngleSettings", "settings_set1", "settings_set2", "optimal_settings",
    "settings_distance",
    "OracleConfig", "OracleResult", "BudgetExceeded", "Splitmix64", "brute_force_bmax",
    "certify_settings",
    "ExponentialModel", "LorentzianModel", "TabulatedModel", "QModel", "EWLParams",
    "EventKind", "ScanEvent", "TimeScan", "apply_amplitude_damping", "evolve_x",
    "ewl_state", "trajectory_coefficients", "crossing_levels", "crossing_roots",
    "time_scan", "scan_events",
}


def test_public_api_is_pinned():
    assert len(PUBLIC_API) == 47
    assert len(bellopt.__all__) == len(set(bellopt.__all__))
    assert set(bellopt.__all__) == PUBLIC_API


@pytest.mark.parametrize("module,name", [
    ("states", "ObservableDirection"),
    ("states", "normalize_direction"),
    ("chsh", "correlation"),
    ("chsh", "bmax_x"),
])
def test_removed_names_are_gone(module, name):
    # one name per concept: BellSettings carries directions, bell_function the traces,
    # BellEigenvalues the Bell maximum
    with pytest.raises(AttributeError):
        getattr(bellopt, name)
    with pytest.raises(AttributeError):
        getattr(import_module(f"bellopt.{module}"), name)


def test_angle_settings_has_no_from_angles():
    assert not hasattr(bellopt.AngleSettings, "from_angles")


def test_a_state_holds_rows_alone():
    rho = bellopt.validate_density_matrix([[0.25 if i == j else 0 for j in range(4)]
                                           for i in range(4)])
    assert not hasattr(rho, "entries")
    assert vars(rho) == {"rows": rho.rows}


def test_numpy_is_the_only_runtime_dependency():
    # every absolute import in the package is the standard library or numpy
    imported = set()
    for path in sorted((ROOT / "src" / "bellopt").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {alias.name.partition(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    assert "numpy" in imported
    assert imported - sys.stdlib_module_names == {"numpy"}
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    names = [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in project["project"]["dependencies"]]
    assert names == ["numpy"]


def _loaded_after(code: str) -> set[str]:
    """The numpy and bellopt modules a fresh interpreter holds after code."""
    wrapper = (code + "\nimport sys\nprint(' '.join(m for m in sys.modules"
               " if m == 'numpy' or m.startswith('bellopt.')))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", wrapper], capture_output=True, text=True,
                         env=env, cwd=ROOT / "tests" / "golden", check=True)
    return set(run.stdout.splitlines()[-1].split())


LAZY = {"numpy", "bellopt.dynamics", "bellopt.oracle"}


@pytest.mark.parametrize("argv", [
    ["bmax", "--input", "states/randx1.json"],
    ["bmax", "--input", "states/randx1.json", "--format", "json"],
    ["angles", "--input", "states/tie.json"],
    ["angles", "--input", "states/tie.json", "--format", "json", "--degrees"],
], ids=" ".join)
def test_bmax_and_angles_on_x_states_load_no_numpy_dynamics_or_oracle(argv):
    loaded = _loaded_after(f"from bellopt.cli import main\nassert main({argv!r}) == 0")
    assert "bellopt.cli" in loaded
    assert not loaded & LAZY


@pytest.mark.parametrize("argv,wanted", [
    (["scan", "--ewl", "0.3,1,0", "--qmodel", "exp:1", "--tmax", "1", "--samples", "3"],
     {"numpy", "bellopt.dynamics"}),
    (["oracle-check", "--input", "states/randx1.json"], {"numpy", "bellopt.oracle"}),
], ids=lambda v: v[0] if isinstance(v, list) else "")
def test_scan_and_oracle_check_load_only_their_module(argv, wanted):
    loaded = _loaded_after(f"from bellopt.cli import main\nassert main({argv!r}) == 0")
    assert loaded & LAZY == wanted


def test_import_loads_no_submodule_and_no_numpy():
    assert _loaded_after("import bellopt") == set()


def test_malformed_lists_load_no_numpy():
    code = ("from bellopt import StateValidationError, validate_density_matrix\n"
            "for bad in ([[1, 0, 0], [0, 0]], [0.25] * 4, [[[0.25, 0.0]] * 4] * 4):\n"
            "    try:\n"
            "        validate_density_matrix(bad)\n"
            "    except StateValidationError:\n"
            "        continue\n"
            "    raise AssertionError(bad)")
    assert _loaded_after(code) == {"bellopt.states"}


def test_x_states_load_no_numpy():
    # one accepted and one refused, by a coherence whose modulus is past float range,
    # and the repr of a dense completion and of a state built from nested lists
    code = ("from bellopt import DensityMatrix4, NotPositive, XState, x_to_dense\n"
            "x = XState(0.5, 0, 0, 0.5, 0.5, 0)\n"
            "assert repr(x_to_dense(x)).startswith('DensityMatrix4(rows=')\n"
            "assert repr(DensityMatrix4([[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0],"
            " [0.5, 0, 0, 0.5]])).startswith('DensityMatrix4(rows=')\n"
            "try:\n"
            "    XState(0.5, 0, 0, 0.5, complex(1.7e308, 1.7e308), 0)\n"
            "except NotPositive:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('accepted')")
    assert _loaded_after(code) == {"bellopt.states"}


MODULES = ("states", "chsh", "angles", "dynamics", "oracle")


def test_modules_resolve_as_attributes():
    for module in MODULES:
        assert getattr(bellopt, module) is import_module(f"bellopt.{module}")
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        bellopt.no_such_name


def test_every_exported_name_is_listed_by_dir():
    assert set(bellopt.__all__) <= set(dir(bellopt))
    assert set(MODULES) <= set(dir(bellopt))
