import ast
import re
import sys
from pathlib import Path

import pytest

import bellopt

ROOT = Path(__file__).parent.parent


@pytest.mark.parametrize("name", bellopt.__all__)
def test_exported_name_resolves(name):
    assert getattr(bellopt, name) is not None


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
