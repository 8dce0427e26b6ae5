"""The benchmark's per-layer rows name bellopt functions; a rename on the
bellopt side would silently drop a row, so every traced target must resolve."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    # read TARGETS from the source, so perfbench/ is neither imported nor
    # written to (no bytecode cache)
    tree = ast.parse(TRACER.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(target, "id", None) == "TARGETS" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


@pytest.mark.parametrize("name,module,attr", _targets(), ids=lambda v: str(v))
def test_traced_target_resolves(name, module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
    assert name.split(".")[0] == module.rsplit(".", 1)[-1]
