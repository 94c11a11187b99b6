"""The benchmark tracer's targets exist where it patches them.

``benchmarks/tracing.py`` replaces each callable in its TARGETS table and
looks it up in its owner's ``__dict__``, so renaming or deleting one breaks
traced benchmark runs.  The table is read with ``ast``, without importing
the benchmark.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "tracing.py"


def tracer_targets():
    tree = ast.parse(TRACING.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACING}")


@pytest.mark.parametrize("module, attr_path, span", tracer_targets())
def test_target_is_in_its_owners_dict(module, attr_path, span):
    owner = importlib.import_module(f"ibquant.{module}")
    *class_path, attr = attr_path.split(".")
    for part in class_path:
        owner = getattr(owner, part)
    assert attr in owner.__dict__, f"{span}: ibquant.{module}.{attr_path} is gone"
    assert callable(owner.__dict__[attr])
