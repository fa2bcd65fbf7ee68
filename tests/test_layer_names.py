"""Every function that ``perfbench/layers.py`` profiles by name exists.

The per-layer trace reads its figures off a profile by (file, function
name).  A renamed or deleted function would make that layer fall back
to another workload's figures without any error, so the names are
checked here against the source, without importing the tracer.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "skewseries"


def _functions() -> dict[str, tuple[str, str]]:
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FUNCTIONS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py has no FUNCTIONS table")


def test_profiled_functions_are_defined():
    functions = _functions()
    assert functions
    for layer, (file, name) in functions.items():
        tree = ast.parse((SRC / file).read_text())
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert name in defined, f"{layer}: {file} defines no {name}"
