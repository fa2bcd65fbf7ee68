"""Every function that ``perfbench/layers.py`` profiles by name exists,
and every attribute it reads off a ``SkewData`` is one of its slots.

The per-layer trace reads its figures off a profile by (file, function
name).  A renamed or deleted function would make that layer fall back
to another workload's figures without any error, and a renamed slot
would break only a traced run, so the names are checked here against
the source, without importing the tracer.
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



def _named(nodes, kind, name: str):
    (node,) = [n for n in nodes if isinstance(n, kind) and n.name == name]
    return node


def test_skew_data_reads_are_slots():
    # the twist-cache figures read SkewData internals off the `sd` objects
    # of `_twist_entries`; a renamed slot would break only a traced run
    layers = ast.parse((ROOT / "perfbench" / "layers.py").read_text())
    reads = {
        node.attr
        for node in ast.walk(_named(layers.body, ast.FunctionDef, "_twist_entries"))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "sd"
    }
    skew_data = _named(ast.parse((SRC / "skew.py").read_text()).body, ast.ClassDef, "SkewData")
    (slots,) = [
        ast.literal_eval(stmt.value)
        for stmt in skew_data.body
        if isinstance(stmt, ast.Assign) and [getattr(t, "id", None) for t in stmt.targets] == ["__slots__"]
    ]
    assert reads  # today `_derived` and `_twist`
    assert reads <= set(slots), f"perfbench/layers.py reads {sorted(reads - set(slots))} off a SkewData"
