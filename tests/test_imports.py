"""Every module of the package, the tests and the benchmark uses each name it
imports at module level; a name listed in the module's ``__all__`` counts as
used, since the module re-exports it."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = (ROOT / "src" / "skewseries", ROOT / "tests", ROOT / "perfbench")


def exported(tree: ast.Module) -> set[str]:
    """The names of a literal module-level ``__all__``; none for a computed one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            try:
                return set(ast.literal_eval(node.value))
            except ValueError:
                return set()
    return set()


def unused_imports(source: str, where: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported(tree)
    return [f"{where}:{line}: {name}" for name, line in imported.items() if name not in used]


def test_no_unused_module_level_imports():
    modules = sorted(p for d in DIRS for p in d.glob("*.py"))
    assert {p.parent for p in modules} == set(DIRS)
    unused = [u for p in modules for u in unused_imports(p.read_text(), str(p.relative_to(ROOT)))]
    assert unused == []


def test_an_export_counts_as_used():
    source = 'from os import path, sep\nimport json\n__all__ = ["sep"]\n'
    assert unused_imports(source, "m.py") == ["m.py:1: path", "m.py:2: json"]
