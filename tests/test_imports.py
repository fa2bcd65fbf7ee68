"""Every module of the package, the tests and the benchmark uses each name it
imports at module level; a name listed in the module's ``__all__`` counts as
used, since the module re-exports it.  Every public function, method and
class of the package has a caller outside the tests, and every helper of
the tests has a caller among them."""

from __future__ import annotations

import ast
import re
import sys
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


def public_defs(tree: ast.Module):
    """(qualified name, def node) of each public module-level function and
    class, and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


def top_level_defs(tree: ast.Module):
    """(name, def node) of each module-level function and class, private or not."""
    return [(n.name, n) for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))]


def references(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of each name read, attribute taken, name imported, or
    identifier-shaped string (such as a profiled function's name)."""
    refs = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            refs.append((n.id, n.lineno))
        elif isinstance(n, ast.Attribute):
            refs.append((n.attr, n.lineno))
        elif isinstance(n, ast.alias):
            refs.append((n.name, n.lineno))
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            refs.append((n.value, n.lineno))
    return refs


def uncalled(
    package: dict[str, str], callers: dict[str, str], words: set[str], defs=public_defs
) -> list[str]:
    """The ``defs`` (public ones by default) of ``package`` (path -> code) that no
    line outside their own def refers to, in ``package`` or ``callers``, and
    that are not in ``words``."""
    trees = {path: ast.parse(code) for path, code in {**package, **callers}.items()}
    refs = {path: references(tree) for path, tree in trees.items()}
    out = []
    for path in package:
        for qual, node in defs(trees[path]):
            name = node.name
            inside = range(node.lineno, node.end_lineno + 1)
            if name in words or any(
                n == name and (where != path or line not in inside)
                for where, rs in refs.items() for n, line in rs
            ):
                continue
            out.append(f"{path}: {qual}")
    return out


def test_every_public_name_has_a_caller_outside_the_tests():
    def read(paths):
        return {str(p.relative_to(ROOT)): p.read_text() for p in paths}

    package, bench = read(sorted(DIRS[0].glob("*.py"))), read(sorted(DIRS[2].glob("*.py")))
    # README counts by its code (fenced blocks and inline spans), not its prose
    readme = re.findall(r"```.*?```|`[^`\n]+`", (ROOT / "README.md").read_text(), re.S)
    words = set(re.findall(r"\w+", "\n".join(readme)))
    assert uncalled(package, bench, words) == []


def test_a_call_inside_its_own_def_or_a_docstring_does_not_count():
    source = (
        "def loop(n):\n    return loop(n - 1)\n\n"
        "class C:\n    def used(self):\n        return 1\n\n"
        "    def spare(self):\n        return self.used()\n"
    )
    prose = {"b.py": '"""C, loop and spare."""\n'}
    assert uncalled({"m.py": source}, prose, set()) == ["m.py: loop", "m.py: C", "m.py: C.spare"]
    assert uncalled({"m.py": source}, {"b.py": "C().spare()\n"}, {"loop"}) == []


def imported_modules(tree: ast.AST) -> set[str]:
    """The top-level name of each module that ``tree`` imports, anywhere in it."""
    names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import) for a in n.names]
    names += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module]
    return {name.split(".")[0] for name in names}


def test_every_test_helper_and_its_defs_have_a_caller():
    """A module under tests/ not named test_*.py is imported by one there, and
    each function and class it defines is referred to outside its own def: an
    oracle left behind after its last caller moved away fails."""
    code = {str(p.relative_to(ROOT)): p.read_text() for p in sorted(DIRS[1].glob("*.py"))}
    helpers = {path: c for path, c in code.items() if not Path(path).name.startswith("test_")}
    tests = {path: c for path, c in code.items() if path not in helpers}
    imported = set().union(*(imported_modules(ast.parse(c)) for c in code.values()))
    assert [path for path in helpers if Path(path).stem not in imported] == []
    assert uncalled(helpers, tests, set(), top_level_defs) == []


def test_group_ring_oracle_imports_only_the_standard_library():
    # so the model shares no code with the package it checks
    tree = ast.parse((DIRS[1] / "group_ring_oracle.py").read_text())
    assert imported_modules(tree) <= sys.stdlib_module_names
