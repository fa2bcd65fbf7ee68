"""``tools/ab.py``: the working tree against itself, and a refused pair.

The base copy is loaded from the working tree's own ``src`` under another
top-level name, so no git is needed.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def ab():
    """tools/ab.py as a module; the package copies it loads are dropped afterwards."""
    before = set(sys.modules)
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in set(sys.modules) - before:
        if name.split(".")[0] == module.BASE_NAME:
            del sys.modules[name]


def test_working_tree_against_itself(ab, capsys):
    assert ab.main(["--base-dir", str(ROOT), "--pairs", "3", "tiny"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == ab.HEADER
    name, base_ms, new_ms, ratio, wins, iqr = row.split()
    assert name == "tiny" and wins.endswith("/3") and 0 <= int(wins[:-2]) <= 3
    assert float(base_ms) > 0 and float(new_ms) > 0 and float(ratio) > 0
    q1, q3 = map(float, iqr.split("-"))
    assert 0 < q1 <= float(ratio) <= q3
    # both copies ran: the base is its own package, not the working tree's
    base = sys.modules[ab.BASE_NAME]
    assert base.divide.__module__ == f"{ab.BASE_NAME}.weierstrass"
    assert base.divide is not sys.modules["skewseries"].divide


def test_sides_that_disagree_are_refused(ab, capsys):
    base = ab.load_package(ROOT / "src")
    import skewseries

    def leaky(pkg):  # each side returns its own package's name
        return lambda: pkg.__name__

    with pytest.raises(ab.Disagree):
        ab.compare(leaky, base, skewseries, pairs=2)
    ab.CELLS["leaky"] = leaky
    try:
        assert ab.main(["--base-dir", str(ROOT / "src"), "--pairs", "2", "leaky"]) == 1
    finally:
        del ab.CELLS["leaky"]
    assert "refused: leaky: outputs differ in pair 1" in capsys.readouterr().err
