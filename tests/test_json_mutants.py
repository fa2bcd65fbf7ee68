"""Seeded JSON mutants of the golden inputs, run through ``cli.main``.

Every ``tests/golden/*.in.json`` that parses as JSON is mutated
``MUTANTS`` times at a fixed seed: one value at a random path is set to
one of ``VALUES``, or its key (or list entry) is deleted.  Each mutant
runs with the case's argv and must

* return an exit code in 0..3 and raise nothing;
* leave no ``--out`` file, nor the ``.csv`` beside it, after a nonzero
  exit, and no temporary file at all;
* exit 3 when a digit string (a residue, an epsilon, a torsion
  coefficient) was replaced by a non-canonical one, which ``int()``
  might still read: the run has no ``--normalize``.
"""

from __future__ import annotations

import copy
import json
import re
from pathlib import Path
from random import Random

import pytest

from skewseries.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
MUTANTS = 60
VALUES = [None, True, 0, -1, 2**70, "", "1\n", " 1", "٣", [], {}, [[]], 1.5]
NONCANONICAL = ("", "1\n", " 1", "٣")
DELETE = object()
_DIGITS = re.compile(r"-?[0-9]+")


def _cases() -> dict[str, tuple[list[str], dict]]:
    """Case name -> (argv, input object) for every golden input that is JSON."""
    manifest = json.loads((GOLDEN / "manifest.json").read_text())
    cases = {}
    for path in sorted(GOLDEN.glob("*.in.json")):
        try:
            obj = json.loads(path.read_text())
        except ValueError:
            continue
        name = path.name.removesuffix(".in.json")
        cases[name] = (manifest[name]["argv"], obj)
    return cases


def _paths(node, path=()):
    """The path of every value below node, the root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield (*path, key)
        yield from _paths(value, (*path, key))


def _mutants(obj: dict, rng: Random):
    """MUTANTS (mutant, old value, new value) triples; new is DELETE for a deletion."""
    paths = list(_paths(obj))
    for _ in range(MUTANTS):
        *head, last = rng.choice(paths)
        value = rng.choice([*VALUES, DELETE])
        mutant = copy.deepcopy(obj)
        holder = mutant
        for key in head:
            holder = holder[key]
        old = holder[last]
        if value is DELETE:
            del holder[last]
        else:
            holder[last] = value
        yield mutant, old, value


CASES = _cases()


@pytest.mark.parametrize("name", sorted(CASES))
def test_mutated_golden_input_exits_cleanly(name, tmp_path, capsys):
    argv, obj = CASES[name]
    infile = tmp_path / "in.json"
    rng = Random(f"json-mutants-{name}")
    for i, (mutant, old, new) in enumerate(_mutants(obj, rng)):
        infile.write_text(json.dumps(mutant))
        out = tmp_path / f"out-{i}.json"
        code = main([*argv, "--in", str(infile), "--out", str(out)])
        capsys.readouterr()
        what = f"{name} mutant {i}: {old!r} -> {'deleted' if new is DELETE else repr(new)}"
        assert code in (0, 1, 2, 3), what
        if code:
            assert not out.exists() and not out.with_suffix(".csv").exists(), what
        if isinstance(old, str) and _DIGITS.fullmatch(old) and new in NONCANONICAL:
            assert code == 3, what
    assert not list(tmp_path.glob(".tmp-*")), name
