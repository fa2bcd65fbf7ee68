"""The benchmark's output checks accept real outputs and reject corrupted ones.

Run with ``PYTHONPATH=src python -m pytest perfbench/test_checks.py``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path
from random import Random

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from skewseries import CoeffSeries, SkewSeries, cli  # noqa: E402
from skewseries.weierstrass import DistinguishedPoly  # noqa: E402

SEED = 7


def flip(f: SkewSeries, j: int = 0, a: int = 0) -> SkewSeries:
    """f with one stored digit changed."""
    rows = [list(r) for r in f.rows]
    rows[j][a] += 1
    return SkewSeries(f.sd, rows)


def flip_coeff(c: CoeffSeries, a: int = 0) -> CoeffSeries:
    vals = list(c.coeffs)
    vals[a] += 1
    return CoeffSeries(c.ctx, vals)


def job(cls):
    wl = cls(SEED)
    x = wl.make(Random(SEED), 0)
    out = wl.run(x)
    assert wl.check(x, out) == []
    return wl, x, list(out)


def rejects(wl, x, out, i, value):
    bad = list(out)
    bad[i] = value
    return wl.check(x, tuple(bad)) != []


def test_ring_check_rejects_corruption():
    wl, x, out = job(workloads.Ring)
    fg, v, f_back, pooled_back = out
    assert rejects(wl, x, out, 1, flip(v, 3, 1))
    assert rejects(wl, x, out, 2, flip(f_back, 5))
    assert rejects(wl, x, out, 3, flip(pooled_back, 0, 7))
    assert rejects(wl, x, out, 0, flip(fg, 2, 4))
    # a change by p leaves the residue image alone, but not associativity
    rows = [list(r) for r in fg.rows]
    rows[4][0] += 3
    assert rejects(wl, x, out, 0, SkewSeries(fg.sd, rows))


def test_weierstrass_check_rejects_corruption():
    wl, x, out = job(workloads.Weierstrass)
    eps, F, q, rem = out
    assert rejects(wl, x, out, 2, flip(q, 1, 2))
    assert rejects(wl, x, out, 3, flip(rem, 1))
    assert rejects(wl, x, out, 3, rem + wl.sd.y(2))
    assert rejects(wl, x, out, 0, flip(eps, 0, 3))
    lower = (F.lower[0] + 3,) + F.lower[1:]
    assert rejects(wl, x, out, 1, DistinguishedPoly(F.sd, F.degree, lower))


def test_iwasawa_linalg_check_rejects_corruption():
    wl, x, out = job(workloads.IwasawaLinalg)
    growth, degrees, r, u, w, qo, remo = out
    assert rejects(wl, x, out, 0, dataclasses.replace(growth, c=growth.c + 1))
    table = list(growth.table)
    table[2] = (2, table[2][1], True)
    assert rejects(wl, x, out, 0, dataclasses.replace(growth, table=tuple(table)))
    assert rejects(wl, x, out, 1, degrees[:2] + degrees[1:])
    assert rejects(wl, x, out, 2, flip_coeff(r, 20))
    assert rejects(wl, x, out, 4, flip(w, 0, 1))
    assert rejects(wl, x, out, 5, flip(qo, 1))
    assert rejects(wl, x, out, 6, flip(remo, 0, 2))


@pytest.fixture(scope="module")
def cli_outputs(tmp_path_factory):
    wl = workloads.Cli(SEED, tmp_path_factory.mktemp("cli"))
    outs = {}
    for name, argv in wl.jobs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        outs[name] = (code, buf.getvalue().encode(), wl.read_outputs(name))
        assert wl.check(name, *outs[name]) == [], name
    return wl, outs


def _edit_json(files: dict, edit) -> dict:
    obj = json.loads(files["json"])
    edit(obj)
    return dict(files, json=json.dumps(obj).encode())


def _bump(digits: list, a: int = 0) -> None:
    """Change one stored residue to another canonical residue."""
    digits[a] = "1" if digits[a] == "0" else "0"


EDITS = {
    "prepare": lambda o: _bump(o["eps"]["rows"][0], 1),
    "divide": lambda o: _bump(o["q"]["rows"][1]),
    "invert": lambda o: _bump(o["rows"][2]),
    "xi": lambda o: _bump(o["coeffs"], 2),
    "omega": lambda o: _bump(o["coeffs"], 3),
    "descend": lambda o: _bump(o["r"]["coeffs"], 4),
    "rankgrowth": lambda o: o.update(c=o["c"] + 1),
    "axioms": lambda o: o["report"]["checks"][0].update(failures=1),
}


@pytest.mark.parametrize("name", sorted(EDITS))
def test_cli_check_rejects_corruption(cli_outputs, name):
    wl, outs = cli_outputs
    code, stdout, files = outs[name]
    assert wl.check(name, code, stdout, _edit_json(files, EDITS[name])) != []
    assert wl.check(name, 1, stdout, files) != []
    assert wl.check(name, code, stdout, dict(files, json=b"{")) != []


def test_cli_check_rejects_corrupted_side_outputs(cli_outputs):
    wl, outs = cli_outputs
    code, stdout, files = outs["rankgrowth"]
    csv = files["csv"].replace(b"3,30,0", b"3,31,0")
    assert csv != files["csv"]
    assert wl.check("rankgrowth", code, stdout, dict(files, csv=csv)) != []
    code, stdout, files = outs["axioms"]
    assert wl.check("axioms", code, stdout.replace(b": ok", b": FAILED (1x)", 1), files) != []
