"""Frozen CLI outputs: `invert`, `prepare` and `divide` byte for byte.

Every case under ``tests/golden/`` is an input file, the exit code and
stderr of one CLI run on it, and the bytes that run wrote to ``--out``.
The inputs come from fixed seeds and are stored, so the corpus does not
move when the random generators in ``util`` do.  Each fast path that
replaces an algorithm behind these subcommands must reproduce the bytes.

Regenerate the corpus only at a commit whose output is the reference:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr
from pathlib import Path
from random import Random

import pytest

from skewseries import build_skew, write_json_atomic
from skewseries.cli import main
from skewseries.precision import CHARP, INTEGRAL, PrecisionContext
from skewseries.serialize import dump_division_problem, dump_series

from util import rand_reduced_order, rand_series, rand_unit

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"


def _inputs() -> dict[str, tuple[str, dict]]:
    """Case name -> (subcommand, input object), drawn from fixed seeds."""
    cases: dict[str, tuple[str, dict]] = {}
    for i, (p, K, mode, eps) in enumerate(
        ((2, 5, INTEGRAL, 3), (3, 8, INTEGRAL, 4), (5, 6, CHARP, 6))
    ):
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        u = rand_unit(sd, Random(f"golden-invert-{i}"))
        cases[f"invert-{i}"] = ("invert", dump_series(u))
    for i, (p, K, mode, eps, s) in enumerate(
        ((3, 6, INTEGRAL, 4, 2), (2, 5, INTEGRAL, 3, 1), (5, 4, CHARP, 6, 3))
    ):
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        f = rand_reduced_order(sd, Random(f"golden-prepare-{i}"), s)
        cases[f"prepare-{i}"] = ("prepare", dump_series(f))
    for i, (p, K, mode, eps, s) in enumerate(
        ((3, 4, INTEGRAL, 4, 2), (2, 5, INTEGRAL, 3, 1), (5, 4, CHARP, 6, 0))
    ):
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        rng = Random(f"golden-divide-{i}")
        f = rand_reduced_order(sd, rng, s)
        g = rand_series(sd, rng)
        cases[f"divide-{i}"] = ("divide", dump_division_problem(g, f))
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    nonunit = rand_reduced_order(sd, Random("golden-invert-nonunit"), 1)
    cases["invert-nonunit"] = ("invert", dump_series(nonunit))
    return cases


def _run(subcommand: str, infile: Path, outfile: Path) -> int:
    return main([subcommand, "--in", str(infile), "--out", str(outfile), "--seed", "7"])


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def _names() -> list[str]:
    return sorted(f.name.removesuffix(".in.json") for f in GOLDEN.glob("*.in.json"))


@pytest.mark.parametrize("name", _names())
def test_cli_output_matches_golden_bytes(name, tmp_path, capsys):
    case = _manifest()[name]
    out = tmp_path / "out.json"
    code = _run(case["subcommand"], GOLDEN / f"{name}.in.json", out)
    assert (code, capsys.readouterr().err) == (case["exit"], case["stderr"])
    expected = GOLDEN / f"{name}.out.json"
    if expected.exists():
        assert out.read_bytes() == expected.read_bytes()
    else:
        assert not out.exists()


def test_golden_corpus_is_complete():
    assert sorted(_manifest()) == _names() == sorted(_inputs())


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    manifest = {}
    for name, (subcommand, obj) in _inputs().items():
        infile = GOLDEN / f"{name}.in.json"
        write_json_atomic(str(infile), obj)
        err = io.StringIO()
        with redirect_stderr(err):
            code = _run(subcommand, infile, GOLDEN / f"{name}.out.json")
        manifest[name] = {"subcommand": subcommand, "exit": code, "stderr": err.getvalue()}
    write_json_atomic(str(MANIFEST), manifest)
