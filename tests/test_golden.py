"""Frozen CLI outputs, byte for byte.

Every case under ``tests/golden/`` is one CLI run: its argv, exit code,
stdout and stderr in the manifest, and the bytes it wrote to ``--out``
(and, for ``rankgrowth``, to the ``.csv`` beside it).  Runs of
``invert``, ``prepare``, ``divide``, ``descend`` and ``rankgrowth`` read
an input file, which comes from fixed seeds and is stored, so the corpus
does not move when the random generators in ``util`` do.  Runs of
``selfcheck``, ``axioms``, ``xi`` and ``omega`` take no input file; their
argv says it all.  Each fast path that replaces an algorithm behind these
subcommands must reproduce the bytes.

The ``error-*`` cases freeze the failure paths: exit 3 for malformed
JSON, a non-canonical residue without ``--normalize``, operands over
different contexts and a bad flag; exit 2 for a strict rank growth whose
pivots fall in the guard band; exit 1 for ``prepare`` on a series with no
visible unit.  An input given as text is stored as is (it need not be
JSON); the path of the input file is written ``<in>`` in the manifest,
and usage lines are formatted at 80 columns, so the corpus does not
depend on where the checkout lives or on the terminal.

This module runs every case in-process through ``main()``: the fast check,
and the twin of the regenerator below.  ``test_cold_start.py`` runs every
case again in a fresh ``python -X dev -W error`` process, where a leaked
file handle or any other warning changes stderr.  Both compare a run with
the corpus through ``_check_case``.

Regenerate the corpus only at a commit whose output is the reference:

    PYTHONPATH=src:tests python tests/test_golden.py
"""

from __future__ import annotations

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest

from skewseries import CoeffSeries, ModuleSpec, SkewSeries, build_skew, write_json_atomic
from skewseries.cli import main
from skewseries.precision import CHARP, INTEGRAL, PrecisionContext
from skewseries.serialize import (
    canonical_json,
    dump_division_problem,
    dump_module_spec,
    dump_series,
    dump_z_poly,
    write_text_atomic,
)

from util import rand_coeff, rand_reduced_order, rand_series, rand_unit

GOLDEN = Path(__file__).resolve().parent / "golden"
MANIFEST = GOLDEN / "manifest.json"


def _inputs() -> dict[str, tuple[list[str], dict | str | None]]:
    """Case name -> (argv without --in/--out, input object, text or None)."""
    cases: dict[str, tuple[list[str], dict | str | None]] = {}
    for i, (p, K, mode, eps) in enumerate(
        ((2, 5, INTEGRAL, 3), (3, 8, INTEGRAL, 4), (5, 6, CHARP, 6))
    ):
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        u = rand_unit(sd, Random(f"golden-invert-{i}"))
        cases[f"invert-{i}"] = (["invert", "--seed", "7"], dump_series(u))
    for i, (p, K, mode, eps, s) in enumerate(
        ((3, 6, INTEGRAL, 4, 2), (2, 5, INTEGRAL, 3, 1), (5, 4, CHARP, 6, 3))
    ):
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        f = rand_reduced_order(sd, Random(f"golden-prepare-{i}"), s)
        cases[f"prepare-{i}"] = (["prepare", "--seed", "7"], dump_series(f))
    for i, (p, K, mode, eps, s) in enumerate(
        ((3, 4, INTEGRAL, 4, 2), (2, 5, INTEGRAL, 3, 1), (5, 4, CHARP, 6, 0))
    ):
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        rng = Random(f"golden-divide-{i}")
        f = rand_reduced_order(sd, rng, s)
        g = rand_series(sd, rng)
        cases[f"divide-{i}"] = (["divide", "--seed", "7"], dump_division_problem(g, f))
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    nonunit = rand_reduced_order(sd, Random("golden-invert-nonunit"), 1)
    cases["invert-nonunit"] = (["invert", "--seed", "7"], dump_series(nonunit))
    sd = build_skew(PrecisionContext(3, 6, INTEGRAL), 4)
    rng = Random("golden-descend-0")
    zpoly = [rand_coeff(sd.ctx, rng) for _ in range(3)]
    cases["descend-0"] = (["descend", "--seed", "7"], dump_z_poly(sd, zpoly))
    sd = build_skew(PrecisionContext(3, 10, CHARP), 4)
    rng = Random("golden-descend-1")
    zpoly = [rand_coeff(sd.ctx, rng) for _ in range(3)]
    cases["descend-1"] = (["descend", "--seed", "7"], dump_z_poly(sd, zpoly))
    # the middle coefficients lie in m**4, so they vanish after one step
    # and the descent records fewer steps than the degree
    sd = build_skew(PrecisionContext(3, 8, INTEGRAL), 4)
    rng = Random("golden-descend-2")
    zpoly = [rand_coeff(sd.ctx, rng) for _ in range(5)]
    zpoly = [zpoly[0], *(3**4 * c for c in zpoly[1:]), CoeffSeries.one(sd.ctx)]
    cases["descend-2"] = (["descend", "--seed", "7"], dump_z_poly(sd, zpoly))
    spec2 = ModuleSpec(2, d=1, torsion_polys=((2, 0, 1), (0, 4, 6, 4, 1)), p_power_ranks=(3,))
    cases["rankgrowth-1"] = (
        ["rankgrowth", "--seed", "7", "--n-max", "4", "--K", "10"],
        dump_module_spec(spec2),
    )
    spec = ModuleSpec(
        3, d=1, torsion_polys=((0, 1), (3, 3, 1), (3, 1)), p_power_ranks=(2,)
    )
    cases["rankgrowth-0"] = (
        ["rankgrowth", "--seed", "7", "--n-max", "3", "--K", "8"],
        dump_module_spec(spec),
    )
    cases["selfcheck-42"] = (["selfcheck", "--seed", "42"], None)
    cases["axioms-0"] = (["axioms", "--p", "3", "--K", "6", "--epsilon", "4", "--seed", "5"], None)
    cases["xi-0"] = (["xi", "--p", "3", "--K", "8", "--n", "2"], None)
    cases["omega-0"] = (["omega", "--p", "2", "--K", "7", "--mode", "fp", "--n", "3"], None)
    cases["omega-1"] = (["omega", "--p", "3", "--K", "9", "--n", "2"], None)
    cases["omega-2"] = (["omega", "--p", "1000003", "--K", "6", "--n", "1"], None)
    cases["xi-1"] = (["xi", "--p", "5", "--K", "8", "--mode", "fp", "--n", "1"], None)
    cases["xi-2"] = (["xi", "--p", "1000003", "--K", "6", "--n", "2"], None)

    invert = cases["invert-0"][1]
    cases["error-malformed-json"] = (["invert", "--seed", "7"], canonical_json(invert)[:40])
    noncanonical = json.loads(json.dumps(invert))
    noncanonical["rows"][0][0] = str(invert["p"] ** invert["K"])
    cases["error-noncanonical"] = (["invert", "--seed", "7"], noncanonical)
    sd4 = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    sd5 = build_skew(PrecisionContext(3, 5, INTEGRAL), 4)
    rng = Random("golden-error-mismatch")
    cases["error-context-mismatch"] = (
        ["divide", "--seed", "7"],
        {
            "kind": "division_problem",
            "dividend": dump_series(rand_series(sd4, rng)),
            "divisor": dump_series(rand_reduced_order(sd5, rng, 1)),
        },
    )
    cases["error-bad-flag"] = (["omega", "--p", "3", "--K", "four", "--n", "1"], None)
    cases["error-guard-band"] = (
        ["rankgrowth", "--seed", "7", "--n-max", "3", "--K", "4"],
        dump_module_spec(spec),
    )
    in_m = rand_series(sd4, Random("golden-error-no-unit"))
    in_m = SkewSeries(sd4, [[r[0] - r[0] % 3, *r[1:]] for r in in_m.rows])
    cases["error-no-visible-unit"] = (["prepare", "--seed", "7"], dump_series(in_m))
    return cases


def _run(argv: list[str], infile: Path | None, outfile: Path) -> int:
    inflag = ["--in", str(infile)] if infile is not None else []
    try:
        return main([*argv, *inflag, "--out", str(outfile)])
    except SystemExit as exc:  # argparse rejects a flag before main's handlers
        return exc.code


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def _infile(name: str) -> Path | None:
    infile = GOLDEN / f"{name}.in.json"
    return infile if infile.exists() else None


def _placeholder(text: str, infile: Path | None) -> str:
    return text.replace(str(infile), "<in>") if infile is not None else text


def _check_case(name: str, code: int, stdout: str, stderr: str, out: Path) -> None:
    """Assert that one run of case `name`, given ``--out out``, reproduced it:
    the exit code, stdout and stderr of the manifest, and the bytes of each
    output file the corpus holds; where it holds none, no file is left."""
    case = _manifest()[name]
    assert (code, stdout, _placeholder(stderr, _infile(name))) == (
        case["exit"], case["stdout"], case["stderr"]
    )
    for written, expected in (
        (out, GOLDEN / f"{name}.out.json"),
        (out.with_suffix(".csv"), GOLDEN / f"{name}.out.csv"),
    ):
        if expected.exists():
            assert written.read_bytes() == expected.read_bytes()
        else:
            assert not written.exists()


@pytest.mark.parametrize("name", sorted(_manifest()))
def test_cli_output_matches_golden_bytes(name, tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    out = tmp_path / "out.json"
    code = _run(_manifest()[name]["argv"], _infile(name), out)
    captured = capsys.readouterr()
    _check_case(name, code, captured.out, captured.err, out)


def test_golden_corpus_is_complete():
    inputs = _inputs()
    assert sorted(_manifest()) == sorted(inputs)
    with_input = sorted(f.name.removesuffix(".in.json") for f in GOLDEN.glob("*.in.json"))
    assert with_input == sorted(name for name, (_, obj) in inputs.items() if obj is not None)


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(exist_ok=True)
    for old in [*GOLDEN.glob("*.json"), *GOLDEN.glob("*.csv")]:
        old.unlink()
    manifest = {}
    for name, (argv, obj) in _inputs().items():
        infile = None
        if obj is not None:
            infile = GOLDEN / f"{name}.in.json"
            if isinstance(obj, str):
                write_text_atomic(str(infile), obj)
            else:
                write_json_atomic(str(infile), obj)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = _run(argv, infile, GOLDEN / f"{name}.out.json")
        manifest[name] = {
            "argv": argv,
            "exit": code,
            "stdout": out.getvalue(),
            "stderr": _placeholder(err.getvalue(), infile),
        }
    write_json_atomic(str(MANIFEST), manifest)
