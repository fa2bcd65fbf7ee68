"""Inputs past what the JSON boundary can read or write exit 3 with a
schema error, never with a traceback, and leave no output file.

The int-string digit limit is pinned to the interpreter's default of
4,300 digits for each test, whatever the environment sets.
"""

from __future__ import annotations

import json
import sys

import pytest

from skewseries.cli import main
from skewseries.errors import SchemaError
from skewseries.iwasawa import MAX_TORSION_DEGREE
from skewseries.precision import PrecisionContext, _is_prime
from skewseries.serialize import load_object, make_context

DEFAULT_DIGITS = 4300


@pytest.fixture(autouse=True)
def default_digit_limit():
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(DEFAULT_DIGITS)
    yield
    sys.set_int_max_str_digits(before)


def _big_prime() -> int:
    """The least prime above 10**199: p**21 fits the limit, p**22 does not."""
    P = 10**199 + 1
    while not _is_prime(P):
        P += 2
    return P


def _refused(tmp_path, capsys, *argv) -> str:
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 3
    assert not any(tmp_path.glob("out*")) and not any(tmp_path.glob(".tmp-*"))
    return capsys.readouterr().err


def _series_obj() -> dict:
    rows = [["1" if j == a == 0 else "0" for a in range(3 - j)] for j in range(3)]
    return {"kind": "skew_series", "p": 3, "K": 3, "mode": "zp", "epsilon": "4", "rows": rows}


UNREADABLE = {
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "non-utf8": b'{"kind": "skew_series", "p": 3\xff}',
    "long-int": b'{"kind": "skew_series", "p": ' + b"7" * 5000 + b"}",
}


@pytest.mark.parametrize("name", sorted(UNREADABLE))
def test_unreadable_json_exits_3(tmp_path, capsys, name):
    src = tmp_path / "in.bin"
    src.write_bytes(UNREADABLE[name])
    err = _refused(tmp_path, capsys, "invert", "--in", str(src))
    assert err.startswith("skewseries: schema error: ") and "is not valid JSON" in err


@pytest.mark.parametrize("field", ["epsilon", "rows"])
def test_decimal_strings_past_the_digit_limit_exit_3(tmp_path, capsys, field):
    obj = _series_obj()
    big = "1" + "0" * 4999
    if field == "epsilon":
        obj["epsilon"], where = big, "skew_series.epsilon: "
    else:
        obj["rows"][0][0], where = big, "skew_series.rows[0][0]: "
    src = tmp_path / "in.json"
    src.write_text(json.dumps(obj))
    err = _refused(tmp_path, capsys, "invert", "--in", str(src))
    assert err.startswith("skewseries: schema error: " + where)


def test_context_whose_residues_cannot_be_printed_is_refused(tmp_path, capsys):
    P = _big_prime()
    err = _refused(tmp_path, capsys, "xi", "--p", str(P), "--K", "46", "--n", "1")
    assert "p**K must have at most 4300 decimal digits" in err
    out = tmp_path / "xi.json"
    assert main(["xi", "--p", str(P), "--K", "21", "--n", "1", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["kind"] == "coeff_series"


def test_digit_limit_follows_the_interpreter_setting():
    P = _big_prime()
    with pytest.raises(SchemaError):
        make_context("ctx", P, 22, "zp")
    assert make_context("ctx", P, 21, "zp") == PrecisionContext(P, 21)
    sys.set_int_max_str_digits(0)  # no limit
    assert make_context("ctx", P, 46, "zp") == PrecisionContext(P, 46)


def test_rank_growth_whose_lambda_cannot_be_printed_is_refused(tmp_path, capsys):
    # lambda_n = d*p**n + c: 3**9012 + 1 has 4,300 digits, 3**9013 has 4,301
    specs = {
        3: {"kind": "module_spec", "p": 3, "d": 1, "torsion_polys": [["0", "1"]]},
        1000003: {"kind": "module_spec", "p": 1000003, "d": 1},
    }
    for p, spec in specs.items():
        (tmp_path / f"spec{p}.json").write_text(json.dumps(spec))
    for p, n_max in ((3, 9013), (3, 9500), (1000003, 800)):
        err = _refused(tmp_path, capsys, "rankgrowth", "--n-max", str(n_max), "--K", "8",
                       "--in", str(tmp_path / f"spec{p}.json"))
        assert f"lambda_n for n <= {n_max} must have at most 4300 decimal digits" in err
    out = tmp_path / "ok.json"
    argv = ["rankgrowth", "--n-max", "9012", "--K", "8", "--in", str(tmp_path / "spec3.json")]
    assert main([*argv, "--out", str(out)]) == 0
    last = out.with_suffix(".csv").read_text().splitlines()[-1]
    assert last == f"9012,{3**9012 + 1},0"


def test_torsion_polynomial_above_the_degree_cap_is_refused(tmp_path, capsys):
    # refused while the spec is read, before rank growth starts
    def spec(degree: int) -> dict:
        F = ["0"] * degree + ["1"]
        return {"kind": "module_spec", "p": 3, "d": 1, "torsion_polys": [["3", "1"], F]}

    (tmp_path / "big.json").write_text(json.dumps(spec(MAX_TORSION_DEGREE + 1)))
    err = _refused(tmp_path, capsys, "rankgrowth", "--n-max", "2", "--K", "2",
                   "--in", str(tmp_path / "big.json"))
    assert f"torsion polynomial degree must be <= {MAX_TORSION_DEGREE}" in err
    assert len(load_object(spec(MAX_TORSION_DEGREE)).torsion_polys[1]) == MAX_TORSION_DEGREE + 1
