"""Command-line surface: subcommands, exit codes, deterministic artifacts."""

from __future__ import annotations

import json
import os
import stat

import pytest

from skewseries import (
    CoeffSeries,
    ModuleSpec,
    build_skew,
    dump_division_problem,
    dump_module_spec,
    dump_series,
    dump_z_poly,
    load_object,
    write_json_atomic,
)
from skewseries import series
from skewseries import cli
from skewseries.cli import _SUBCOMMANDS, build_parser, main
from skewseries.precision import INTEGRAL, MAX_PRECISION, PrecisionContext


def run(*argv):
    return main(list(argv))


def _write(tmp_path, obj: dict) -> str:
    """Path of in.json, holding obj."""
    src = tmp_path / "in.json"
    write_json_atomic(str(src), obj)
    return str(src)


def test_xi_stdout(capsys):
    assert run("xi", "--p", "2", "--K", "8", "--n", "1") == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["kind"] == "coeff_series"
    assert obj["coeffs"] == ["2", "1", "0", "0", "0", "0", "0", "0"]
    assert obj["subcommand"] == "xi" and obj["seed"] == 0 and obj["n"] == 1


def test_omega_out_file(tmp_path, capsys):
    out = tmp_path / "omega.json"
    assert run("omega", "--p", "3", "--K", "4", "--n", "1", "--out", str(out)) == 0
    capsys.readouterr()
    obj = json.loads(out.read_text())
    assert obj["coeffs"] == ["0", "3", "3", "1"]
    c = load_object(obj)
    assert c.coeffs == (0, 3, 3, 1)


def test_prepare_round_trip(tmp_path, capsys):
    sd = build_skew(PrecisionContext(3, 6, INTEGRAL), 4)
    f = (sd.one() + sd.y()) * (sd.y() - 3)
    src = _write(tmp_path, dump_series(f))
    out = tmp_path / "prep.json"
    assert run("prepare", "--in", src, "--out", str(out)) == 0
    capsys.readouterr()
    obj = json.loads(out.read_text())
    assert obj["subcommand"] == "prepare" and obj["seed"] == 0
    F = load_object(obj["F"])
    eps = load_object(obj["eps"])
    assert F.degree == 1
    assert F.lower[0] == CoeffSeries(sd.ctx, (726,))       # -3 mod 3^6
    assert eps * F.as_series() == f


def test_prepare_byte_determinism(tmp_path, capsys):
    sd = build_skew(PrecisionContext(3, 6, INTEGRAL), 4)
    f = (sd.one() + sd.y()) * (sd.y() - 3)
    src = _write(tmp_path, dump_series(f))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("prepare", "--in", src, "--out", str(a)) == 0
    assert run("prepare", "--in", src, "--out", str(b)) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_divide(tmp_path, capsys):
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    src = _write(tmp_path, dump_division_problem(sd.y(2), sd.y() - 3))
    assert run("divide", "--in", src) == 0
    obj = json.loads(capsys.readouterr().out)
    assert load_object(obj["q"]) == sd.y() + 3
    assert load_object(obj["rem"]) == sd.embed(9)


def test_divide_refuses_a_lift_above_the_limit(tmp_path, capsys):
    # reduced order s = 11 at K = 12 lifts to K' = 133 > MAX_PRECISION
    sd = build_skew(PrecisionContext(3, 12, INTEGRAL), 4)
    src, out = _write(tmp_path, dump_division_problem(sd.y(2), sd.y(11) + 3)), tmp_path / "o.json"
    assert run("divide", "--in", src, "--out", str(out)) == 3
    assert capsys.readouterr().err == (
        "skewseries: schema error: division refused: division by a divisor of reduced "
        f"order s = 11 at K = 12 lifts to K' = s*K + 1 = 133, above the limit {MAX_PRECISION}\n"
    )
    assert not out.exists()


def test_invert_unit_and_nonunit(tmp_path, capsys):
    sd = build_skew(PrecisionContext(2, 4, INTEGRAL), 3)
    u = sd.one() - sd.y()
    src = _write(tmp_path, dump_series(u))
    assert run("invert", "--in", src) == 0
    obj = json.loads(capsys.readouterr().out)
    inv = load_object(obj)
    assert inv * u == sd.one()
    assert obj["subcommand"] == "invert"

    _write(tmp_path, dump_series(sd.embed(2) + sd.y()))  # not a unit
    assert run("invert", "--in", src) == 1
    capsys.readouterr()


def test_descend(tmp_path, capsys):
    sd = build_skew(PrecisionContext(3, 6, INTEGRAL), 4)
    x = CoeffSeries.x(sd.ctx)
    src = _write(tmp_path, dump_z_poly(sd, [x, CoeffSeries.one(sd.ctx)]))
    assert run("descend", "--in", src) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["steps"] == 1
    assert load_object(obj["r"]).coeffs == (0, 0, 3, 6, 4, 1)


def test_rankgrowth_artifacts(tmp_path, capsys):
    src = _write(tmp_path, dump_module_spec(ModuleSpec(2, d=1, torsion_polys=((2, 1),))))
    out = tmp_path / "growth.json"
    args = ("rankgrowth", "--in", src, "--n-max", "3", "--K", "8", "--out", str(out))
    assert run(*args) == 0
    capsys.readouterr()
    summary = json.loads(out.read_text())
    assert (summary["d"], summary["c"], summary["stable_from"]) == (1, 1, 1)
    csv = (tmp_path / "growth.csv").read_text()
    assert csv == "n,lambda_n,flag\n0,1,0\n1,3,0\n2,5,0\n3,9,0\n"
    # deterministic artifacts byte-for-byte
    before = out.read_bytes(), (tmp_path / "growth.csv").read_bytes()
    assert run(*args) == 0
    capsys.readouterr()
    assert (out.read_bytes(), (tmp_path / "growth.csv").read_bytes()) == before


def test_rankgrowth_refuses_the_artifact_that_guard_1_cannot_flag(tmp_path, capsys):
    # the band (M - 1, M) of --guard 1 holds no valuation, but from n = 15
    # the precision-16 count 1 of F = X + 3 exceeds its exact rank 0
    src = _write(tmp_path, dump_module_spec(ModuleSpec(3, 0, [(3, 1)])))
    out = tmp_path / "growth.json"
    argv = ("rankgrowth", "--in", src, "--K", "16", "--out", str(out))
    assert run(*argv, "--n-max", "20", "--guard", "1") == 2
    assert capsys.readouterr().err == (
        "skewseries: precision error: a pivot valuation falls within 1 digits of the "
        "working precision 16; raise M to separate kernel from artifact\n"
    )
    assert not out.exists() and not (tmp_path / "growth.csv").exists()
    assert run(*argv, "--n-max", "14", "--guard", "1") == 0
    capsys.readouterr()
    assert (tmp_path / "growth.csv").read_text().endswith("14,0,0\n")


def test_out_files_follow_the_umask(tmp_path, capsys):
    src = _write(tmp_path, dump_module_spec(ModuleSpec(2, d=1, torsion_polys=((2, 1),))))
    old = os.umask(0o022)
    try:
        for umask in (0o022, 0o077, 0o002):
            os.umask(umask)
            om, growth = tmp_path / f"omega-{umask:o}.json", tmp_path / f"growth-{umask:o}.json"
            assert run("omega", "--p", "3", "--K", "4", "--n", "1", "--out", str(om)) == 0
            assert run("rankgrowth", "--in", src, "--n-max", "3", "--K", "8",
                       "--out", str(growth)) == 0
            for path in (om, growth, growth.with_suffix(".csv")):
                assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask
    finally:
        os.umask(old)
    capsys.readouterr()
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith(".tmp-")]


def test_precision_above_the_limit_is_refused(tmp_path, capsys):
    K = MAX_PRECISION + 1
    assert run("omega", "--p", "3", "--K", str(K), "--n", "1") == 3
    assert capsys.readouterr().err == (
        f"skewseries: schema error: invalid context: K must be <= {MAX_PRECISION}\n"
    )
    src = tmp_path / "one.json"
    rows = [["1" if j == a == 0 else "0" for a in range(K - j)] for j in range(K)]
    src.write_text(json.dumps(
        {"kind": "skew_series", "p": 3, "K": K, "mode": "zp", "epsilon": "4", "rows": rows}
    ))
    assert run("invert", "--in", str(src)) == 3
    assert capsys.readouterr().err == (
        f"skewseries: schema error: skew_series: K must be <= {MAX_PRECISION}\n"
    )


def test_rankgrowth_requires_out(tmp_path, capsys):
    src = _write(tmp_path, dump_module_spec(ModuleSpec(2, d=1)))
    assert run("rankgrowth", "--in", src, "--n-max", "3", "--K", "8") == 3
    capsys.readouterr()


def test_rankgrowth_refuses_an_out_path_that_is_its_own_csv(tmp_path, capsys):
    src = _write(tmp_path, dump_module_spec(ModuleSpec(2, d=1)))
    argv = ("rankgrowth", "--in", src, "--n-max", "3", "--K", "8")
    assert run(*argv, "--out", str(tmp_path / "g.csv")) == 3
    assert capsys.readouterr().err == (
        "skewseries: schema error: rankgrowth --out must not end in .csv "
        "(the CSV is written alongside)\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]


def test_rankgrowth_leaves_no_json_when_the_csv_cannot_be_written(tmp_path, capsys):
    src = _write(tmp_path, dump_module_spec(ModuleSpec(2, d=1)))
    argv = ("rankgrowth", "--in", src, "--n-max", "3", "--K", "8")
    (tmp_path / "g.csv").mkdir()
    assert run(*argv, "--out", str(tmp_path / "g.json")) == 3
    assert capsys.readouterr().err.startswith("skewseries: i/o error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv", "in.json"]


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


def run_interrupted(*argv):
    try:
        return run(*argv)
    except KeyboardInterrupt:  # escaping, it would stop the whole test session
        pytest.fail("KeyboardInterrupt escaped cli.main")


def test_interrupt_exits_130_and_leaves_no_file(tmp_path, capsys, monkeypatch):
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    src = _write(tmp_path, dump_series(sd.one() + sd.y()))
    monkeypatch.setattr(series, "_y_step", _interrupt)
    assert run_interrupted("invert", "--in", src, "--out", str(tmp_path / "inv.json")) == 130
    assert capsys.readouterr().err == "skewseries: interrupted\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]


def test_rankgrowth_interrupted_in_its_csv_write_leaves_no_json(tmp_path, capsys, monkeypatch):
    src = _write(tmp_path, dump_module_spec(ModuleSpec(2, d=1)))
    replace = os.replace

    def csv_interrupted(tmp, path):  # the .part file is written, then interrupted
        if str(path).endswith(".csv"):
            _interrupt()
        replace(tmp, path)

    monkeypatch.setattr(os, "replace", csv_interrupted)
    argv = ("rankgrowth", "--in", src, "--n-max", "3", "--K", "8")
    assert run_interrupted(*argv, "--out", str(tmp_path / "g.json")) == 130
    assert capsys.readouterr().err == "skewseries: interrupted\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]


def test_rankgrowth_rejects_precision_or_guard_below_one(tmp_path, capsys):
    spec = ModuleSpec(3, d=1, torsion_polys=((0, 1), (3, 3, 1), (3, 1)))
    src = _write(tmp_path, dump_module_spec(spec))
    out = tmp_path / "growth.json"
    base = ("rankgrowth", "--in", src, "--n-max", "3", "--out", str(out))
    # the last --n-max on a command line wins: 10**9 overrides base's 3
    for flags in (("--K", "0"), ("--K", "-1"), ("--K", "8", "--guard", "0"),
                  ("--K", "8", "--n-max", "1000000000")):
        assert run(*base, *flags) == 3
        assert "invalid rank-growth parameters" in capsys.readouterr().err
        assert not out.exists()
    assert run(*base, "--K", "8") == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["c"] == 3


def test_rankgrowth_rejects_precision_above_max(tmp_path, capsys):
    src = _write(tmp_path, dump_module_spec(ModuleSpec(3, d=1, torsion_polys=((3, 1),))))
    out = tmp_path / "growth.json"
    argv = ("rankgrowth", "--in", src, "--n-max", "3", "--out", str(out))
    assert run(*argv, "--K", str(MAX_PRECISION + 1)) == 3
    assert "invalid rank-growth parameters" in capsys.readouterr().err
    assert not out.exists() and not out.with_suffix(".csv").exists()


def test_axioms(capsys, tmp_path):
    out = tmp_path / "ax.json"
    code = run("axioms", "--p", "3", "--K", "4", "--epsilon", "4",
               "--seed", "5", "--out", str(out))
    assert code == 0
    capsys.readouterr()
    obj = json.loads(out.read_text())
    assert obj["report"]["passed"] is True
    assert obj["seed"] == 5


def test_selfcheck_small_seed(capsys):
    assert run("selfcheck", "--seed", "7") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert any(line.startswith("weierstrass:") for line in lines)
    assert all(" 0 failed" in line for line in lines)


def _seven_failures(res, rng):
    res.check(True)
    for k in range(7):
        res.check(False, f"failure {k}")


def test_selfcheck_reports_a_failing_suite(monkeypatch, tmp_path, capsys):
    from skewseries import selfcheck

    monkeypatch.setattr(selfcheck, "ALL_SUITES", [("broken", _seven_failures)])
    report = "broken: 1 passed, 7 failed" + "".join(f"\n  - failure {k}" for k in range(5))
    lines = []
    result = selfcheck.run_selfcheck(3, emit=lines.append)
    assert result == {
        "passed": False,
        "suites": [{"name": "broken", "passed": 1, "failed": 7,
                    "failures": [f"failure {k}" for k in range(5)]}],
    }
    assert lines == [report]
    out = tmp_path / "selfcheck.json"
    assert run("selfcheck", "--seed", "3", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (report + "\n", "")
    obj = json.loads(out.read_text())
    assert obj["passed"] is False
    assert obj["suites"] == result["suites"]


def test_schema_rejection_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"kind":"skew_series","p":3,"K":2,"mode":"zp","epsilon":"4",'
        '"rows":[["9","0"],["0"]]}\n'
    )
    assert run("prepare", "--in", str(bad)) == 3
    err = capsys.readouterr().err
    assert "schema error" in err and "9" in err


def test_wrong_kind_exit_3(tmp_path, capsys):
    sd = build_skew(PrecisionContext(2, 3, INTEGRAL), 3)
    src = _write(tmp_path, dump_series(sd.one()))
    assert run("divide", "--in", src) == 3
    capsys.readouterr()


def test_missing_file_exit_3(capsys):
    assert run("prepare", "--in", "/nonexistent/f.json") == 3
    capsys.readouterr()


def test_bad_usage_exit_3(capsys):
    try:
        code = run("omega", "--p", "3", "--n", "1")   # --K missing
    except SystemExit as exc:
        code = exc.code
    assert code == 3
    capsys.readouterr()


def test_bad_epsilon_exit_3(capsys):
    try:
        code = run("axioms", "--p", "3", "--K", "4", "--epsilon", "2")
    except SystemExit as exc:
        code = exc.code
    assert code == 3
    err = capsys.readouterr().err
    assert "epsilon" in err or "twist" in err


def test_non_prime_p_exit_3(tmp_path, capsys):
    # flags and JSON fields reach the same context check
    assert run("omega", "--p", "4", "--K", "4", "--n", "1") == 3
    assert capsys.readouterr().err == (
        "skewseries: schema error: invalid context: p = 4 is not prime\n"
    )
    src = tmp_path / "f.json"
    src.write_text(
        '{"kind":"skew_series","p":4,"K":2,"mode":"zp","epsilon":"1",'
        '"rows":[["1","0"],["0"]]}\n'
    )
    assert run("invert", "--in", str(src)) == 3
    assert capsys.readouterr().err == (
        "skewseries: schema error: skew_series: p = 4 is not prime\n"
    )


def test_invalid_index_exit_3(capsys):
    code = run("xi", "--p", "2", "--K", "4", "--n", "-1")
    assert code == 3
    capsys.readouterr()


def test_normalize_flag(tmp_path, capsys):
    lax = tmp_path / "lax.json"
    lax.write_text(
        '{"kind":"skew_series","p":2,"K":3,"mode":"zp","epsilon":"3",'
        '"rows":[["9","0","0"],["0","0"],["0"]]}\n'
    )
    assert run("prepare", "--in", str(lax)) == 3
    capsys.readouterr()
    # 9 normalizes to 1: a unit, prepared as (unit, 1)
    assert run("prepare", "--in", str(lax), "--normalize") == 0
    capsys.readouterr()


# the required flags of each subcommand, so that an unknown flag reaches
# the top parser, whose usage lists every subcommand
_REQUIRED = {
    **{name: ["--in", "in.json"] for name in ("prepare", "divide", "invert", "descend")},
    "selfcheck": [],
    "omega": ["--p", "3", "--K", "4", "--n", "1"],
    "xi": ["--p", "3", "--K", "4", "--n", "1"],
    "rankgrowth": ["--in", "in.json", "--n-max", "2", "--K", "4"],
    "axioms": ["--p", "3", "--K", "4", "--epsilon", "4"],
}


@pytest.mark.parametrize("name", list(_SUBCOMMANDS))
@pytest.mark.parametrize("error", [None, "usage", "unknown flag"])
def test_one_subcommand_parser_prints_the_full_parsers_bytes(name, error, capsys):
    """Help, a subcommand's usage error and the top parser's error about an
    unknown flag print the same bytes through the parser of one subcommand."""
    tail = {None: ["-h"], "usage": ["--seed", "x"], "unknown flag": [*_REQUIRED[name], "--bogus"]}
    seen = []
    for only in (None, name):
        with pytest.raises(SystemExit) as exc:
            build_parser(only).parse_args([name, *tail[error]])
        seen.append((exc.value.code, *capsys.readouterr()))
    assert seen[0] == seen[1]
    assert seen[0][0] == (0 if error is None else 3)
    if error == "unknown flag":
        assert seen[0][2].endswith("skewseries: error: unrecognized arguments: --bogus\n")


def test_main_builds_one_subcommand_only_when_argv_names_it(monkeypatch, capsys):
    built = []
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(only) or full(only))
    for argv in (["omega", "-h"], ["-h"], ["omeg", "-h"], ["-h", "omega"], []):
        with pytest.raises(SystemExit):
            main(argv)
    capsys.readouterr()
    assert built == ["omega", None, None, None, None]
