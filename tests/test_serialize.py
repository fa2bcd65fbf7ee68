"""Strict JSON interchange: round trips, canonical bytes, rejection."""

from __future__ import annotations

import json
import os
from random import Random

import pytest

from skewseries import (
    CoeffSeries,
    ModuleSpec,
    SchemaError,
    build_skew,
    canonical_json,
    dump_coeff,
    dump_distinguished,
    dump_division_problem,
    dump_module_spec,
    dump_series,
    dump_z_poly,
    load_object,
    prepare,
    read_json,
    write_json_atomic,
)
from skewseries.precision import CHARP, INTEGRAL, PrecisionContext
from skewseries.serialize import load_coeff, load_series, write_text_atomic

from util import rand_coeff, rand_series, rand_unit


def skews():
    return [
        build_skew(PrecisionContext(2, 4, INTEGRAL), 3),
        build_skew(PrecisionContext(3, 3, CHARP), 4),
        build_skew(PrecisionContext(5, 3, INTEGRAL), 1),
    ]


def test_coeff_round_trip():
    rng = Random(701)
    for sd in skews():
        for _ in range(20):
            c = rand_coeff(sd.ctx, rng)
            assert load_object(dump_coeff(c)) == c
            assert load_object(dump_coeff(c, epsilon=sd.epsilon_raw)) == c


def test_series_round_trip():
    rng = Random(702)
    for sd in skews():
        for _ in range(20):
            f = rand_series(sd, rng)
            assert load_object(dump_series(f)) == f


def test_distinguished_round_trip():
    rng = Random(703)
    for sd in skews():
        f = rand_unit(sd, rng) * sd.y()
        _, F = prepare(f)
        G = load_object(dump_distinguished(F))
        assert G.as_series() == F.as_series()
        assert G.degree == F.degree


def test_division_problem_round_trip():
    rng = Random(704)
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    g, f = rand_series(sd, rng), rand_series(sd, rng)
    g2, f2 = load_object(dump_division_problem(g, f))
    assert g2 == g and f2 == f


def test_z_poly_round_trip():
    rng = Random(705)
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    coeffs = [rand_coeff(sd.ctx, rng) for _ in range(3)]
    sd2, coeffs2 = load_object(dump_z_poly(sd, coeffs))
    assert sd2 == sd and coeffs2 == coeffs


def test_module_spec_round_trip():
    spec = ModuleSpec(3, d=2, torsion_polys=((3, 0, 1), (-3, 1)), p_power_ranks=(1, 2))
    assert load_object(dump_module_spec(spec)) == spec
    bare = ModuleSpec(2, d=0, torsion_polys=((2, 1),))
    assert load_object(dump_module_spec(bare)) == bare


def test_canonical_json_bytes():
    obj = {"b": 1, "a": [1, 2], "kind": "x"}
    text = canonical_json(obj)
    assert text == '{"a":[1,2],"b":1,"kind":"x"}\n'
    # key order in the input dict does not matter
    assert canonical_json({"kind": "x", "a": [1, 2], "b": 1}) == text


def test_atomic_write_and_read(tmp_path):
    sd = build_skew(PrecisionContext(2, 3, INTEGRAL), 3)
    f = sd.y() + sd.embed(3)
    path = tmp_path / "f.json"
    write_json_atomic(str(path), dump_series(f))
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text)["kind"] == "skew_series"
    assert load_object(read_json(str(path))) == f
    # overwrite is atomic and idempotent
    write_json_atomic(str(path), dump_series(f))
    assert path.read_text() == text


def test_atomic_write_retries_a_taken_temp_name(tmp_path, monkeypatch):
    taken = tmp_path / f".tmp-{bytes(8).hex()}.part"
    taken.write_text("another writer's part file")
    draws = iter([bytes(8), bytes(8), b"\x01" * 8])
    monkeypatch.setattr(os, "urandom", lambda n: next(draws))
    target = tmp_path / "f.txt"
    write_text_atomic(str(target), "text\n")
    assert next(draws, None) is None
    assert target.read_text() == "text\n"
    assert taken.read_text() == "another writer's part file"
    assert sorted(tmp_path.iterdir()) == sorted([taken, target])


def test_atomic_write_raises_the_replace_error_when_cleanup_fails(tmp_path, monkeypatch):
    def no_replace(src, dst):
        raise PermissionError("replace refused")

    tried = []

    def no_unlink(path):
        tried.append(path)
        raise OSError("unlink refused")

    monkeypatch.setattr(os, "replace", no_replace)
    monkeypatch.setattr(os, "unlink", no_unlink)
    with pytest.raises(PermissionError, match="replace refused"):
        write_text_atomic(str(tmp_path / "f.txt"), "text\n")
    [left] = tmp_path.iterdir()
    assert tried == [str(left)]
    assert left.name.startswith(".tmp-") and left.name.endswith(".part")


def test_read_json_failures(tmp_path):
    with pytest.raises(SchemaError):
        read_json(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        read_json(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1,2]\n")
    with pytest.raises(SchemaError):
        read_json(str(arr))


def good_series_obj():
    sd = build_skew(PrecisionContext(2, 3, INTEGRAL), 3)
    return dump_series(sd.one())


def context_holders():
    """(name, object, dict holding its context) for each kind with a context."""
    sd = build_skew(PrecisionContext(2, 3, INTEGRAL), 3)
    one = CoeffSeries.one(sd.ctx)
    objs = [
        ("coeff_series", dump_coeff(one, epsilon=3)),
        ("skew_series", dump_series(sd.one())),
        ("distinguished", dump_distinguished(prepare(sd.y())[1])),
        ("z_poly", dump_z_poly(sd, [one])),
    ]
    out = [(name, obj, obj) for name, obj in objs]
    for half in ("dividend", "divisor"):
        obj = dump_division_problem(sd.one(), sd.y())
        out.append((f"division_problem.{half}", obj, obj[half]))
    return out


# Bad values of the context fields, set on every kind in context_holders.
CONTEXT_MUTATIONS = [
    pytest.param((f, v), id=f"{f}={v!r}")
    for f, v in [
        ("p", 0), ("p", -3), ("p", 4), ("p", True),
        ("K", 0), ("K", -1), ("K", 2.0),
        ("mode", "padic"),
        ("epsilon", "-2"), ("epsilon", "0"), ("epsilon", "2"), ("epsilon", "banana"),
        ("epsilon", "3\n"),
    ]
]


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o.update(rows=[["8", "0", "0"], ["0", "0"], ["0"]]),   # >= modulus
        lambda o: o.update(rows=[["-1", "0", "0"], ["0", "0"], ["0"]]),  # signed
        lambda o: o.update(rows=[["01", "0", "0"], ["0", "0"], ["0"]]),  # leading zero
        lambda o: o.update(rows=[["1", "0"], ["0", "0"], ["0"]]),        # short row
        lambda o: o.update(rows=[["1", "0", "0"], ["0", "0"]]),          # missing row
        lambda o: o.update(rows=[[1, 0, 0], [0, 0], [0]]),               # numbers
        lambda o: o.update(kind="series"),                               # wrong kind
        lambda o: o.update(mode="padic"),                                # unknown mode
        lambda o: o.update(p="2"),                                       # p not int
        lambda o: o.update(epsilon="2"),                                 # eps not 1 mod p
        lambda o: o.update(extra=1),                                     # unknown key
        lambda o: o.pop("epsilon"),                                      # missing field
        lambda o: o.pop("rows"),                                         # missing rows
        lambda o: o.update(rows=[["1\n", "0", "0"], ["0", "0"], ["0"]]), # trailing newline
    ]
    + CONTEXT_MUTATIONS,
)
def test_strict_rejection(mutate):
    if callable(mutate):
        obj = good_series_obj()
        mutate(obj)
        with pytest.raises(SchemaError):
            load_object(obj)
        return
    field, value = mutate
    for name, obj, holder in context_holders():
        holder[field] = value
        try:
            load_object(obj)
        except SchemaError:
            continue
        pytest.fail(f"{name} accepted the context {holder}")


def test_normalize_opt_in():
    obj = good_series_obj()
    obj["rows"] = [["9", "4", "2"], ["0", "0"], ["0"]]
    with pytest.raises(SchemaError):
        load_series(obj)
    f = load_series(obj, normalize=True)
    assert f.row(0).coeffs == (1, 0, 0)   # 9 % 8, 4 % 4, 2 % 2
    obj["rows"][0][0] = "1\n"              # reduction never forgives the digit string
    with pytest.raises(SchemaError):
        load_series(obj, normalize=True)


@pytest.mark.parametrize("coeff", ["0\n", " 0", "+3", "\u0663"])
def test_torsion_coefficients_are_canonical_strings(coeff):
    obj = dump_module_spec(ModuleSpec(3, d=1, torsion_polys=((0, 1),)))
    obj["torsion_polys"][0][0] = coeff
    with pytest.raises(SchemaError, match=r"torsion_polys\[0\]\[0\]"):
        load_object(obj)


@pytest.mark.parametrize("kind", [[], {}])
def test_unknown_kind_is_a_schema_error(kind):
    with pytest.raises(SchemaError, match="unknown kind"):
        load_object({"kind": kind})


def test_meta_keys_tolerated():
    obj = good_series_obj()
    obj.update(seed=7, subcommand="invert", n=2, params={"p": 2})
    load_object(obj)
    c = dump_coeff(CoeffSeries.one(PrecisionContext(2, 3, INTEGRAL)))
    c.update(seed=0, subcommand="omega", n=1)
    assert load_coeff(c) is not None


def test_division_problem_context_mismatch_rejected():
    from skewseries import ContextMismatch

    sd1 = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    sd2 = build_skew(PrecisionContext(3, 4, INTEGRAL), 1)
    obj = dump_division_problem(sd1.y(), sd1.y())
    obj["divisor"] = dump_series(sd2.y())
    with pytest.raises(ContextMismatch):
        load_object(obj)


def test_division_problem_builds_twist_data_once(monkeypatch):
    import skewseries.serialize as serialize

    calls = []
    build = serialize.build_skew
    monkeypatch.setattr(serialize, "build_skew", lambda *a: calls.append(a) or build(*a))
    rng = Random(707)
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    g, f = rand_series(sd, rng), rand_series(sd, rng)
    obj = dump_division_problem(g, f)
    g2, f2 = load_object(obj)
    assert g2 == g and f2 == f and f2.sd is g2.sd
    assert len(calls) == 1
    # an epsilon equal to the dividend's only mod p**(K + guard) is built and compared
    obj["divisor"]["epsilon"] = str(4 + 3**20)
    g2, f2 = load_object(obj)
    assert g2 == g and f2 == f
    assert len(calls) == 3


def test_dump_is_parse_stable():
    rng = Random(706)
    for sd in skews():
        f = rand_series(sd, rng)
        obj = dump_series(f)
        assert canonical_json(dump_series(load_object(obj))) == canonical_json(obj)
