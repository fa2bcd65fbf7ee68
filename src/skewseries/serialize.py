"""JSON interchange for ring elements, with strict canonical validation.

Residues are decimal strings (p**K overflows native JSON numbers), with
one object "kind" per type.  Parsing is strict: a residue at or above
its slot modulus, a malformed digit string, or a missing field raises
SchemaError rather than being silently reduced; ``normalize=True`` opts
into reduction (and accepts signed values).  Dumps are byte-determinis-
tic -- sorted keys, minimal separators, trailing newline -- and writes
go through a temp file plus rename so readers never observe a partial
file.

Metadata keys ("seed", "subcommand", "n", "params") may ride along on
any object and are ignored by loaders; everything else unexpected is
rejected.  The ring context (p, K, mode, epsilon), whether read from an
object or from CLI flags, is checked by `make_context` alone.

The envelope every kind shares is read by `_open` (the kind tag, then
the keys) and `_context` (p, K, mode, then epsilon) and written by `_head`,
so an object with several faults reports the first in the order kind,
keys, p, K, mode, epsilon, then its own fields.
"""
from __future__ import annotations

import json
import os
import re
import sys
from collections.abc import Sequence

from .coeff import CoeffSeries
from .errors import InvalidAction, SchemaError
from .precision import CHARP, INTEGRAL, PrecisionContext
from .series import SkewSeries
from .skew import SkewData, build_skew, check_epsilon

MODE_TO_JSON = {INTEGRAL: "zp", CHARP: "fp"}
JSON_TO_MODE = {"zp": INTEGRAL, "fp": CHARP}

META_KEYS = frozenset({"seed", "subcommand", "n", "params"})

# used with fullmatch: "$" would also match before a final newline
_UNSIGNED = re.compile(r"0|[1-9][0-9]*")
_SIGNED = re.compile(r"-?(0|[1-9][0-9]*)")


# -- low-level helpers ---------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    while True:
        tmp = os.path.join(d, f".tmp-{os.urandom(8).hex()}.part")
        try:
            # mode 0o666 under the umask, as a plain open() would give
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_json_atomic(path: str, obj) -> None:
    write_text_atomic(path, canonical_json(obj))


def read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, encoding, depth or int length
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: top-level JSON value must be an object")
    return obj


def _need(obj: dict, field: str, where: str):
    if field not in obj:
        raise SchemaError(f"{where}: missing field {field!r}")
    return obj[field]


def _int_field(obj: dict, field: str, where: str) -> int:
    v = _need(obj, field, where)
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"{where}: field {field!r} must be a JSON integer")
    return v


def _int(s: str, where: str) -> int:
    try:
        return int(s)
    except ValueError as exc:  # past the interpreter's int-string digit limit
        raise SchemaError(f"{where}: {exc}") from exc


def _parse_residue(s, modulus: int, normalize: bool, where: str) -> int:
    if not isinstance(s, str):
        raise SchemaError(f"{where}: residues must be decimal strings, got {s!r}")
    pat = _SIGNED if normalize else _UNSIGNED
    if not pat.fullmatch(s):
        raise SchemaError(f"{where}: {s!r} is not a canonical decimal residue")
    v = _int(s, where)
    if not normalize and v >= modulus:
        raise SchemaError(
            f"{where}: residue {s} is not reduced (slot modulus {modulus})"
        )
    return v % modulus


def _parse_int_string(s, where: str) -> int:
    if not isinstance(s, str) or not _SIGNED.fullmatch(s):
        raise SchemaError(f"{where}: {s!r} is not a canonical decimal integer")
    return _int(s, where)


def _open(obj: dict, kind: str, fields: set[str]) -> None:
    """Check obj's kind tag, then that its keys lie in fields, "kind" and META_KEYS."""
    k = _need(obj, "kind", kind)
    if k != kind:
        raise SchemaError(f"{kind}: expected kind {kind!r}, got {k!r}")
    extra = set(obj) - fields - {"kind"} - META_KEYS
    if extra:
        raise SchemaError(f"{kind}: unexpected fields {sorted(extra)}")


# -- precision context / twist data --------------------------------------

_CTX_FIELDS = {"p", "K", "mode", "epsilon"}


def _head(kind: str, ctx: PrecisionContext, epsilon: int | None = None) -> dict:
    """The kind tag and the ring context of a dumped object."""
    obj = {"kind": kind, "p": ctx.p, "K": ctx.K, "mode": MODE_TO_JSON[ctx.mode]}
    if epsilon is not None:
        obj["epsilon"] = str(epsilon)
    return obj


def check_printable(n: int, where: str, what: str) -> None:
    """Refuse n if it has more decimal digits than str() may write (0: no limit)."""
    digits = getattr(sys, "get_int_max_str_digits", int)()  # absent: no limit
    if digits and n >= 10**digits:
        raise SchemaError(f"{where}: {what} must have at most {digits} decimal digits")


def make_context(where: str, p: int, K: int, mode: str, epsilon: int | None = None):
    """The context fixed by (p, K, mode), with epsilon checked against it unless None.

    Every JSON object and every set of CLI context flags comes through
    here; a bad value raises SchemaError prefixed by ``where``.  The twist
    by a checked epsilon is ``build_skew(ctx, epsilon)``.
    """
    if mode not in JSON_TO_MODE:
        raise SchemaError(f"{where}: mode must be one of {sorted(JSON_TO_MODE)}")
    try:
        ctx = PrecisionContext(p, K, JSON_TO_MODE[mode])
        check_printable(p**K, where, "p**K")
        if epsilon is not None:
            check_epsilon(ctx, epsilon)
        return ctx
    except (ValueError, InvalidAction) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _context(obj: dict, where: str, twisted: bool = True) -> tuple[PrecisionContext, int | None]:
    """make_context on obj's p, K, mode and, when twisted, epsilon, which it returns too."""
    p = _int_field(obj, "p", where)
    K = _int_field(obj, "K", where)
    mode = _need(obj, "mode", where)
    if not isinstance(mode, str):
        raise SchemaError(f"{where}: field 'mode' must be a string")
    eps = None
    if twisted:
        eps = _parse_int_string(_need(obj, "epsilon", where), where + ".epsilon")
    return make_context(where, p, K, mode, eps), eps


def _ring(obj: dict, where: str, sd: SkewData | None = None) -> SkewData:
    """The twist named by obj's p, K, mode and epsilon.

    Given sd, returns sd: fields unequal to sd's must pass
    ``sd.check_same``, equal ones reuse its twist data.
    """
    ctx, eps = _context(obj, where)
    if sd is None:
        return build_skew(ctx, eps)
    if (ctx, eps) != (sd.ctx, sd.epsilon_raw):
        sd.check_same(build_skew(ctx, eps))
    return sd


def _load_coeff_vector(
    raw, ctx: PrecisionContext, q: int, normalize: bool, where: str
) -> list[int]:
    moduli = ctx.slot_moduli(q)
    if not isinstance(raw, list):
        raise SchemaError(f"{where}: expected a list of residue strings")
    if len(raw) != q:
        raise SchemaError(f"{where}: expected {q} slots, got {len(raw)}")
    return [
        _parse_residue(s, moduli[a], normalize, f"{where}[{a}]")
        for a, s in enumerate(raw)
    ]


def _load_coeff(raw, ctx: PrecisionContext, normalize: bool, where: str) -> CoeffSeries:
    """A full-precision coefficient vector as a coefficient series."""
    return CoeffSeries(ctx, _load_coeff_vector(raw, ctx, ctx.K, normalize, where))


# -- coefficient series --------------------------------------------------


def dump_coeff(c: CoeffSeries, epsilon: int | None = None) -> dict:
    return {**_head("coeff_series", c.ctx, epsilon), "coeffs": [str(v) for v in c.coeffs]}


def load_coeff(obj: dict, normalize: bool = False) -> CoeffSeries:
    where = "coeff_series"
    _open(obj, where, _CTX_FIELDS | {"coeffs"})
    # an epsilon is checked, but builds no twist: the coefficients do not read it
    ctx, _ = _context(obj, where, "epsilon" in obj)
    return _load_coeff(_need(obj, "coeffs", where), ctx, normalize, where + ".coeffs")


# -- skew series ---------------------------------------------------------


def dump_series(f: SkewSeries) -> dict:
    obj = _head("skew_series", f.sd.ctx, f.sd.epsilon_raw)
    obj["rows"] = [[str(v) for v in row[: f.sd.ctx.K - j]] for j, row in enumerate(f.rows)]
    return obj


def load_series(
    obj: dict, normalize: bool = False, sd: SkewData | None = None
) -> SkewSeries:
    where = "skew_series"
    _open(obj, where, _CTX_FIELDS | {"rows"})
    sd = _ring(obj, where, sd=sd)
    K = sd.ctx.K
    raw = _need(obj, "rows", where)
    if not isinstance(raw, list) or len(raw) != K:
        raise SchemaError(f"{where}.rows: expected {K} rows")
    rows = [
        _load_coeff_vector(r, sd.ctx, K - j, normalize, f"{where}.rows[{j}]")
        for j, r in enumerate(raw)
    ]
    return SkewSeries(sd, rows)


# -- distinguished polynomials -------------------------------------------


def dump_distinguished(F: DistinguishedPoly) -> dict:
    obj = _head("distinguished", F.sd.ctx, F.sd.epsilon_raw)
    obj["s"] = F.degree
    obj["lower"] = [[str(v) for v in a.coeffs] for a in F.lower]
    return obj


def load_distinguished(obj: dict, normalize: bool = False) -> DistinguishedPoly:
    from .weierstrass import DistinguishedPoly

    where = "distinguished"
    _open(obj, where, _CTX_FIELDS | {"s", "lower"})
    sd = _ring(obj, where)
    s = _int_field(obj, "s", where)
    if s < 0:
        raise SchemaError(f"{where}: degree s must be >= 0")
    raw = _need(obj, "lower", where)
    if not isinstance(raw, list) or len(raw) != s:
        raise SchemaError(f"{where}.lower: expected {s} coefficient vectors")
    lower = [
        _load_coeff(r, sd.ctx, normalize, f"{where}.lower[{i}]") for i, r in enumerate(raw)
    ]
    try:
        return DistinguishedPoly(sd, s, tuple(lower))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# -- division problems ---------------------------------------------------


def dump_division_problem(g: SkewSeries, f: SkewSeries) -> dict:
    g.sd.check_same(f.sd)
    return {
        "kind": "division_problem",
        "dividend": dump_series(g),
        "divisor": dump_series(f),
    }


def load_division_problem(
    obj: dict, normalize: bool = False
) -> tuple[SkewSeries, SkewSeries]:
    where = "division_problem"
    _open(obj, where, {"dividend", "divisor"})
    graw = _need(obj, "dividend", where)
    fraw = _need(obj, "divisor", where)
    if not isinstance(graw, dict) or not isinstance(fraw, dict):
        raise SchemaError(f"{where}: dividend and divisor must be skew_series objects")
    g = load_series(graw, normalize)
    f = load_series(fraw, normalize, sd=g.sd)
    return g, f


# -- Z-polynomials (descent input) ---------------------------------------


def dump_z_poly(sd: SkewData, coeffs: Sequence[CoeffSeries]) -> dict:
    for c in coeffs:
        sd.ctx.check_same(c.ctx)
    obj = _head("z_poly", sd.ctx, sd.epsilon_raw)
    obj["coeffs"] = [[str(v) for v in c.coeffs] for c in coeffs]
    return obj


def load_z_poly(
    obj: dict, normalize: bool = False
) -> tuple[SkewData, list[CoeffSeries]]:
    where = "z_poly"
    _open(obj, where, _CTX_FIELDS | {"coeffs"})
    sd = _ring(obj, where)
    raw = _need(obj, "coeffs", where)
    if not isinstance(raw, list) or not raw:
        raise SchemaError(f"{where}.coeffs: expected a nonempty list")
    return sd, [
        _load_coeff(r, sd.ctx, normalize, f"{where}.coeffs[{i}]") for i, r in enumerate(raw)
    ]


# -- module specifications (rank growth input) ---------------------------


def dump_module_spec(ms: ModuleSpec) -> dict:
    return {
        "kind": "module_spec",
        "p": ms.p,
        "d": ms.d,
        "torsion_polys": [[str(c) for c in F] for F in ms.torsion_polys],
        "p_power_ranks": list(ms.p_power_ranks),
    }


def load_module_spec(obj: dict) -> ModuleSpec:
    from .iwasawa import ModuleSpec

    where = "module_spec"
    _open(obj, where, {"p", "d", "torsion_polys", "p_power_ranks"})
    p = _int_field(obj, "p", where)
    d = _int_field(obj, "d", where)
    rawt = obj.get("torsion_polys", [])
    rawr = obj.get("p_power_ranks", [])
    if not isinstance(rawt, list) or not all(isinstance(F, list) for F in rawt):
        raise SchemaError(f"{where}.torsion_polys: expected a list of lists")
    if not isinstance(rawr, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) for n in rawr
    ):
        raise SchemaError(f"{where}.p_power_ranks: expected a list of integers")
    polys = tuple(
        tuple(
            _parse_int_string(c, f"{where}.torsion_polys[{i}][{j}]")
            for j, c in enumerate(F)
        )
        for i, F in enumerate(rawt)
    )
    try:
        return ModuleSpec(p, d, polys, tuple(rawr))
    except ValueError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


# -- kind dispatch -------------------------------------------------------

_LOADERS = {
    "coeff_series": load_coeff,
    "skew_series": load_series,
    "distinguished": load_distinguished,
    "division_problem": load_division_problem,
    "z_poly": load_z_poly,
    "module_spec": lambda obj, normalize: load_module_spec(obj),
}


def load_object(obj: dict, normalize: bool = False):
    kind = _need(obj, "kind", "input")
    if not isinstance(kind, str) or kind not in _LOADERS:  # an unhashable kind too
        raise SchemaError(f"unknown kind {kind!r}; expected one of {sorted(_LOADERS)}")
    return _LOADERS[kind](obj, normalize)
