"""Command-line surface.

One job per invocation.  Algebraic objects travel as strict JSON (see
`serialize`); rank-growth tables are also written as CSV.  Exit codes:

* 0 — success
* 1 — mathematical error (non-unit input, unpreparable series, ...)
* 2 — precision error (the answer is not determined at the stored K)
* 3 — I/O, schema, or configuration error
* 130 — interrupted (Ctrl-C): no output file is left

Outputs are written atomically and are byte-identical for identical
configurations, including the seed, which is recorded in every output.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    ContextMismatch,
    MathematicalError,
    PrecisionError,
    SchemaError,
)
from .serialize import (
    JSON_TO_MODE,
    canonical_json,
    check_printable,
    dump_coeff,
    dump_distinguished,
    dump_series,
    load_object,
    make_context,
    read_json,
    write_json_atomic,
    write_text_atomic,
)

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors: exit 3, not argparse's 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _add_context_flags(sp, epsilon: bool) -> None:
    sp.add_argument("--p", type=int, required=True, help="prime p")
    sp.add_argument("--K", type=int, required=True, help="precision level K")
    sp.add_argument(
        "--mode",
        choices=sorted(JSON_TO_MODE),
        default="zp",
        help="coefficient ring: zp = p-adic integers, fp = mod-p reduction",
    )
    if epsilon:
        sp.add_argument(
            "--epsilon",
            type=int,
            required=True,
            help="twist exponent residue (must be 1 mod p)",
        )


def _load_kind(args, kind: str):
    obj = read_json(args.infile)
    if obj.get("kind") != kind:
        raise SchemaError(
            f"{args.subcommand} expects a {kind!r} object, "
            f"got kind {obj.get('kind')!r}"
        )
    return load_object(obj, normalize=args.normalize)


def _result(args, **fields) -> dict:
    return {"kind": "result", "subcommand": args.subcommand, "seed": args.seed, **fields}


def _emit(args, obj) -> None:
    if args.out:
        write_json_atomic(args.out, obj)
    else:
        sys.stdout.write(canonical_json(obj))


# -- subcommand handlers -------------------------------------------------
# Each handler imports its own algorithm: a process loads only what it runs.


def cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck

    result = run_selfcheck(args.seed, emit=print)
    if args.out:
        write_json_atomic(args.out, _result(args, **result))
    return 0 if result["passed"] else 1


def cmd_prepare(args) -> int:
    from .weierstrass import prepare

    f = _load_kind(args, "skew_series")
    eps, F = prepare(f)
    _emit(args, _result(args, eps=dump_series(eps), F=dump_distinguished(F)))
    return 0


def cmd_divide(args) -> int:
    from .weierstrass import divide

    g, f = _load_kind(args, "division_problem")
    try:
        q, rem = divide(g, f)
    except ValueError as exc:
        raise SchemaError(f"division refused: {exc}") from exc
    _emit(args, _result(args, q=dump_series(q), rem=dump_series(rem)))
    return 0


def cmd_invert(args) -> int:
    f = _load_kind(args, "skew_series")
    _emit(args, {**dump_series(f.inverse()), "seed": args.seed, "subcommand": args.subcommand})
    return 0


def cmd_cyclotomic(args) -> int:
    from . import iwasawa

    ctx = make_context("invalid context", args.p, args.K, args.mode)
    try:
        # the subcommand (omega or xi) names its function in iwasawa
        c = getattr(iwasawa, args.subcommand)(ctx, args.n)
    except ValueError as exc:
        raise SchemaError(f"invalid index: {exc}") from exc
    _emit(args, {**dump_coeff(c), "seed": args.seed, "subcommand": args.subcommand, "n": args.n})
    return 0


def cmd_descend(args) -> int:
    from .iwasawa import descend_ideal

    sd, coeffs = _load_kind(args, "z_poly")
    r, steps = descend_ideal(sd, coeffs)
    _emit(args, _result(args, r=dump_coeff(r, epsilon=sd.epsilon_raw), steps=steps))
    return 0


def cmd_rankgrowth(args) -> int:
    import os
    from pathlib import Path

    from .iwasawa import MAX_TOWER_LEVEL, rank_growth

    if not args.out:
        raise SchemaError("rankgrowth requires --out (the CSV is written alongside)")
    if Path(args.out).suffix == ".csv":
        raise SchemaError("rankgrowth --out must not end in .csv (the CSV is written alongside)")
    spec = _load_kind(args, "module_spec")
    if 2 <= args.n_max <= MAX_TOWER_LEVEL:  # rank_growth refuses other n_max
        # the CSV's largest lambda_n is d*p**n_max + c, and c <= sum of deg F
        top = spec.d * spec.p**args.n_max + sum(len(F) - 1 for F in spec.torsion_polys)
        check_printable(top, "invalid rank-growth parameters", f"lambda_n for n <= {args.n_max}")
    try:
        growth = rank_growth(spec, args.n_max, args.K, guard=args.guard)
    except ValueError as exc:
        raise SchemaError(f"invalid rank-growth parameters: {exc}") from exc
    summary = _result(args, **growth.to_dict())
    csv_text = "n,lambda_n,flag\n" + "".join(
        f"{n},{lam},{int(flag)}\n" for n, lam, flag in growth.table
    )
    write_json_atomic(args.out, summary)
    try:
        write_text_atomic(str(Path(args.out).with_suffix(".csv")), csv_text)
    except BaseException:
        os.unlink(args.out)  # both files or neither
        raise
    return 0


def cmd_axioms(args) -> int:
    from .skew import build_skew, validate_axioms

    ctx = make_context("invalid context", args.p, args.K, args.mode, args.epsilon)
    sd = build_skew(ctx, args.epsilon)
    report = validate_axioms(sd, samples=100, seed=args.seed)
    for check in report.checks:
        status = "ok" if not check.failures else f"FAILED ({check.failures}x)"
        print(f"{check.name}: {status}")
    if args.out:
        write_json_atomic(args.out, _result(args, report=report.to_dict()))
    return 0 if report.passed else 1


# -- parser --------------------------------------------------------------


def _cyclotomic_flags(sp) -> None:
    _add_context_flags(sp, epsilon=False)
    sp.add_argument("--n", type=int, required=True, help="tower level")


def _rankgrowth_flags(sp) -> None:
    sp.add_argument("--n-max", type=int, required=True, help="largest tower level")
    sp.add_argument("--K", type=int, required=True,
                    help="scalar precision: ranks are computed mod p^K")
    sp.add_argument("--guard", type=int, default=2, help="precision guard band")


# name: (handler, help, reads --in, further flags), in the order of the help
_SUBCOMMANDS = {
    "selfcheck": (cmd_selfcheck, "run every invariant suite", False, None),
    "prepare": (cmd_prepare, "factor a series as unit * distinguished poly", True, None),
    "divide": (cmd_divide, "divide with remainder by a unit-order series", True, None),
    "invert": (cmd_invert, "two-sided inverse of a unit", True, None),
    "omega": (cmd_cyclotomic, "cyclotomic element (1+X)^(p^n) - 1", False, _cyclotomic_flags),
    "xi": (cmd_cyclotomic, "cyclotomic layer quotient omega_n / omega_(n-1)", False,
           _cyclotomic_flags),
    "descend": (cmd_descend, "descend a Z-polynomial to a scalar generator", True, None),
    "rankgrowth": (cmd_rankgrowth, "coinvariant rank growth table", True, _rankgrowth_flags),
    "axioms": (cmd_axioms, "check the twist axioms on random samples", False,
               lambda sp: _add_context_flags(sp, epsilon=True)),
}


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of the one named `only`.

    A parser for one subcommand parses that subcommand's arguments as
    the full one does and prints the same bytes: its usage still lists
    every subcommand.
    """
    ap = _Parser(
        prog="skewseries",
        description="Exact arithmetic in skew power series rings at finite precision.",
    )
    sub = ap.add_subparsers(
        dest="subcommand",
        required=True,
        parser_class=_Parser,
        metavar=None if only is None else "{" + ",".join(_SUBCOMMANDS) + "}",
    )
    for name, (handler, help_text, reads_file, flags) in _SUBCOMMANDS.items():
        if only not in (None, name):
            continue
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--seed", type=int, default=0, help="recorded in outputs")
        sp.add_argument("--out", metavar="FILE", help="output path (default stdout)")
        sp.set_defaults(func=handler)
        if reads_file:
            sp.add_argument(
                "--in", dest="infile", metavar="FILE", required=True, help="input JSON"
            )
            sp.add_argument(
                "--normalize",
                action="store_true",
                help="reduce out-of-range residues instead of rejecting them",
            )
        if flags:
            flags(sp)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a known subcommand first needs only its own parser; -h, unknown
    # names and other errors take the full one
    only = argv[0] if argv and argv[0] in _SUBCOMMANDS else None
    args = build_parser(only).parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, ContextMismatch) as exc:
        print(f"skewseries: schema error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"skewseries: i/o error: {exc}", file=sys.stderr)
        return 3
    except PrecisionError as exc:
        print(f"skewseries: precision error: {exc}", file=sys.stderr)
        return 2
    except MathematicalError as exc:
        print(f"skewseries: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # the atomic writers have removed their files
        print("skewseries: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
