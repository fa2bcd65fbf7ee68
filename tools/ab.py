"""A/B timing of skewseries operations: the working tree against a base copy.

    python3 tools/ab.py --base REV [--pairs 10] [CELL ...]
    python3 tools/ab.py --base-dir DIR [--pairs 10] [CELL ...]
    python3 tools/ab.py --list

The base copy of ``src/skewseries`` comes from ``git archive REV`` into a
temporary directory, or from DIR, a directory that holds the package
(a checkout's ``src``, or the checkout itself).  It is loaded beside the
working tree's ``skewseries`` under the top-level name
``skewseries_base``: the package imports its own modules relatively, and
``skewseries/__init__.py`` resolves its lazy names through ``__name__``,
so both copies live in one process.

A cell is a named operation on inputs drawn from a fixed seed.  Before
each timed call each side builds its inputs afresh, twist data and
contexts included, so every call is cold.  The two sides alternate over
N pairs, the first side swapping from pair to pair.  Their outputs must
be equal, compared by ``repr``; a cell whose sides disagree is refused
and the script exits with status 1.  Per cell it prints the median time
of each side, the median of the per-pair ratios new/base, the pairs the
working tree won (ratio < 1) out of N, and the interquartile range of the
ratios.  Standard library only.
"""
from __future__ import annotations

import argparse
import importlib.util
import io
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections.abc import Callable
from pathlib import Path
from random import Random

ROOT = Path(__file__).resolve().parent.parent
BASE_NAME = "skewseries_base"

Thunk = Callable[[], object]


class Disagree(Exception):
    """The two sides of a cell returned different outputs."""


def _inputs(pkg, p: int, K: int, s: int, mode: str):
    """(f, g) over ``pkg``: f of reduced order s and g, from a fixed seed, fresh twist data."""
    sd = pkg.build_skew(pkg.PrecisionContext(p, K, mode), 1 + p)
    rng = Random(f"ab:{p}:{K}:{s}:{mode}")

    def rows(order: int | None) -> list[list[int]]:
        out = [[rng.randrange(p ** (K - j - a)) for a in range(K - j)] for j in range(K)]
        if order is not None:
            for j in range(order):
                out[j][0] -= out[j][0] % p  # a non-unit below the reduced order
            out[order][0] += rng.randrange(1, p) - out[order][0] % p  # and a unit at it
        return out

    return pkg.SkewSeries(sd, rows(s)), pkg.SkewSeries(sd, rows(None))


def _cell(op, p: int, K: int, s: int, mode: str = "integral"):
    """A cell that times ``op(pkg, f, g)`` on the inputs of ``_inputs``."""

    def cell(pkg) -> Thunk:
        f, g = _inputs(pkg, p, K, s, mode)
        return lambda: op(pkg, f, g)

    return cell


def _divide(pkg, f, g):
    return pkg.divide(g, f)


def _oracle(pkg, f, g):
    return pkg.divide_oracle(g, f)


def _prepare(pkg, f, g):
    return pkg.prepare(f)


def _ring(pkg, f, g):  # f is a unit at s = 0
    return f * g, f.inverse()


# name -> a function of the package that builds the inputs and returns the timed call
CELLS: dict[str, Callable[[object], Thunk]] = {
    "tiny": _cell(_divide, 3, 3, 1),
    "ring-3-16": _cell(_ring, 3, 16, 0),
    "prepare-3-8-2": _cell(_prepare, 3, 8, 2),
    "divide-3-8-2": _cell(_divide, 3, 8, 2),
    "divide-3-16-3": _cell(_divide, 3, 16, 3),
    "divide-3-24-3": _cell(_divide, 3, 24, 3),
    "divide-charp-3-32-3": _cell(_divide, 3, 32, 3, "charp"),
    "divide-1000003-8-3": _cell(_divide, 1000003, 8, 3),
    "oracle-3-16-3": _cell(_oracle, 3, 16, 3),
    "oracle-3-32-3": _cell(_oracle, 3, 32, 3),
}


def load_package(src: Path, name: str = BASE_NAME):
    """Import the ``skewseries`` package under ``src`` as the top-level module ``name``."""
    src = Path(src)
    if not (src / "skewseries").is_dir() and (src / "src" / "skewseries").is_dir():
        src = src / "src"
    init = src / "skewseries" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no skewseries package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def archive_src(rev: str, dest: Path) -> Path:
    """Extract ``src/skewseries`` of git revision ``rev`` into ``dest``; return its ``src``."""
    data = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src/skewseries"],
        check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:  # Python before the extraction filters
            tar.extractall(dest)
    return dest / "src"


def _timed(cell: Callable[[object], Thunk], pkg) -> tuple[float, str]:
    call = cell(pkg)
    t = time.perf_counter()
    out = call()
    return time.perf_counter() - t, repr(out)


def compare(cell: Callable[[object], Thunk], base, new, pairs: int = 10) -> dict:
    """Alternate the two sides of ``cell`` over ``pairs`` pairs; Disagree on unequal outputs."""
    times: dict[str, list[float]] = {"base": [], "new": []}
    for i in range(pairs):
        outs = {}
        for side in ("base", "new") if i % 2 == 0 else ("new", "base"):
            dt, outs[side] = _timed(cell, base if side == "base" else new)
            times[side].append(dt)
        if outs["base"] != outs["new"]:
            raise Disagree(f"outputs differ in pair {i + 1}")
    ratios = [n / b for n, b in zip(times["new"], times["base"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4) if pairs > 1 else ratios * 3
    return {
        "base_ms": 1e3 * statistics.median(times["base"]),
        "new_ms": 1e3 * statistics.median(times["new"]),
        "ratio": statistics.median(ratios),
        "wins": sum(r < 1 for r in ratios),
        "pairs": pairs,
        "iqr": (q1, q3),
    }


def format_row(name: str, r: dict) -> str:
    q1, q3 = r["iqr"]
    return (
        f"{name:<22} {r['base_ms']:>10.2f} {r['new_ms']:>10.2f} {r['ratio']:>7.3f}"
        f" {r['wins']:>3d}/{r['pairs']:<3d} {q1:.3f}-{q3:.3f}"
    )


HEADER = f"{'cell':<22} {'base ms':>10} {'new ms':>10} {'ratio':>7} {'wins':>7} IQR of ratio"


def run(base_src: Path, names: list[str], pairs: int) -> int:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import skewseries as new

    base = load_package(base_src)
    print(HEADER)
    for name in names:
        try:
            r = compare(CELLS[name], base, new, pairs)
        except Disagree as e:
            print(f"refused: {name}: {e}", file=sys.stderr)
            return 1
        print(format_row(name, r), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    where = ap.add_mutually_exclusive_group()
    where.add_argument("--base", metavar="REV", help="git revision whose src/ is the base")
    where.add_argument("--base-dir", metavar="DIR", type=Path, help="directory holding the base package")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--list", action="store_true", help="list the cells and exit")
    ap.add_argument("cells", nargs="*", metavar="CELL")
    args = ap.parse_args(argv)
    if args.list:
        print("\n".join(CELLS))
        return 0
    unknown = [c for c in args.cells if c not in CELLS]
    if unknown or not (args.base or args.base_dir) or args.pairs < 1:
        ap.error(f"unknown cells {unknown}" if unknown else "give --base or --base-dir, and --pairs >= 1")
    names = args.cells or [c for c in CELLS if c != "tiny"]
    if args.base_dir:
        return run(args.base_dir, names, args.pairs)
    with tempfile.TemporaryDirectory() as tmp:
        return run(archive_src(args.base, Path(tmp)), names, args.pairs)


if __name__ == "__main__":
    sys.exit(main())
