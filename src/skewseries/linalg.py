"""Linear algebra over Z/p**N with minimal-valuation pivoting.

Two consumers: the independent linear-system route to Weierstrass
division, and the Smith-style elementary divisor computation behind the
rank experiments.  Entries are plain integers mod p**N; a valuation of
N means "not visible at this precision".

Both run one elimination, whose pivot is the first entry, in row-major
order, of least valuation in the remaining block.  It is found with one
`math.gcd` per row, not one `pval` per entry: v_p of a row's gcd is the
least valuation in that row, so the pivot row is the first row whose gcd
has the least valuation, and the pivot column is the first entry of that
row not divisible by p**(v+1).  A row that a step leaves alone loses only
a zero (its pivot-column entry), so its gcd is kept, not recomputed.
"""
from __future__ import annotations

from math import gcd

from .errors import SystemSingularAtPrecision


def pval(x: int, p: int, N: int) -> int:
    """v_p(x) capped at N; x = 0 gives N."""
    if x == 0:
        return N
    v = 0
    while x % p == 0 and v < N:
        x //= p
        v += 1
    return v


def _take(xs: list, i: int):
    """Swap xs[0] with xs[i], then remove and return the new front."""
    x = xs[i]
    xs[i] = xs[0]
    del xs[0]
    return x


def _eliminate(
    A: list[list[int]], p: int, N: int, b: list[int] | None = None
) -> list[tuple[int, int, int, list[int], int | None]]:
    """Take pivots out of the block A (entries in [0, p**N)) until it vanishes.

    Each step swaps the pivot p**v * u to the front of the block (row 0
    with its row, column 0 with its column j, `b` following the rows),
    clears the column below it by row operations and drops the pivot row
    and column.  The pivot divides the whole block, so every quotient is
    exact.  A and b end as the rows no pivot reached.  Returns per pivot
    (v, u, j, row, c): `row` is the rest of the pivot row, c its b entry.
    """
    mod = p**N
    gs = [gcd(*row) for row in A]
    piv = []
    while A and A[0]:
        bi, pk = -1, mod
        for i, g in enumerate(gs):
            if g % pk:  # a row valuation below the least so far
                bi, v = i, pval(g, p, N)
                pk = p**v
        if bi < 0:
            break  # the block vanishes mod p**N
        row = _take(A, bi)
        _take(gs, bi)
        c = None if b is None else _take(b, bi)
        j = next(j for j, x in enumerate(row) if x % (pk * p))
        u = _take(row, j) // pk
        uinv = pow(u, -1, mod)
        nzk = [(k, y) for k, y in enumerate(row) if y]
        for i, r in enumerate(A):
            if e := _take(r, j):
                f = (e // pk) * uinv % mod
                for k, y in nzk:
                    r[k] = (r[k] - f * y) % mod
                gs[i] = gcd(*r)
                if b is not None:
                    b[i] = (b[i] - f * c) % mod
        piv.append((v, u, j, row, c))
    return piv


def solve_mod_prime_power(
    rows: list[list[int]], rhs: list[int], p: int, N: int
) -> list[int]:
    """One solution of A x = b over Z/p**N, free variables set to zero.

    Reduces L A M = D, each pivot the first row-major entry of least
    valuation in the remaining block (found by row gcds, see the module
    docstring): such a pivot divides the whole block, so clearing its
    row and column is exact.  The diagonal system D y = L b splits into
    independent congruences (solvable exactly when the original system
    is).  M is the product, step by step, of a column swap and the column
    operations that clear the pivot row; x = M y is evaluated from the
    right, which is back-substitution over the pivot rows.
    """
    mod = p**N
    A = [[x % mod for x in row] for row in rows]
    b = [x % mod for x in rhs]
    x = [0] * (len(A[0]) if A else 0)
    piv = _eliminate(A, p, N, b)
    if any(b[: len(A)]):
        raise SystemSingularAtPrecision("inconsistent linear system")
    for t in reversed(range(len(piv))):
        v, u, j, row, c = piv[t]
        pk = p**v
        if c % pk != 0:
            raise SystemSingularAtPrecision("pivot does not divide the residual")
        y = (c // pk) * pow(u, -1, p ** (N - v)) % p ** (N - v)
        s = sum((a // pk) * z for a, z in zip(row, x[t + 1 :]) if z)
        x[t] = (y - s * pow(u, -1, mod)) % mod
        x[t], x[t + j] = x[t + j], x[t]
    return x


def smith_valuations(mat: list[list[int]], p: int, N: int) -> list[int]:
    """Valuations of the elementary divisors of mat over Z/p**N.

    Returned sorted ascending, each capped at N (N meaning the divisor
    is not visible, i.e. a kernel direction at this precision).  The
    pivots are those of `solve_mod_prime_power`, found by row gcds; each
    divides its whole block, so row operations alone expose the divisors
    and no column operation is carried out.
    """
    mod = p**N
    A = [[x % mod for x in row] for row in mat]
    size = min(len(A), len(A[0])) if A else 0
    vals = [v for v, *_ in _eliminate(A, p, N)]
    return sorted(vals + [N] * (size - len(vals)))
