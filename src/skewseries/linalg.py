"""Linear algebra over Z/p**N with minimal-valuation pivoting.

Two consumers: the independent linear-system route to Weierstrass
division, and the Smith-style elementary divisor computation behind the
rank experiments.  Entries are plain integers mod p**N; a valuation of
N means "not visible at this precision".

Both run one elimination, whose pivot is the first entry, in row-major
order, of least valuation in the remaining block.  It is found from row
valuations, not one `pval` per entry: v_p of a row's gcd is the least
valuation in that row, so the pivot row is the first row of least
valuation, and the pivot column is the first entry of that row not
divisible by p**(v+1).

Row valuations never fall during the elimination.  The pivot p**v * u
divides the whole block, so a row of valuation w >= v gets multiples of
p**(w-v) times the pivot row, which are divisible by p**w.  A valuation
read before a row operation therefore stays a lower bound after it, and
no row of the next block goes below v.  So the search takes a row's gcd
only when the row's bound is below the best valuation so far (an
earlier row wins ties) and the bound is stale.
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
) -> tuple[list[tuple[int, int, int, list[tuple[int, int]], int | None]], list[int]]:
    """Take pivots out of the block A (entries in [0, p**N)) until it vanishes.

    Rows and columns keep their numbers.  The block is the row numbers in
    `rows` and the column numbers in `cols`, in an order that moves as if
    each step swapped the pivot p**v * u to the front (row 0 with its row,
    column 0 with its column j) and dropped it, so the row-major scan
    meets the pivots of that swap-and-drop elimination.  Each step clears
    column j in the other rows by row operations (`b` following the
    rows), leaving an exact zero there.  The pivot divides the whole
    block, so every quotient is exact.  `val` holds a lower bound on each
    row's valuation, exact where `exact` says so: a row operation only
    marks its row stale, and the search reads a stale row's gcd only when
    that row could still win (see the module docstring).  Returns the
    pivots (v, u, j, nz, c), with nz the (column, entry) pairs of the
    rest of the pivot row that are nonzero and c its b entry, and the
    rows no pivot reached.
    """
    mod = p**N
    val = [0] * len(A)  # a lower bound on each row's valuation
    exact = [False] * len(A)  # whether val[i] is the valuation itself
    rows = list(range(len(A)))
    cols = list(range(len(A[0]) if A else 0))
    piv = []
    while rows and cols:
        bi, v = -1, N
        for at, i in enumerate(rows):
            if val[i] >= v:
                continue  # an earlier row wins ties
            if not exact[i]:
                val[i], exact[i] = pval(gcd(*A[i]), p, N), True
                if val[i] >= v:
                    continue
            bi, v = at, val[i]
        if bi < 0:
            break  # the block vanishes mod p**N
        pk = p**v
        i = _take(rows, bi)
        row, c = A[i], None if b is None else b[i]
        j = _take(cols, next(at for at, k in enumerate(cols) if row[k] % (pk * p)))
        u = row[j] // pk
        uinv = pow(u, -1, mod)
        nz = [(k, row[k]) for k in cols if row[k]]
        for i in rows:
            r = A[i]
            if e := r[j]:
                f = (e // pk) * uinv % mod
                for k, y in nz:
                    r[k] = (r[k] - f * y) % mod
                r[j] = 0
                exact[i] = False
                if b is not None:
                    b[i] = (b[i] - f * c) % mod
        piv.append((v, u, j, nz, c))
    return piv, rows


def solve_mod_prime_power(
    rows: list[list[int]], rhs: list[int], p: int, N: int
) -> list[int]:
    """One solution of A x = b over Z/p**N, free variables set to zero.

    Reduces L A M = D, each pivot the first row-major entry of least
    valuation in the remaining block (found from row valuations, see the
    module docstring): such a pivot divides the whole block, so clearing
    its row and column is exact.  The diagonal system D y = L b splits
    into independent congruences (solvable exactly when the original
    system is).  M is the product, step by step, of the column
    operations that clear the pivot row; x = M y is evaluated from the
    last pivot back, which is back-substitution over the pivot rows.
    """
    mod = p**N
    A = [[x % mod for x in row] for row in rows]
    b = [x % mod for x in rhs]
    x = [0] * (len(A[0]) if A else 0)
    piv, rest = _eliminate(A, p, N, b)
    if any(b[i] for i in rest):
        raise SystemSingularAtPrecision("inconsistent linear system")
    for v, u, j, nz, c in reversed(piv):
        pk = p**v
        if c % pk != 0:
            raise SystemSingularAtPrecision("pivot does not divide the residual")
        y = (c // pk) * pow(u, -1, p ** (N - v)) % p ** (N - v)
        s = sum((a // pk) * x[k] for k, a in nz if x[k])
        x[j] = (y - s * pow(u, -1, mod)) % mod
    return x


def smith_valuations(mat: list[list[int]], p: int, N: int) -> list[int]:
    """Valuations of the elementary divisors of mat over Z/p**N.

    Returned sorted ascending, each capped at N (N meaning the divisor
    is not visible, i.e. a kernel direction at this precision).  The
    pivots are those of `solve_mod_prime_power`, found from row
    valuations; each divides its whole block, so row operations alone
    expose the divisors and no column operation is carried out.
    """
    mod = p**N
    A = [[x % mod for x in row] for row in mat]
    size = min(len(A), len(A[0])) if A else 0
    vals = [v for v, *_ in _eliminate(A, p, N)[0]]
    return sorted(vals + [N] * (size - len(vals)))
