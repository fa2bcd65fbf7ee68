"""Linear algebra over Z/p**N with minimal-valuation pivoting.

One elimination, whose recorded row operations serve many right sides:
the independent linear-system route to Weierstrass division factors
one matrix and replays it on each X-degree block, and the Smith-style
elementary divisor computation behind the rank experiments reads the
same pivots.  Entries are plain integers mod p**N; a valuation of N
means "not visible at this precision".

The elimination's pivot is the first entry, in row-major order, of
least valuation in the remaining block.  It is found from row
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
    A: list[list[int]], p: int, N: int
) -> tuple[list[tuple], list[int], int]:
    """Take pivots out of the block A (entries in [0, p**N)) until it vanishes.

    Rows and columns keep their numbers.  The block is the row numbers in
    `rows` and the column numbers in `cols`, in an order that moves as if
    each step swapped the pivot p**v * u to the front (row 0 with its row,
    column 0 with its column j) and dropped it, so the row-major scan
    meets the pivots of that swap-and-drop elimination.  Each step clears
    column j in the other rows by row operations, leaving an exact zero
    there.  The pivot divides the whole block, so every quotient is
    exact.  `val` holds a lower bound on each row's valuation, exact
    where `exact` says so: a row operation only marks its row stale, and
    the search reads a stale row's gcd only when that row could still win
    (see the module docstring).  Returns the pivots (v, w, i, j, nz, ops)
    in the order taken, the rows no pivot reached and the number of
    columns: the pivot p**v * u sits at row i, column j, and w is the
    inverse of u mod p**N; nz holds the (column, entry) pairs of the
    rest of the pivot row that are nonzero, and ops the (row, f)
    pairs of the row operations, each subtracting f times row i.
    """
    mod = p**N
    val = [0] * len(A)  # a lower bound on each row's valuation
    exact = [False] * len(A)  # whether val[i] is the valuation itself
    rows = list(range(len(A)))
    width = len(A[0]) if A else 0
    cols = list(range(width))
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
        top = _take(rows, bi)
        row = A[top]
        j = _take(cols, next(at for at, k in enumerate(cols) if row[k] % (pk * p)))
        w = pow(row[j] // pk, -1, mod)
        nz = [(k, row[k]) for k in cols if row[k]]
        ops = []
        for i in rows:
            r = A[i]
            if e := r[j]:
                f = (e // pk) * w % mod
                for k, y in nz:
                    r[k] = (r[k] - f * y) % mod
                r[j] = 0
                exact[i] = False
                ops.append((i, f))
        piv.append((v, w, top, j, nz, ops))
    return piv, rows, width


def solve_mod_prime_power(
    fac: tuple[list, list[int], int], rhs: list[int], p: int, M: int
) -> list[int]:
    """One solution of A x = c over Z/p**M, free variables set to zero,
    from `fac`, the elimination of A mod p**N by `_eliminate`.

    The recorded row operations make an L invertible mod p**N with
    L A = T, whose pivot rows are an echelon form in which each pivot
    p**v * u divides the rest of its row, and whose other rows are zero.
    M <= N: L stays invertible mod p**M and L A = T holds there, so the
    system is equivalent to T x = L c mod p**M.  Replaying the operations
    on c splits it into congruences: a row no pivot reached must read 0,
    each pivot must divide its residual (a pivot row with v >= M is a
    zero row mod p**M, so it must read 0 too), and the pivots with v < M
    are solved from the last back (back-substitution).  So the system is
    solvable exactly when those hold.

    Leading rows: c may give only the first t rows.  Then the first t
    pivots must sit at rows 0 .. t-1 in that order (ValueError
    otherwise).  Each of their row operations subtracts a pivot row from
    a later row, so the first t rows are eliminated by those t pivots
    alone, and they solve the first t rows of A.
    """
    piv, rest, width = fac
    t = len(rhs)
    if t < len(piv) + len(rest):
        piv = piv[:t]
        if [i for _, _, i, *_ in piv] != list(range(t)):
            raise ValueError(f"the first {t} pivots are not at rows 0 .. {t - 1} in order")
        rest = ()
    mod = p**M
    b = [c % mod for c in rhs]
    for _, _, i, _, _, ops in piv:
        if c := b[i]:
            for r, f in ops:
                if r >= t:
                    break  # leading rows: the remaining rows come in order
                b[r] = (b[r] - f * c) % mod
    if any(b[i] for i in rest):
        raise SystemSingularAtPrecision("inconsistent linear system")
    x = [0] * width
    for v, w, i, j, nz, _ in reversed(piv):
        c, pk = b[i], p**v
        if c % pk != 0:
            raise SystemSingularAtPrecision("pivot does not divide the residual")
        if v >= M:
            continue  # a zero row mod p**M, and c = 0
        y = (c // pk) * w % p ** (M - v)
        s = sum((a // pk) * x[k] for k, a in nz if x[k])
        x[j] = (y - s * w) % mod
    return x


def smith_valuations(mat: list[list[int]], p: int, N: int) -> list[int]:
    """Valuations of the elementary divisors of mat over Z/p**N.

    Returned sorted ascending, each capped at N (N meaning the divisor
    is not visible, i.e. a kernel direction at this precision).  The
    pivots are those of `_eliminate`, found from row valuations; each
    divides its whole block, so row operations alone expose the
    divisors and no column operation is carried out.
    """
    mod = p**N
    A = [[x % mod for x in row] for row in mat]
    size = min(len(A), len(A[0])) if A else 0
    vals = [v for v, *_ in _eliminate(A, p, N)[0]]
    return sorted(vals + [N] * (size - len(vals)))
