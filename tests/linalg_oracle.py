"""Two separate full diagonalizations over Z/p**N: the slow twins of the
shared row-valuation elimination in `skewseries.linalg`, kept as a
differential oracle.

Each step here scans every entry of the remaining block with `pval` and
takes the first entry of least valuation in row-major order; the package
finds the same entry from lower bounds on the row valuations, taking a
row's `math.gcd` only when that row could hold the pivot.  Here both functions
clear the pivot row by column operations, and the solver builds the
column-operation matrix M to return x = M y; the package back-substitutes
over the pivot rows instead.
"""
from __future__ import annotations

from skewseries.errors import SystemSingularAtPrecision


def pval(x: int, p: int, N: int) -> int:
    """v_p(x) capped at N; x = 0 gives N."""
    if x == 0:
        return N
    v = 0
    while x % p == 0 and v < N:
        x //= p
        v += 1
    return v


def solve_mod_prime_power(
    rows: list[list[int]], rhs: list[int], p: int, N: int
) -> list[int]:
    """One solution of A x = b over Z/p**N, free variables set to zero.

    Diagonalizes L A M = D where the pivot of each step is an entry of
    globally minimal valuation in the remaining block: such a pivot
    p**v * u divides the whole block, so clearing its row and column is
    exact and no back-substitution ambiguity arises.  The diagonal
    system D y = L b then splits into independent congruences (solvable
    exactly when the original system is), and x = M y.
    """
    mod = p**N
    m = len(rows)
    n = len(rows[0]) if m else 0
    A = [[x % mod for x in row] for row in rows]
    b = [x % mod for x in rhs]
    M = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    piv: list[tuple[int, int]] = []  # (valuation, unit) per diagonal slot
    t = 0
    size = min(m, n)
    while t < size:
        bi = bj = -1
        bv = N
        for i in range(t, m):
            for j in range(t, n):
                v = pval(A[i][j], p, N)
                if v < bv:
                    bi, bj, bv = i, j, v
        if bi < 0:
            break  # remaining block vanishes mod p**N
        A[t], A[bi] = A[bi], A[t]
        b[t], b[bi] = b[bi], b[t]
        if bj != t:
            for row in A:
                row[t], row[bj] = row[bj], row[t]
            for row in M:
                row[t], row[bj] = row[bj], row[t]
        u = A[t][t] // p**bv
        uinv = pow(u, -1, mod)
        for i in range(t + 1, m):
            e = A[i][t]
            if e:
                f = (e // p**bv) * uinv % mod
                A[i] = [(x - f * y) % mod for x, y in zip(A[i], A[t])]
                b[i] = (b[i] - f * b[t]) % mod
        for j in range(t + 1, n):
            e = A[t][j]
            if e:
                f = (e // p**bv) * uinv % mod
                A[t][j] = 0
                for row in M:
                    row[j] = (row[j] - f * row[t]) % mod
        piv.append((bv, u))
        t += 1
    for i in range(t, m):
        if b[i] % mod != 0:
            raise SystemSingularAtPrecision("inconsistent linear system")
    y = [0] * n
    for i, (v, u) in enumerate(piv):
        if b[i] % p**v != 0:
            raise SystemSingularAtPrecision("pivot does not divide the residual")
        y[i] = (b[i] // p**v) * pow(u, -1, p ** (N - v)) % p ** (N - v)
    return [sum(M[i][j] * y[j] for j in range(n) if y[j]) % mod for i in range(n)]


def smith_valuations(mat: list[list[int]], p: int, N: int) -> list[int]:
    """Valuations of the elementary divisors of mat over Z/p**N.

    Returned sorted ascending, each capped at N (N meaning the divisor
    is not visible, i.e. a kernel direction at this precision).  The
    pivot of each step is a global minimal-valuation entry of the
    remaining block, so it divides that whole block and row/column
    clearing is exact.
    """
    mod = p**N
    A = [[x % mod for x in row] for row in mat]
    m = len(A)
    n = len(A[0]) if m else 0
    out = []
    t = 0
    size = min(m, n)
    while t < size:
        bi = bj = -1
        bv = N
        for i in range(t, m):
            for j in range(t, n):
                v = pval(A[i][j], p, N)
                if v < bv:
                    bi, bj, bv = i, j, v
        if bi < 0:
            out.extend([N] * (size - t))
            break
        A[t], A[bi] = A[bi], A[t]
        for row in A:
            row[t], row[bj] = row[bj], row[t]
        u = A[t][t] // p**bv
        uinv = pow(u, -1, mod)
        for i in range(t + 1, m):
            e = A[i][t]
            if e:
                f = (e // p**bv) * uinv % mod
                A[i] = [(x - f * y) % mod for x, y in zip(A[i], A[t])]
        for j in range(t + 1, n):
            e = A[t][j]
            if e:
                f = (e // p**bv) * uinv % mod
                for i in range(t, m):
                    A[i][j] = (A[i][j] - f * A[i][t]) % mod
        out.append(bv)
        t += 1
    out.sort()
    return out
