"""omega_n mod (F, p**M) from scratch, by square-and-multiply on the full
exponent p**n: the slow twin of the cyclotomic tower in
`skewseries.iwasawa`, kept as a differential oracle.

Each power here is recomputed for every n and every F, and multiplication
by X reduces its entries twice; the package takes each level as the p-th
power of the level before and reduces each entry once.

The exact rank over Z_p, deg gcd(F, omega_n), comes from Euclid's
algorithm in Z[X] (a primitive remainder sequence), where the package
tests each cyclotomic factor xi_k that could divide F with one big-int
congruence.  A corank at precision M above it is flagged, as in the
package.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb, gcd

from skewseries.iwasawa import _smith_rank


def _poly_xmul(v: list[int], F: tuple[int, ...], mod: int) -> list[int]:
    D = len(F) - 1
    out = [0] + v[: D - 1] if D > 1 else [0]
    top = v[D - 1]
    if top:
        out = [(x - top * c) % mod for x, c in zip(out, F[:D])]
    return [x % mod for x in out]


def _poly_mul_mod(
    a: list[int], b: list[int], F: tuple[int, ...], mod: int
) -> list[int]:
    D = len(F) - 1
    out = [0] * D
    xa = list(a)
    for c in b:
        if c:
            for i in range(D):
                out[i] = (out[i] + c * xa[i]) % mod
        xa = _poly_xmul(xa, F, mod)
    return out


def _omega_mod(p: int, F: tuple[int, ...], n: int, M: int) -> list[int]:
    """omega_n reduced in (Z/p**M)[X]/F."""
    D = len(F) - 1
    mod = p**M
    base = [1, 1][:D] + [0] * max(0, D - 2)
    if D == 1:
        base = [(1 - F[0]) % mod]  # X = -a0 in the quotient
    res = [1] + [0] * (D - 1)
    e = p**n
    while e:
        if e & 1:
            res = _poly_mul_mod(res, base, F, mod)
        e >>= 1
        if e:
            base = _poly_mul_mod(base, base, F, mod)
    res[0] = (res[0] - 1) % mod
    return res


def _coinvariant(
    p: int, F: tuple[int, ...], n: int, M: int, guard: int
) -> tuple[int, bool]:
    D = len(F) - 1
    om = _omega_mod(p, F, n, M)
    mod = p**M
    cols = []
    v = om
    for _ in range(D):
        cols.append(v)
        v = _poly_xmul(v, F, mod)
    matrix = [[cols[a][i] for a in range(D)] for i in range(D)]
    _, rank, flag = _smith_rank(matrix, p, M, guard)
    return rank, flag or rank > exact_rank(p, F, n)


def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b in Z[X], made primitive, zeros dropped."""
    a = list(a)
    while a and len(a) >= len(b):
        c, lb = a[-1], b[-1]
        a = [x * lb for x in a]
        for i in range(len(b)):
            a[len(a) - len(b) + i] -= c * b[i]
        a.pop()
        while a and a[-1] == 0:
            a.pop()
    g = gcd(*a)
    return [x // g for x in a]


@lru_cache(maxsize=None)
def exact_rank(p: int, F: tuple[int, ...], n: int) -> int:
    """deg gcd(F, omega_n) over Q, the Z_p-rank of Z_p[X]/(F, omega_n).

    omega_n is squarefree and its factors past the first of degree above
    deg F cannot divide F, so the level is capped where p**(n-1) * (p - 1)
    first exceeds deg F.  The gcd's degree comes from the primitive
    remainder sequence of omega_n and F in Z[X].
    """
    D = len(F) - 1
    while n > 0 and p ** (n - 1) * (p - 1) > D:
        n -= 1
    a, b = [0] + [comb(p**n, k) for k in range(1, p**n + 1)], list(F)
    while b:
        a, b = b, _prem(a, b)
    return len(a) - 1
