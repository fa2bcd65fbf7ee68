"""omega_n mod (F, p**M) from scratch, by square-and-multiply on the full
exponent p**n: the slow twin of the cyclotomic tower in
`skewseries.iwasawa`, kept as a differential oracle.

Each power here is recomputed for every n and every F, and multiplication
by X reduces its entries twice; the package takes each level as the p-th
power of the level before and reduces each entry once.
"""
from __future__ import annotations

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
    return rank, flag
