"""The linear system of Weierstrass division built and solved whole: the
slow twin of `skewseries.weierstrass.divide_oracle`, kept as a
differential oracle.

Digit (n, b) of the rows n >= s of g = q*f + rem is one congruence in
the digits (j, a) of q, all of them numbered in one row-major list of
slots.  In integral mode the congruence mod p**(K'-n-b) is scaled by
p**(n+b) into the uniform modulus p**K'; in char-p mode everything
lives mod p.  Here the whole system, 45 x 66 at p = 3, K = 5, s = 2,
is eliminated at once, and the table of Y**j * f comes from full
products.  The package factors one block's matrix and replays it, by
forward substitution, on the K X-degree blocks that reach the output,
and reads the table from its Y-steps.
"""

from __future__ import annotations

from skewseries import SkewSeries, change_precision
from skewseries.linalg import _eliminate, solve_mod_prime_power
from skewseries.precision import INTEGRAL
from skewseries.weierstrass import _gauge_free_precision


def solve_whole(rows: list[list[int]], rhs: list[int], p: int, N: int) -> list[int]:
    """One solution of A x = c over Z/p**N: one elimination, replayed on c."""
    mod = p**N
    return solve_mod_prime_power(_eliminate([[a % mod for a in r] for r in rows], p, N), rhs, p, N)


def division_system(g: SkewSeries, f: SkewSeries, s: int):
    """(rows, rhs, p, N, slots) at K' = s*K + 1; slots lists the (j, a) of q."""
    sd = f.sd
    p = sd.ctx.p
    big = sd.at_precision(_gauge_free_precision(s, sd.ctx.K))
    Kb = big.ctx.K
    gb, fb = change_precision(g, big), change_precision(f, big)
    # digit (n, b) of X**a * Y**j * f is yjf[j][n][b - a]
    yjf = [(big.y(j) * fb).rows for j in range(Kb)]
    slots = [(j, a) for j in range(Kb) for a in range(Kb - j)]
    integral = sd.ctx.mode == INTEGRAL
    rows, rhs = [], []
    for n in range(s, Kb):
        for b in range(Kb - n):
            scale = p ** (n + b) if integral else 1
            rows.append([yjf[j][n][b - a] * scale if a <= b else 0 for j, a in slots])
            rhs.append(gb.rows[n][b] * scale)
    return rows, rhs, p, Kb if integral else 1, slots


def divide_oracle(g: SkewSeries, f: SkewSeries) -> tuple[SkewSeries, SkewSeries]:
    """(q, rem) from one solve of the whole system; s >= 1 assumed."""
    sd = f.sd
    s = f.reduced_order()
    rows, rhs, p, N, slots = division_system(g, f, s)
    big = sd.at_precision(_gauge_free_precision(s, sd.ctx.K))
    Kb = big.ctx.K
    x = solve_whole(rows, rhs, p, N)
    q = [[0] * (Kb - j) for j in range(Kb)]
    for (j, a), v in zip(slots, x):
        q[j][a] = v
    qb = SkewSeries(big, q)
    rem = change_precision(g, big) - qb * change_precision(f, big)
    return change_precision(qb, sd), change_precision(SkewSeries(big, rem.rows[:s]), sd)
