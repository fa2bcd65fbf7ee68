"""Independent model of A/G_K as a quotient of a finite group ring.

A = R[[Y; sigma, delta]] is the Iwasawa algebra of G = Gamma x| H, with
X = gamma - 1 and Y = h - 1: the rule Y r = sigma(r) Y + delta(r) reads
h r = sigma(r) h, so h gamma h**-1 = gamma**eps.  Take n = K - 1
(integral) or the least n with p**n >= K (char p).  Then p**K,
gamma**(p**n) - 1 and h**(p**n) - 1 lie in G_K, and eps = 1 mod p makes
the subgroup N they generate normal.  So A/G_K is a quotient of the
group ring (Z/p**K)[G/N], F_p[G/N] in char p, where G/N is
Z/p**n x| Z/p**n with (a, b)(c, d) = (a + eps**b c, b + d).

X**i Y**j lifts to (gamma - 1)**i (h - 1)**j, and gamma**a h**b maps
back to (1 + X)**a (1 + Y)**b = sum C(a, i) C(b, j) X**i Y**j.  Products
use the group law alone: no sigma, delta, twist column or packing.
Elements are tuples of K rows, row j the X-digits of the coefficient of
Y**j, as ``SkewSeries.rows`` holds them; mode is "integral" or "charp".
Nothing here imports from the package under test.
"""

from __future__ import annotations

from collections import Counter
from itertools import count
from math import comb


def _order(p: int, K: int, mode: str) -> int:
    """p**n, the order of gamma and of h in G/N: p**(K - 1) (never below K)
    in integral mode, the least p**n >= K in char p."""
    N = 1 if mode == "charp" else p ** (K - 1)
    while N < K:
        N *= p
    return N


def canon(p, K, mode, rows):
    """K rows of K digits, digit i of row j reduced mod p**(K - i - j), or
    mod p in char p, and 0 once i + j >= K."""
    return tuple(
        tuple(
            0 if i + j >= K else x % (p if mode == "charp" else p ** (K - i - j))
            for i, x in enumerate(row)
        )
        for j, row in enumerate(rows)
    )


def lift(p, K, mode, rows):
    """sum f_ij (gamma - 1)**i (h - 1)**j as {(a, b): coefficient of gamma**a h**b}."""
    mod = p if mode == "charp" else p**K
    out = {}
    for j, row in enumerate(rows):
        for i, f in enumerate(row):
            if f:
                for a in range(i + 1):
                    fa = f * comb(i, a) * (-1) ** (i - a)
                    for b in range(j + 1):
                        out[a, b] = (out.get((a, b), 0) + fa * comb(j, b) * (-1) ** (j - b)) % mod
    return {k: c for k, c in out.items() if c}


def element(p, K, mode, terms):
    """Rows of sum c gamma**a h**b over terms {(a, b): c}, each term
    (1 + X)**a (1 + Y)**b."""
    by_b = {}
    for (a, b), c in terms.items():
        xs = by_b.setdefault(b, [0] * K)
        for i in range(K):
            xs[i] += c * comb(a, i)
    rows = [[0] * K for _ in range(K)]
    for b, xs in by_b.items():
        for j in range(K):
            cb = comb(b, j)
            for i in range(K - j):
                rows[j][i] += cb * xs[i]
    return canon(p, K, mode, rows)


def add(p, K, mode, f, g):
    """Rows of f + g."""
    return canon(p, K, mode, [[x + y for x, y in zip(r, s)] for r, s in zip(f, g)])


def mul(p, K, mode, eps, f, g):
    """Rows of f*g, multiplied in the group ring by (a, b)(c, d) = (a + eps**b c, b + d)."""
    N = _order(p, K, mode)
    gl = lift(p, K, mode, g).items()
    out = {}
    for (a, b), x in lift(p, K, mode, f).items():
        e = pow(eps, b, N)
        for (c, d), y in gl:
            key = ((a + e * c) % N, (b + d) % N)
            out[key] = out.get(key, 0) + x * y
    return element(p, K, mode, out)


def descend(p, K, mode, eps, zcoeffs):
    """(digits of r, steps) of the two-sided-ideal descent of b = sum c_j h**j,
    or None once every coefficient vanishes mod G_K.

    A step by the top visible degree s is b -> gamma**(eps**s) b - b gamma.
    As h**j gamma = gamma**(eps**j) h**j, it sends c gamma**a h**j to
    c (gamma**(a + eps**s) - gamma**(a + eps**j)) h**j, and kills h**s.
    """
    N = _order(p, K, mode)
    b = [lift(p, K, mode, [c]) for c in zcoeffs]  # c_j as {(a, 0): coefficient}
    for steps in count():
        digits = [element(p, K, mode, c)[0] for c in b]
        visible = [j for j, d in enumerate(digits) if any(d)]
        if not visible:
            return None
        if len(visible) == 1:
            return digits[visible[0]], steps
        s = visible[-1]
        b = [_step(c, pow(eps, s, N), pow(eps, j, N), N) for j, c in enumerate(b[:s])]


def _step(c, top, own, N):
    """sum x (gamma**(a + top) - gamma**(a + own)) over the terms x gamma**a of c."""
    out = Counter()
    for (a, _), x in c.items():
        out[(a + top) % N, 0] += x
        out[(a + own) % N, 0] -= x
    return out
