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

from math import comb


def _order(p: int, K: int, mode: str) -> int:
    """p**n, the order of gamma and of h in G/N."""
    if mode == "charp":
        N = 1
        while N < K:
            N *= p
        return N
    return p ** (K - 1)


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


def project(p, K, mode, elems):
    """Rows of sum c_ab gamma**a h**b, each term (1 + X)**a (1 + Y)**b."""
    by_b = {}
    for (a, b), c in elems.items():
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
    return project(p, K, mode, out)
