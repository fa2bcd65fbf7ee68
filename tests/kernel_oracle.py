"""The row kernels of `skewseries.series` with a reduction after every
product: the slow twins of the package's reduce-once kernels, kept as a
differential oracle.

Here each twist is reduced before the Y-step reduces the row again, and
each Cauchy product is reduced before the row sum is reduced
again.  The package builds raw sums of packed rows and reduces each
output row once; since G_K is a two-sided ideal and slot reduction
commutes with + and *, the rows must not change.  The twist is passed
as a map ``(u, q) -> canonical vector``: ``sigma(sd)`` for left rows,
``sigma_inv(sd)`` for the right rows of f * Y.  Both apply the twist
digit by digit over powers of sigma^(+-1)(X) built here: (1 + X)**e - 1
by repeated squaring (``one_plus_x_pow``), then its powers by a
digit-loop product.  They share no code with the package's closed form
or packed columns.  ``power_sum`` sums the powers of one series by
doubling, the slow twin of the package's binomial sums for xi_n and the
normality unit.

The oracle reduces with ``_canon``, a loop over the digits that calls
``%`` only where the slot modulus exceeds 1, and builds its own sums and
products on it; the package's ``vcanon`` maps ``%`` over every slot and
is the code under test.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from skewseries import SkewData
from skewseries.coeff import Vec, vone, vzero
from skewseries.precision import PrecisionContext

Rows = tuple[Vec, ...]
Twist = Callable[[Vec, int], Vec]


def _canon(ctx: PrecisionContext, vals: Sequence[int], q: int) -> Vec:
    """The first K digits of ``vals`` reduced by the slot moduli at precision q."""
    mods = ctx.slot_moduli(q)
    K = ctx.K
    out = [0] * K
    for a in range(min(K, len(vals))):
        m = mods[a]
        if m > 1:
            out[a] = vals[a] % m
    return tuple(out)


def _add(ctx: PrecisionContext, u: Vec, v: Vec, q: int) -> Vec:
    return _canon(ctx, [x + y for x, y in zip(u, v)], q)


def _mul(ctx: PrecisionContext, u: Vec, v: Vec, q: int) -> Vec:
    """The Cauchy product of u and v below slot q, digit by digit."""
    lim = min(ctx.K, q)
    acc = [0] * lim
    for a in range(lim):
        for b in range(lim - a):
            acc[a + b] += u[a] * v[b]
    return _canon(ctx, acc, q)


def _apply(sd: SkewData, pows: Sequence[Vec], u: Vec, q: int) -> list[int]:
    """Raw digits of sum_a u_a * pows[a] in the slots below q, schoolbook."""
    lim = min(sd.ctx.K, q)
    acc = [0] * lim
    for a in range(lim):
        c = u[a]
        if c:
            pa = pows[a]
            for b in range(a, lim):
                x = pa[b]
                if x:
                    acc[b] += c * x
    return acc


def one_plus_x_pow(ctx: PrecisionContext, e: int) -> Vec:
    """(1 + X)**e mod m**K for e >= 0, by repeated squaring of the exponent as given."""
    K = ctx.K
    res, base = vone(ctx), _canon(ctx, (1, 1), K)
    while e:
        if e & 1:
            res = _mul(ctx, res, base, K)
        base = _mul(ctx, base, base, K)
        e >>= 1
    return res


def power_sum(ctx: PrecisionContext, y: Vec, count: int) -> Vec:
    """sum_(i < count) y**i mod m**K, by doubling: S(2c) = S(c) * (1 + y**c)."""
    K = ctx.K
    acc, pw = vzero(ctx), vone(ctx)  # S(c) and y**c, from c = 0
    for bit in bin(count)[2:]:
        acc = _add(ctx, acc, _mul(ctx, acc, pw, K), K)
        pw = _mul(ctx, pw, pw, K)
        if bit == "1":  # S(c + 1) = S(c) + y**c
            acc = _add(ctx, acc, pw, K)
            pw = _mul(ctx, pw, y, K)
    return acc


def twisted_x(sd: SkewData, inverse: bool = False) -> Vec:
    """sigma(X) = (1 + X)**eps - 1, or sigma^-1(X) with eps**-1, by squaring."""
    ctx = sd.ctx
    q = ctx.p**ctx.K
    res = one_plus_x_pow(ctx, pow(sd.epsilon_raw, -1, q) if inverse else sd.epsilon_raw % q)
    return _canon(ctx, (res[0] - 1,) + res[1:], ctx.K)


@lru_cache(maxsize=None)
def powers(sd: SkewData, inverse: bool) -> tuple[Vec, ...]:
    """The powers 0 .. K-1 of ``twisted_x(sd, inverse)``, cached per twist."""
    ctx = sd.ctx
    t = twisted_x(sd, inverse)
    pows = [vone(ctx)]
    for _ in range(ctx.K - 1):
        pows.append(_mul(ctx, pows[-1], t, ctx.K))
    return tuple(pows)


def sigma(sd: SkewData) -> Twist:
    return lambda u, q: _canon(sd.ctx, _apply(sd, powers(sd, False), u, q), q)


def sigma_inv(sd: SkewData) -> Twist:
    return lambda u, q: _canon(sd.ctx, _apply(sd, powers(sd, True), u, q), q)


def _y_step(sd: SkewData, rows: Rows, twist: Twist) -> Rows:
    """Rows of Y * f: row j becomes t(f_(j-1)) + (t - id)(f_j), t = ``twist``.

    With t = sigma(sd) these are left rows; with t = sigma_inv(sd) they
    are the right rows of f * Y, by s Y = Y sigma^-1(s) + (sigma^-1 - id)(s).
    """
    ctx = sd.ctx
    K = ctx.K
    sig = [twist(r, K - j) if any(r) else r for j, r in enumerate(rows)]
    out = []
    for j in range(K):
        acc = [0] * K
        if j >= 1 and any(sig[j - 1]):
            acc = list(sig[j - 1])
        if any(rows[j]):
            d = sig[j]
            r = rows[j]
            acc = [x + y - z for x, y, z in zip(acc, d, r)]
        out.append(_canon(ctx, acc, K - j))
    return tuple(out)


def _horner(sd: SkewData, coeffs: Sequence[Vec], twist: Twist) -> Rows:
    """Rows of c_0 + Y(c_1 + Y(c_2 + ...)) under the Y-step of ``twist``."""
    ctx = sd.ctx
    K = ctx.K
    coeffs = list(coeffs[:K])  # Y**j c_j lies in G_K for j >= K
    while coeffs and not any(coeffs[-1]):
        coeffs.pop()
    rows = (_canon(ctx, coeffs[-1] if coeffs else (), K),) + (vzero(ctx),) * (K - 1)
    for c in reversed(coeffs[:-1]):
        rows = _y_step(sd, rows, twist)
        rows = (_add(ctx, rows[0], c, K),) + rows[1:]
    return rows


def _y_powers(sd: SkewData, gr: Rows) -> Iterator[Rows]:
    """Rows of g, Y*g, Y**2*g, ...: one Y-step per power, taken on demand."""
    twist = sigma(sd)
    while True:
        yield gr
        gr = _y_step(sd, gr, twist)


def _mul_rows(sd: SkewData, fr: Rows, gpows: Iterable[Rows], lo: int = 0) -> Rows:
    """Rows of f*g from the rows of f and the powers Y**i g in ``gpows``.

    Only rows >= ``lo`` are computed; the rows below it are left zero.
    """
    ctx = sd.ctx
    K = ctx.K
    top = -1
    for j in range(K - 1, -1, -1):
        if any(fr[j]):
            top = j
            break
    acc = [[0] * K for _ in range(K)]
    # zip reads fr first, so no Y-step is taken past Y**top g
    for fi, cur in zip(fr[: top + 1], gpows):
        if any(fi):
            for j in range(lo, K):
                cj = cur[j]
                if any(cj):
                    prod = _mul(ctx, fi, cj, K - j)
                    row = acc[j]
                    for a in range(K):
                        row[a] += prod[a]
    return (vzero(ctx),) * lo + tuple(_canon(ctx, acc[j], K - j) for j in range(lo, K))
