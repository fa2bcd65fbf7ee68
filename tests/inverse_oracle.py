"""Twins of `SkewSeries.inverse` and of the coefficient kernel `vinv`,
kept as differential oracles: geometric series, and Newton iteration.

With c = (row 0)**-1, h = 1 - c*f lies in G_1, so the partial sum
(1 + h + ... + h**(K-1)) * c inverts f exactly mod G_K.  It costs K
full products at precision K.  The same sum over R/m**q inverts a
coefficient series with q - 1 products, against the single coefficient
recurrence of `vinv`.  These products go through the digit-loop row
kernels of `kernel_oracle`, not the package's packed ones.

Newton iteration is the second twin of `SkewSeries.inverse`, whose block
triangular solve forms no product.  Each round squares the error 1 - f*x
and so doubles the filtration level to which x inverts f.  The rounds
run on a ladder of precisions, each at most twice the one before,
through ``SkewData.at_precision``, so only the last one pays for
products at full precision.  They use the package's packed products.
"""

from __future__ import annotations

from skewseries import CoeffSeries, NotAUnit, SkewSeries, change_precision
from skewseries.coeff import Vec, vadd, vcanon, vis_unit, vmul, vone, vsub
from skewseries.precision import PrecisionContext

from kernel_oracle import _mul_rows, _y_powers


def geometric_vinv(ctx: PrecisionContext, u: Vec, q: int) -> Vec:
    """Inverse mod m**q via the geometric series in h = 1 - u0^-1 u."""
    if not vis_unit(ctx, u):
        raise NotAUnit("constant term is not a unit")
    mods = ctx.slot_moduli(q)
    c = pow(u[0], -1, mods[0])
    h = vcanon(ctx, [(1 if a == 0 else 0) - c * x for a, x in enumerate(u)], q)
    acc = one = vone(ctx)
    for _ in range(q - 1):
        acc = vmul(ctx, h, acc, q)
        acc = vadd(ctx, acc, one, q)
    return vcanon(ctx, [c * x for x in acc], q)


def geometric_inverse(f: SkewSeries) -> SkewSeries:
    sd = f.sd
    ctx = sd.ctx
    K = ctx.K
    if not f.is_unit():
        raise NotAUnit("row 0 is not a unit of the coefficient ring")
    c = geometric_vinv(ctx, f.rows[0], K)
    h = tuple(vmul(ctx, c, r, K - j) for j, r in enumerate(f.rows))  # c * f, row by row
    one = sd.one().rows
    h = tuple(vsub(ctx, a, b, K - j) for j, (a, b) in enumerate(zip(one, h)))
    acc = one
    for _ in range(K - 1):
        acc = _mul_rows(sd, h, _y_powers(sd, acc))
        acc = tuple(vadd(ctx, a, b, K - j) for j, (a, b) in enumerate(zip(acc, one)))
    return SkewSeries(sd, _mul_rows(sd, acc, _y_powers(sd, sd.embed(CoeffSeries(ctx, c)).rows)))


def newton_inverse(f: SkewSeries) -> SkewSeries:
    """Two-sided inverse mod G_K by Newton iteration with precision doubling.

    x starts as the inverse of the row-0 constant mod p, which inverts f
    mod G_1.  If f*x = 1 - e with e in G_m, then x' = x + x*e gives
    f*x' = 1 - e**2 with e**2 in G_2m, so each round may run at up to
    twice the precision of the one before.  The levels are K, ceil(K/2),
    ceil(K/4), ..., 1, taken from the bottom up, so only the last round
    works at precision above K/2.
    """
    if not f.is_unit():
        raise NotAUnit("row 0 is not a unit of the coefficient ring")
    sd = f.sd
    ladder = [sd.ctx.K]
    while ladder[-1] > 1:
        ladder.append((ladder[-1] + 1) // 2)
    x = sd.at_precision(1).embed(pow(f.rows[0][0], -1, sd.ctx.p))
    for m in reversed(ladder[:-1]):
        sm = sd.at_precision(m)
        fm = change_precision(f, sm)
        x = change_precision(x, sm)
        x = x + x * (sm.one() - fm * x)
    return x
