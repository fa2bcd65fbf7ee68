"""Geometric-series inverses: the slow twins of `SkewSeries.inverse` and
of the coefficient kernel `vinv`, kept as differential oracles.

With c = (row 0)**-1, h = 1 - c*f lies in G_1, so the partial sum
(1 + h + ... + h**(K-1)) * c inverts f exactly mod G_K.  It costs K
full products at precision K, against about two per precision level
for the Newton iteration in the package.  The same sum over R/m**q
inverts a coefficient series with q - 1 products, against the single
coefficient recurrence of `vinv`.  The products go through the digit-loop
row kernels of `kernel_oracle`, not the package's packed ones.
"""

from __future__ import annotations

from skewseries import CoeffSeries, NotAUnit, SkewSeries
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
