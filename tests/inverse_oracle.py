"""The geometric-series inverse of a skew series: the slow twin of
`SkewSeries.inverse`, kept as a differential oracle.

With c = (row 0)**-1, h = 1 - c*f lies in G_1, so the partial sum
(1 + h + ... + h**(K-1)) * c inverts f exactly mod G_K.  It costs K
full products at precision K, against about two per precision level
for the Newton iteration in the package.
"""

from __future__ import annotations

from skewseries import CoeffSeries, NotAUnit, SkewSeries
from skewseries.coeff import vadd, vinv, vmul, vsub
from skewseries.series import _mul_rows, _packed, _y_powers


def geometric_inverse(f: SkewSeries) -> SkewSeries:
    sd = f.sd
    ctx = sd.ctx
    K = ctx.K
    if not f.is_unit():
        raise NotAUnit("row 0 is not a unit of the coefficient ring")
    c = vinv(ctx, f.rows[0], K)
    h = tuple(vmul(ctx, c, r, K - j) for j, r in enumerate(f.rows))  # c * f, row by row
    one = sd.one().rows
    h = tuple(vsub(ctx, a, b, K - j) for j, (a, b) in enumerate(zip(one, h)))
    acc = one
    for _ in range(K - 1):
        acc = _mul_rows(sd, h, _packed(sd, _y_powers(sd, acc)))
        acc = tuple(vadd(ctx, a, b, K - j) for j, (a, b) in enumerate(zip(acc, one)))
    cpows = _packed(sd, _y_powers(sd, sd.embed(CoeffSeries(ctx, c)).rows))
    return SkewSeries(sd, _mul_rows(sd, acc, cpows))
