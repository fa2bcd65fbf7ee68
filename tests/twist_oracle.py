"""Right-coefficient basis changes through whole twist tables: the slow
twin of `SkewSeries.right_coefficients` and `from_right_coefficients`,
kept as a differential oracle.

Row j of the twist table of r lists (Y**j r)_0 .. (Y**j r)_j, the
left-coefficient rows of Y**j r, so summing row j of the table of b_j
over j turns sum_j Y**j b_j into left rows.  The other direction reads
the same tables of the inverse twist: s Y = Y sigma^-1(s) + delta'(s)
with delta' = sigma^-1 - id is the commutation rule of the opposite
ring, whose left coefficients are the right coefficients here, so row
j of the sigma^-1-table of a_j holds the right coefficients of a_j Y**j.
Each table costs about j**2/2 applications of the twist at full
precision, against one Y-step per coefficient for Horner's rule in the
package.  The tables are the rows of `SkewData._twist_rows`, which
builds them afresh on every call.
"""

from __future__ import annotations

from typing import Sequence

from skewseries import CoeffSeries, SkewData, SkewSeries, build_skew


def twist_table(sd: SkewData, r: CoeffSeries, n: int) -> list[list[CoeffSeries]]:
    """Rows 0..n of (Y**m r)_i as full-precision coefficient series."""
    sd.ctx.check_same(r.ctx)
    return [[CoeffSeries(sd.ctx, e) for e in row] for row in sd._twist_rows(r.coeffs, n)]


def _sum_table_rows(sd: SkewData, coeffs: Sequence[CoeffSeries]) -> list[list[int]]:
    K = sd.ctx.K
    out = [[0] * K for _ in range(K)]
    for j, c in enumerate(coeffs[:K]):
        if c.is_zero():
            continue
        for i, e in enumerate(twist_table(sd, c, j)[j]):
            out[i] = [x + y for x, y in zip(out[i], e.coeffs)]
    return out


def inverse_twist(sd: SkewData) -> SkewData:
    """The twist with sigma^-1 as its automorphism, over the same context."""
    ctx = sd.ctx
    return build_skew(ctx, pow(sd.epsilon_raw, -1, ctx.p**ctx.K))


def table_right_coefficients(f: SkewSeries) -> list[CoeffSeries]:
    sd_inv = inverse_twist(f.sd)
    ctx = f.sd.ctx
    out = _sum_table_rows(sd_inv, [CoeffSeries(ctx, r) for r in f.rows])
    return [SkewSeries(f.sd, out).row(i) for i in range(ctx.K)]


def table_from_right_coefficients(sd: SkewData, bcoeffs: Sequence[CoeffSeries]) -> SkewSeries:
    return SkewSeries(sd, _sum_table_rows(sd, bcoeffs))
