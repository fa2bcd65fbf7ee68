"""Shared random generators for the test suite.

``rand_coeff`` and ``rand_series`` are selfcheck's own generators, so the
two draw the same values from the same stream.  ``rand_unit`` differs
from selfcheck's: it lifts a non-unit constant by 1 + randrange(p - 1),
not by 1, and the tests' data depend on that draw.
"""

from __future__ import annotations

from random import Random

from skewseries import CoeffSeries, SkewData, SkewSeries
from skewseries.selfcheck import _rand_coeff as rand_coeff
from skewseries.selfcheck import _rand_series as rand_series

__all__ = ["rand_coeff", "rand_series", "rand_unit", "rand_reduced_order"]


def rand_unit(sd: SkewData, rng: Random) -> SkewSeries:
    f = rand_series(sd, rng)
    rows = [f.row(j) for j in range(sd.ctx.K)]
    r0 = list(rows[0].coeffs)
    if r0[0] % sd.ctx.p == 0:
        r0[0] += 1 + rng.randrange(sd.ctx.p - 1)
    rows[0] = CoeffSeries(sd.ctx, r0)
    return SkewSeries(sd, [r.coeffs for r in rows])


def rand_reduced_order(sd: SkewData, rng: Random, s: int) -> SkewSeries:
    """Random series whose reduced order is exactly s: rows below s lie in
    the maximal ideal, row s is a unit of the coefficient ring."""
    K = sd.ctx.K
    assert 0 <= s < K
    rows = []
    for j in range(K):
        vals = [rng.randrange(m) for m in sd.ctx.slot_moduli(K - j)]
        if j < s:
            vals[0] -= vals[0] % sd.ctx.p
        if j == s and vals[0] % sd.ctx.p == 0:
            vals[0] += 1 + rng.randrange(sd.ctx.p - 1)
        rows.append(vals)
    return SkewSeries(sd, rows)
