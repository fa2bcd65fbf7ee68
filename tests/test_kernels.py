"""The reduce-once row kernels against their reduce-every-product twins,
and the rows that skip canonicalization against `_canon_rows`."""

from __future__ import annotations

from itertools import islice
from random import Random

import pytest

from skewseries import SkewSeries, build_skew, divide, prepare
from skewseries.precision import CHARP, INTEGRAL, PrecisionContext
from skewseries.series import _canon_rows, _horner, _mul_rows, _y_powers

import kernel_oracle as ko
from util import rand_coeff, rand_reduced_order, rand_series, rand_unit

GRID = [
    (p, eps, mode)
    for p in (2, 3, 5)
    for eps in (1, 1 + p)
    for mode in (INTEGRAL, CHARP)
]


@pytest.mark.parametrize("p, eps, mode", GRID)
def test_row_kernels_match_reduce_every_product_oracle(p, eps, mode):
    for K in (1, 2, 3, 8, 17):
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        rng = Random(f"kernels:{p}:{eps}:{mode}:{K}")
        for _ in range(4 if K <= 3 else 1):
            f, g = rand_series(sd, rng), rand_series(sd, rng)
            table = list(islice(_y_powers(sd, g.rows), K))
            assert table == list(islice(ko._y_powers(sd, g.rows), K))
            for lo in range(K + 1):
                assert _mul_rows(sd, f.rows, table, lo) == ko._mul_rows(sd, f.rows, table, lo)
            bs = [rand_coeff(sd.ctx, rng).coeffs for _ in range(K)]
            for coeffs in (f.rows, bs):
                assert _horner(sd, coeffs, sd._sig_pows) == ko._horner(sd, coeffs, sd.sig_vec)
                assert _horner(sd, coeffs, sd._isig_pows) == ko._horner(sd, coeffs, sd.isig_vec)


@pytest.mark.parametrize("p, eps, mode", GRID)
def test_trusted_rows_are_canonical(p, eps, mode, monkeypatch):
    wrap = SkewSeries._trusted.__func__
    calls = []

    def checked(cls, sd, rows):
        assert isinstance(rows, tuple)
        assert len(rows) == sd.ctx.K
        assert _canon_rows(sd, rows) == rows
        calls.append(sd.ctx.K)
        return wrap(cls, sd, rows)

    monkeypatch.setattr(SkewSeries, "_trusted", classmethod(checked))
    for K in (1, 2, 3, 8):
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        rng = Random(f"trusted:{p}:{eps}:{mode}:{K}")
        f, g = rand_series(sd, rng), rand_series(sd, rng)
        assert (f - g) + g == f * sd.one() == -(-f) == (3 + f) - 3
        rand_unit(sd, rng).inverse()
        SkewSeries.from_right_coefficients(sd, f.right_coefficients())
        for s in range(min(K, 3)):
            d = rand_reduced_order(sd, rng, s)
            divide(g, d)
            prepare(d)
    assert calls and max(calls) > 8  # the division ran at its lifted precision
