"""`descend_ideal` against its product-by-product slow twin in
`descent_oracle.py`: the same (r, steps, trace) and the same exception
types, with the sigma-chain built once and at most one product per step
of the path."""

from __future__ import annotations

from random import Random

import pytest

from skewseries import (
    CoeffSeries,
    DegenerateAction,
    SkewData,
    VanishedAtPrecision,
    build_skew,
    descend_ideal,
)
from skewseries import iwasawa
from skewseries.precision import CHARP, INTEGRAL, PrecisionContext

import descent_oracle
from util import rand_coeff


def _fast(sd, zc):
    trace: list[int] = []
    r, steps = descend_ideal(sd, zc, trace=trace)
    return r, steps, trace


def _outcome(descent, sd, zc):
    """(r, steps, trace) of one descent, or the type of what it raised."""
    try:
        return descent(sd, zc)
    except Exception as exc:
        return type(exc)


def _deep(ctx, rng, c):
    """c times X**a * p**b with a, b up to K (each 0 half the time): a
    coefficient deep in m, which may vanish mid-descent or at once."""
    a = rng.choice((0, rng.randrange(ctx.K + 1)))
    b = rng.choice((0, rng.randrange(ctx.K + 1)))
    return ctx.p**b * (CoeffSeries(ctx, [0] * a + [1]) * c)


@pytest.mark.parametrize("deg", [0, 1, 2, 5, 8])
def test_descent_applies_sigma_at_most_degree_plus_one_times(deg, monkeypatch):
    sd = build_skew(PrecisionContext(3, 32, INTEGRAL), 4)
    rng = Random(f"descend-chain:{deg}")
    zc = [rand_coeff(sd.ctx, rng) for _ in range(deg)] + [CoeffSeries.one(sd.ctx)]
    want = descent_oracle.descend_ideal(sd, zc)
    apply_sigma = SkewData.apply_sigma
    calls = []

    def counted(self, r):
        calls.append(r)
        return apply_sigma(self, r)

    monkeypatch.setattr(SkewData, "apply_sigma", counted)
    trace: list[int] = []
    r, steps = descend_ideal(sd, zc, trace=trace)
    assert (r, steps, trace) == want
    assert len(calls) <= deg + 1


@pytest.mark.parametrize("mode", [INTEGRAL, CHARP])
@pytest.mark.parametrize("p", [2, 3, 5, 1000003])
def test_descent_matches_product_by_product_oracle(p, mode):
    rng = Random(f"descend-orders:{p}:{mode}")
    for eps in (1 + p, 1 + 2 * p, 1 + p * p):
        for K in (1, 2, 3, 5, 8, 17, 32):
            sd = build_skew(PrecisionContext(p, K, mode), eps)
            ctx = sd.ctx
            cases = [[CoeffSeries.zero(ctx)] * 3]
            for deg in range(9):
                monic = [rand_coeff(ctx, rng) for _ in range(deg)] + [CoeffSeries.one(ctx)]
                cases.append(monic)
                cases.append([_deep(ctx, rng, c) for c in monic])
                cases.append([_deep(ctx, rng, rand_coeff(ctx, rng)) for _ in range(deg + 1)])
            for zc in cases:
                want = _outcome(descent_oracle.descend_ideal, sd, zc)
                assert _outcome(_fast, sd, zc) == want, (eps, K, zc)


def test_descent_skips_degrees_and_raises():
    """Hand-made inputs for a step that drops the degree by more than one
    and for each of the three exceptions."""
    sd = build_skew(PrecisionContext(3, 8, INTEGRAL), 4)
    ctx = sd.ctx
    rng = Random("descend-skip")
    one = CoeffSeries.one(ctx)
    zc = [one, *(3**4 * rand_coeff(ctx, rng) for _ in range(4)), one]
    r, steps, trace = descent_oracle.descend_ideal(sd, zc)
    assert trace == [5, 4, 0] and steps == 2 < len(zc) - 1
    assert _outcome(_fast, sd, zc) == (r, steps, trace)
    fixed = build_skew(PrecisionContext(1000003, 8, CHARP), 1000004)  # sigma = id mod X**8
    assert _outcome(_fast, fixed, [CoeffSeries.one(fixed.ctx)]) is DegenerateAction
    assert _outcome(_fast, sd, [CoeffSeries.zero(ctx)]) is VanishedAtPrecision
    killed = [3**7 * one, one]  # c_0 reaches m**9 in one step
    assert _outcome(_fast, sd, killed) is VanishedAtPrecision


@pytest.mark.parametrize("deep", [False, True])
def test_descent_takes_at_most_degree_products(deep, monkeypatch):
    # the survivor is multiplied out by the digit kernel that iwasawa binds;
    # a product of CoeffSeries would count too
    sd = build_skew(PrecisionContext(3, 32, INTEGRAL), 4)
    ctx = sd.ctx
    rng = Random(f"descend-products:{deep}")
    inputs = []
    for deg in range(9):
        zc = [rand_coeff(ctx, rng) for _ in range(deg)] + [CoeffSeries.one(ctx)]
        inputs.append([_deep(ctx, rng, c) for c in zc] if deep else zc)
    products = []
    vmul, mul = iwasawa.vmul, CoeffSeries.__mul__

    def kernel(ctx, u, v, q):
        products.append(q)
        return vmul(ctx, u, v, q)

    def counted(self, other):
        products.append(other)
        return mul(self, other)

    monkeypatch.setattr(iwasawa, "vmul", kernel)
    monkeypatch.setattr(CoeffSeries, "__mul__", counted)
    monkeypatch.setattr(CoeffSeries, "__rmul__", counted)
    taken = 0
    for zc in inputs:
        del products[:]
        try:
            steps = descend_ideal(sd, zc)[1]
        except VanishedAtPrecision:
            steps = 0  # raised before any product
        assert len(products) == steps <= len(zc) - 1
        taken += steps
    assert taken  # the spy sees the products the descent takes
