"""Coefficient ring: truncated series over p-adic scalars with slot moduli."""

from __future__ import annotations

from random import Random

import pytest

import skewseries.coeff
from skewseries import AtLeast, CoeffSeries, NotAUnit, PadicInt, PrecisionContext
from skewseries.coeff import vbinom, vcanon, vone, vorder
from skewseries.precision import CHARP, INTEGRAL

import group_ring_oracle as gro
import kernel_oracle as ko
from util import rand_coeff


def test_known_inverse():
    ctx = PrecisionContext(3, 3, INTEGRAL)
    assert CoeffSeries(ctx, (1, 1)).inverse().coeffs == (1, 8, 1)


def test_product_matches_naive_oracle():
    rng = Random(201)
    for _ in range(500):
        p = rng.choice((2, 3, 5))
        K = rng.randrange(1, 7)
        ctx = PrecisionContext(p, K, rng.choice((INTEGRAL, CHARP)))
        a = rand_coeff(ctx, rng)
        b = rand_coeff(ctx, rng)
        assert (a * b).coeffs == gro.mul(p, K, ctx.mode, 1, [a.coeffs], [b.coeffs])[0]


def test_ring_laws():
    rng = Random(202)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        K = rng.randrange(2, 6)
        ctx = PrecisionContext(p, K, rng.choice((INTEGRAL, CHARP)))
        a, b, c = (rand_coeff(ctx, rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert (a + b) * c == a * c + b * c
        assert a + b - b == a


def test_m_order_multiplicative():
    rng = Random(203)
    seen = 0
    for _ in range(1500):
        p = rng.choice((2, 3))
        K = rng.randrange(2, 7)
        ctx = PrecisionContext(p, K, rng.choice((INTEGRAL, CHARP)))
        a = rand_coeff(ctx, rng)
        b = rand_coeff(ctx, rng)
        oa, ob = a.m_order(), b.m_order()
        if isinstance(oa, AtLeast) or isinstance(ob, AtLeast):
            continue
        oab = (a * b).m_order()
        if oa + ob < K:
            assert oab == oa + ob
            seen += 1
        else:
            assert isinstance(oab, AtLeast) or oab >= K
    assert seen >= 1000


def test_m_order_values():
    ctx = PrecisionContext(3, 4, INTEGRAL)
    assert CoeffSeries(ctx, (0, 0, 1)).m_order() == 2          # X^2
    assert CoeffSeries(ctx, (9, 0, 0, 0)).m_order() == 2       # p^2
    assert CoeffSeries(ctx, (3, 1)).m_order() == 1             # p + X
    o = CoeffSeries.zero(ctx).m_order()
    assert isinstance(o, AtLeast) and o.bound == 4


def _v_by_division(x: int, p: int) -> int:
    """v_p(x) for x != 0, one division at a time."""
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


@pytest.mark.parametrize("mode", [INTEGRAL, CHARP])
@pytest.mark.parametrize("p", [2, 3, 7, 1000003])
def test_vorder_and_valuation_against_a_division_loop(p, mode):
    # digits p**e * r with e up to q, so capped and uncapped valuations
    # both occur, at every precision q < K
    rng = Random(f"vorder-valuation:{p}:{mode}")
    capped = 0
    for _ in range(400):
        K = rng.randrange(2, 9)
        ctx = PrecisionContext(p, K, mode)
        q = rng.randrange(K)
        vals = [p ** rng.randrange(q + 1) * rng.randrange(p**K) * rng.randrange(2) for _ in range(K)]
        u = vcanon(ctx, vals, q)
        orders = [a + (0 if mode == CHARP else _v_by_division(x, p)) for a, x in enumerate(u) if x]
        want = min(orders + [q])
        assert vorder(ctx, u, q) == want
        capped += want == q
        prec = rng.randrange(1, K + 1)
        a = PadicInt(p, p ** rng.randrange(prec + 1) * rng.randrange(1, p**prec), prec)
        v = a.valuation()
        if a.residue == 0:
            assert v == AtLeast(prec)
        else:
            assert v == _v_by_division(a.residue, p) < prec
    assert 0 < capped < 400


def test_unit_iff_constant_unit():
    rng = Random(204)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        K = rng.randrange(1, 6)
        ctx = PrecisionContext(p, K, rng.choice((INTEGRAL, CHARP)))
        a = rand_coeff(ctx, rng)
        if a.coeffs[0] % p != 0:
            assert a.is_unit()
            inv = a.inverse()
            assert a * inv == CoeffSeries.one(ctx)
            assert inv * a == CoeffSeries.one(ctx)
        else:
            assert not a.is_unit()
            with pytest.raises(NotAUnit):
                a.inverse()


def naive_compose(ctx, f, t):
    """f(t(X)) via repeated products in the group-ring model; t must lie in m."""
    K = ctx.K
    moduli = ctx.slot_moduli(K)
    acc = [0] * K
    power = [1] + [0] * (K - 1)
    for i in range(K):
        if i > 0:
            power = gro.mul(ctx.p, K, ctx.mode, 1, [power], [t])[0]
        acc = [x + f[i] * y for x, y in zip(acc, power)]
    return tuple(v % m for v, m in zip(acc, moduli))


def test_int_minus_a_series_is_the_int_minus_the_series():
    ctx = PrecisionContext(3, 4, INTEGRAL)
    c = CoeffSeries(ctx, (1, 2))  # 1 + 2X
    assert 3 - c == CoeffSeries(ctx, (2, -2))


def test_compose_against_naive_oracle():
    rng = Random(205)
    for _ in range(200):
        p = rng.choice((2, 3))
        K = rng.randrange(1, 6)
        ctx = PrecisionContext(p, K, rng.choice((INTEGRAL, CHARP)))
        f = rand_coeff(ctx, rng)
        t = rand_coeff(ctx, rng, in_m=True)
        assert f.compose(t).coeffs == naive_compose(ctx, f.coeffs, t.coeffs)


def test_compose_laws():
    rng = Random(206)
    for _ in range(150):
        p = rng.choice((2, 3))
        K = rng.randrange(2, 6)
        ctx = PrecisionContext(p, K, INTEGRAL)
        f = rand_coeff(ctx, rng)
        g = rand_coeff(ctx, rng)
        t = rand_coeff(ctx, rng, in_m=True)
        u = rand_coeff(ctx, rng, in_m=True)
        x = CoeffSeries.x(ctx)
        assert f.compose(x) == f
        assert (f * g).compose(t) == f.compose(t) * g.compose(t)
        assert (f + g).compose(t) == f.compose(t) + g.compose(t)
        assert f.compose(t).compose(u) == f.compose(t.compose(u))


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 5, 1000003))
def test_vbinom_against_repeated_squaring(p, mode):
    # the oracle squares the exponent as given; vbinom reduces it mod p**K
    rng = Random(f"vbinom-{p}-{mode}")
    for K in (1, 2, 5, 17):
        ctx = PrecisionContext(p, K, mode)
        big = rng.randrange(p ** (K + 5), p ** (K + 6))
        for e in (0, 1, p, 1 + p, p**2, p**3, p**K, p**K + 1, big):
            assert ko._add(ctx, vbinom(ctx, e), vone(ctx), K) == ko.one_plus_x_pow(ctx, e)


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 1000003))
def test_vbinom_takes_one_modular_inverse(p, mode, monkeypatch):
    inverses = []

    def spy(*args):
        if len(args) == 3:
            inverses.append(args)
        return pow(*args)

    monkeypatch.setattr(skewseries.coeff, "pow", spy, raising=False)
    for K in (1, 2, 5, 17, 64):
        ctx = PrecisionContext(p, K, mode)
        for e in (1 + p, -1, p**K - 1):
            inverses.clear()
            vbinom(ctx, e)
            assert len(inverses) == 1


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 1000003))
def test_int_factor_scales_the_digits(p, mode, monkeypatch):
    rng = Random(f"int-times-coeff-{p}-{mode}")
    cases = []
    for K in (1, 2, 17):
        ctx = PrecisionContext(p, K, mode)
        for c in (0, 1, -1, p, -(p**K), rng.getrandbits(200)):
            f = rand_coeff(ctx, rng)
            cases.append((c, f, CoeffSeries(ctx, (c,)) * f))
    vmuls = []
    monkeypatch.setattr("skewseries.coeff.vmul", lambda *a: vmuls.append(a))
    for c, f, want in cases:
        assert c * f == f * c == want
    assert vmuls == []
