"""Twist data: sigma, delta, twist tables, and the axiom checker."""

from __future__ import annotations

import sys
import threading
import tracemalloc
from random import Random

import pytest

from skewseries import (
    AtLeast,
    CoeffSeries,
    InvalidAction,
    build_skew,
    validate_axioms,
)
from skewseries.coeff import vorder
from skewseries.precision import CHARP, INTEGRAL, PrecisionContext
from skewseries.skew import EPSILON_GUARD, TWIST_CACHE_SIZE

import kernel_oracle as ko
from util import rand_coeff, rand_unit


def test_sigma_of_x_known_value():
    # sigma(X) = (1+X)^4 - 1 = 4X + 6X^2 + 4X^3 + ...; at K=4 the X^3
    # slot is stored mod 3, so 4 canonicalizes to 1.
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    x = CoeffSeries.x(sd.ctx)
    assert sd.apply_sigma(x).coeffs == (0, 4, 6, 1)
    assert sd.apply_delta(x).coeffs == (0, 3, 6, 1)


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 5, 1000003))
def test_closed_form_twist_matches_vpow_route(p, mode):
    # sigma^(+-1)(X) from binomial coefficients against (1 + X)**e - 1 by
    # repeated squaring, and the packed powers against digit-loop products
    for K in (1, 2, 5, 17, 32):
        ctx = PrecisionContext(p, K, mode)
        x = CoeffSeries.x(ctx)
        for eps in (1, 1 + p, 1 + p * (p**K - 1)):
            sd = build_skew(ctx, eps)
            sig, isig = sd.apply_sigma(x), sd.opposite().apply_sigma(x)
            assert sig.coeffs == ko.twisted_x(sd)
            assert isig.coeffs == ko.twisted_x(sd, inverse=True)
            # what the constructor relies on without checking: sigma(X)
            # has m-order 1, delta(X) lies in m**2, sigma^-1(sigma(X)) = X
            assert vorder(ctx, sig.coeffs, K) == 1
            assert vorder(ctx, sd.apply_delta(x).coeffs, K) >= min(2, K)
            assert isig.compose(sig) == x
            for cols, inverse in ((sd._sig_cols, False), (sd.opposite()._sig_cols, True)):
                assert tuple(tuple(sd.unpack(c, K)) for c in cols) == ko.powers(sd, inverse)


def test_epsilon_validation():
    ctx = PrecisionContext(3, 4, INTEGRAL)
    build_skew(ctx, 1)
    build_skew(ctx, 4)
    with pytest.raises(InvalidAction):
        build_skew(ctx, 2)
    with pytest.raises(InvalidAction):
        build_skew(ctx, -2)


def test_exponent_insensitivity_beyond_guard():
    # The action only sees epsilon mod p**(K + EPSILON_GUARD).
    ctx = PrecisionContext(3, 4, INTEGRAL)
    sd1 = build_skew(ctx, 4)
    sd2 = build_skew(ctx, 4 + 3 ** (4 + EPSILON_GUARD) * 5)
    assert sd1 == sd2
    rng = Random(301)
    for _ in range(50):
        r = rand_coeff(ctx, rng)
        assert sd1.apply_sigma(r) == sd2.apply_sigma(r)


def test_sigma_is_ring_map_and_invertible():
    rng = Random(302)
    for p, K, mode, eps in ((2, 5, INTEGRAL, 3), (3, 4, CHARP, 4), (5, 3, INTEGRAL, 11)):
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        for _ in range(100):
            a = rand_coeff(sd.ctx, rng)
            b = rand_coeff(sd.ctx, rng)
            assert sd.apply_sigma(a * b) == sd.apply_sigma(a) * sd.apply_sigma(b)
            assert sd.apply_sigma(a + b) == sd.apply_sigma(a) + sd.apply_sigma(b)
            assert sd.opposite().apply_sigma(sd.apply_sigma(a)) == a
            assert sd.apply_sigma(sd.opposite().apply_sigma(a)) == a


def test_delta_twisted_leibniz():
    rng = Random(303)
    for p, K, mode, eps in ((2, 4, INTEGRAL, 3), (3, 4, INTEGRAL, 4), (3, 3, CHARP, 7)):
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        for _ in range(100):
            a = rand_coeff(sd.ctx, rng)
            b = rand_coeff(sd.ctx, rng)
            assert sd.apply_delta(a * b) == sd.apply_delta(a) * b + sd.apply_sigma(a) * sd.apply_delta(b)


def test_delta_lands_in_and_deepens_m():
    rng = Random(304)
    sd = build_skew(PrecisionContext(3, 5, INTEGRAL), 4)
    for _ in range(200):
        a = rand_coeff(sd.ctx, rng)
        d = sd.apply_delta(a)
        od = d.m_order()
        assert isinstance(od, AtLeast) or od >= 1
        oa = a.m_order()
        if not isinstance(oa, AtLeast):
            # delta gains at least one m-level over its argument
            assert isinstance(od, AtLeast) or od >= oa + 1


def test_commutative_degeneration_of_twist():
    # epsilon = 1: sigma is the identity and delta vanishes.
    rng = Random(305)
    for mode in (INTEGRAL, CHARP):
        sd = build_skew(PrecisionContext(5, 4, mode), 1)
        for _ in range(50):
            a = rand_coeff(sd.ctx, rng)
            assert sd.apply_sigma(a) == a
            assert sd.apply_delta(a).is_zero()


def test_high_power_of_y_builds_no_rows_past_k():
    # Y**power lies in G_K once power >= K; a huge power costs no memory
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    assert sd.y(3).rows[3][0] == 1 and sd.y(4) == sd.zero()
    tracemalloc.start()
    try:
        assert sd.y(10**6) == sd.zero()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_twist_table_cache_consistency():
    # A fresh SkewData has an empty cache, so its table is computed anew.
    rng = Random(306)
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    for _ in range(20):
        r = rand_coeff(sd.ctx, rng)
        n = rng.randrange(0, 5)
        assert sd.twist_table(r, n) == build_skew(sd.ctx, 4).twist_table(r, n)
    # More distinct rows than the cache holds: the oldest are evicted,
    # and recomputing an evicted table gives the same rows.
    fresh = [CoeffSeries(sd.ctx, (i % 81, i // 81)) for i in range(TWIST_CACHE_SIZE + 100)]
    for r in fresh:
        sd.twist_table(r, 2)
    assert len(sd._twist) <= TWIST_CACHE_SIZE
    for r in fresh[:5] + fresh[-5:]:
        assert sd.twist_table(r, 3) == build_skew(sd.ctx, 4).twist_table(r, 3)
    assert len(sd._twist) <= TWIST_CACHE_SIZE


def test_twist_cache_keeps_recently_used_rows():
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    kept = CoeffSeries(sd.ctx, (1, 1, 1))
    sd.twist_table(kept, 1)
    for i in range(2 * TWIST_CACHE_SIZE):
        sd.twist_table(CoeffSeries(sd.ctx, (i % 81, i // 81)), 1)
        if i % 100 == 0:
            sd.twist_table(kept, 1)
    assert kept.coeffs in sd._twist


def test_at_precision_and_inverse_under_threads():
    sd = build_skew(PrecisionContext(3, 9, INTEGRAL), 4)
    unit = rand_unit(sd, Random(307))
    levels = list(range(1, 20))
    n_threads = 8
    lifts: list[dict[int, object]] = [{} for _ in range(n_threads)]
    inverses: list[object] = [None] * n_threads

    def work(i: int) -> None:
        order = levels[:]
        Random(i).shuffle(order)
        for K in order:
            lifts[i][K] = sd.at_precision(K)
        inverses[i] = unit.inverse()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    for t in threads:
        assert not t.is_alive()
    for K in levels:
        assert all(lift[K] is lifts[0][K] for lift in lifts)
    assert all(v is not None and v == inverses[0] for v in inverses)
    assert unit * inverses[0] == sd.one()


def test_twist_table_first_rows():
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    x = CoeffSeries.x(sd.ctx)
    table = sd.twist_table(x, 1)
    assert table[0] == [x]
    # Y x = delta(x) + sigma(x) Y
    assert table[1][0] == sd.apply_delta(x)
    assert table[1][1] == sd.apply_sigma(x)


def test_axiom_report():
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    report = validate_axioms(sd, samples=60, seed=9)
    assert report.passed
    assert report.samples == 60
    d = report.to_dict()
    assert d["passed"] is True
    assert {c["name"] for c in d["checks"]} >= {
        "sigma_is_ring_map",
        "delta_twisted_leibniz",
        "delta_lands_in_m",
    }


@pytest.mark.parametrize("p", (2, 3, 1000003))
def test_axiom_report_passes_every_sample_in_charp_mode(p):
    # char-p draws go through selfcheck's law, digit a below p**(K - a)
    sd = build_skew(PrecisionContext(p, 5, CHARP), 1 + p)
    report = validate_axioms(sd, samples=40, seed=p)
    assert [(c.passes, c.failures) for c in report.checks] == [(40, 0)] * 6


def test_twists_over_one_context_share_the_packing():
    # the packing depends on the context only, so the opposite twist lends it
    for p, K in ((3, 8), (1000003, 4)):
        sd = build_skew(PrecisionContext(p, K, INTEGRAL), 1 + p)
        op = sd.opposite()
        assert op._w == sd._w and op._masks is sd._masks and op._words is sd._words
        lifted = sd.at_precision(K + 1)
        assert lifted.opposite()._masks is lifted._masks
        assert lifted._masks is not sd._masks and len(lifted._masks) == K + 2
        r = rand_coeff(sd.ctx, Random(p))
        assert op.apply_sigma(sd.apply_sigma(r)) == r
