"""The ring against an independent model of A/G_K: a quotient of the
group ring of Z/p**n x| Z/p**n, multiplied by the group law alone
(see group_ring_oracle.py).  The checks run at eps = 1 and two other
twists; the descent, which needs sigma != id, at the two others only."""

from __future__ import annotations

from functools import partial
from random import Random

import pytest

from skewseries import (
    CoeffSeries, PrecisionContext, VanishedAtPrecision, build_skew, descend_ideal, divide,
    normal_witness, omega, prepare, xi,
)

import group_ring_oracle as gro
from util import rand_coeff, rand_reduced_order, rand_series, rand_unit

# K stays small in integral mode, where the group has order p**(2K - 2)
KS = {"integral": (1, 2, 3, 5), "charp": (1, 2, 7, 16)}
# inverses and divisions (which lift to s*K + 1) take smaller K in char p
SMALL_KS = {"integral": (1, 2, 3, 5), "charp": (1, 2, 5, 7)}

RINGS = [(p, mode) for mode in ("integral", "charp") for p in (2, 3, 5, 1000003)]


def rings(p, mode, sizes):
    for K in sizes:
        for eps in (1, 1 + p, 1 + 2 * p):
            yield K, eps, build_skew(PrecisionContext(p, K, mode), eps)


@pytest.mark.parametrize("p, mode", RINGS)
def test_products_match_the_group_ring(p, mode):
    rng = Random(f"group-ring-{p}-{mode}")
    for K, eps, sd in rings(p, mode, KS[mode]):
        for _ in range(25):
            f, g = rand_series(sd, rng), rand_series(sd, rng)
            assert (f * g).rows == gro.mul(p, K, mode, eps, f.rows, g.rows)


@pytest.mark.parametrize("p, mode", RINGS)
def test_inverse_prepare_and_divide_in_the_group_ring(p, mode):
    rng = Random(f"group-ring-weierstrass-{p}-{mode}")
    for K, eps, sd in rings(p, mode, SMALL_KS[mode]):
        mul = partial(gro.mul, p, K, mode, eps)
        for s in range(K):
            u = rand_unit(sd, rng)
            v = u.inverse().rows  # the inverse is unique: u*v = 1 = v*u pins every digit
            assert mul(u.rows, v) == sd.one().rows == mul(v, u.rows)
            f = rand_reduced_order(sd, rng, s)
            unit, F = prepare(f)
            assert mul(unit.rows, F.as_series().rows) == f.rows
            if s * K < 128:  # divide lifts to s*K + 1 <= 128
                g = rand_series(sd, rng)
                q, rem = divide(g, f)
                assert gro.add(p, K, mode, mul(q.rows, f.rows), rem.rows) == g.rows


@pytest.mark.parametrize("p, mode", RINGS)
def test_tower_and_normal_witness_in_the_group_ring(p, mode):
    for K, eps, sd in rings(p, mode, KS[mode]):
        mul = partial(gro.mul, p, K, mode, eps)
        Y = gro.element(p, K, mode, {(0, 1): 1, (0, 0): -1})
        for n in range(4):
            om = gro.element(p, K, mode, {(p**n, 0): 1, (0, 0): -1})  # gamma**(p**n) - 1
            if eps == 1:  # omega and xi do not depend on the twist
                assert omega(sd.ctx, n).coeffs == om[0]
                if p < 10 and n:  # xi_n has p terms
                    terms = {(i * p ** (n - 1), 0): 1 for i in range(p)}
                    assert xi(sd.ctx, n).coeffs == gro.element(p, K, mode, terms)[0]
            u, w = normal_witness(sd, n)
            assert mul(Y, om) == mul(om, w.rows)
            sigma_om = gro.element(p, K, mode, {(eps * p**n, 0): 1, (0, 0): -1})
            assert sigma_om == mul(om, [u.coeffs])


# in char p, sigma fixes 1 + X mod X**K once p >= K: no descent step there
@pytest.mark.parametrize("p, mode", [r for r in RINGS if r != (1000003, "charp")])
def test_descent_replays_in_the_group_ring(p, mode):
    """r comes out of the two-sided ideal of the input: the group ring
    replays each step as gamma**(eps**s) b - b gamma."""
    rng = Random(f"group-ring-descent-{p}-{mode}")
    finished = 0
    for K in (5, 8) if mode == "integral" else (8, 16):
        for eps in (1 + p, 1 + 2 * p):
            sd = build_skew(PrecisionContext(p, K, mode), eps)
            for deg in range(1, 5):
                zc = [rand_coeff(sd.ctx, rng) for _ in range(deg)] + [CoeffSeries.one(sd.ctx)]
                try:
                    r, steps = descend_ideal(sd, zc)
                    want = r.coeffs, steps
                except VanishedAtPrecision:
                    want = None
                assert gro.descend(p, K, mode, eps, [c.coeffs for c in zc]) == want
                finished += want is not None
    assert finished >= 8  # of 16: most descents finish at these sizes
