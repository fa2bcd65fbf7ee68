"""Products against an independent model of A/G_K: a quotient of the
group ring of Z/p**n x| Z/p**n, multiplied by the group law alone
(see group_ring_oracle.py)."""

from __future__ import annotations

from random import Random

import pytest

from skewseries import PrecisionContext, build_skew

import group_ring_oracle as gro
from util import rand_series

# K stays small in integral mode, where the group has order p**(2K - 2)
KS = {"integral": (1, 2, 3, 5), "charp": (1, 2, 7, 16)}


@pytest.mark.parametrize("mode", ("integral", "charp"))
@pytest.mark.parametrize("p", (2, 3, 5, 1000003))
def test_products_match_the_group_ring(p, mode):
    rng = Random(f"group-ring-{p}-{mode}")
    for K in KS[mode]:
        ctx = PrecisionContext(p, K, mode)
        for eps in (1, 1 + p, 1 + 2 * p):
            sd = build_skew(ctx, eps)
            for _ in range(25):
                f, g = rand_series(sd, rng), rand_series(sd, rng)
                assert (f * g).rows == gro.mul(p, K, mode, eps, f.rows, g.rows)
