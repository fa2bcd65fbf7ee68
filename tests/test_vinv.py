"""The one truncated power-series inverse, `coeff.vinv`, against its slow
geometric-series twin, and the two callers that share it."""

from __future__ import annotations

from random import Random

import pytest

from skewseries import NotAUnit, build_skew, change_precision
from skewseries.coeff import vcanon, vinv
from skewseries.precision import CHARP, INTEGRAL, PrecisionContext
import skewseries.coeff as coeff
import skewseries.weierstrass as weierstrass

from inverse_oracle import geometric_vinv
from util import rand_reduced_order


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 5, 7, 1000003))
def test_vinv_matches_the_geometric_series(p, mode):
    # canonical digits, and raw ones below p**K as `_residue_inverse` passes
    rng = Random(f"vinv:{p}:{mode}")
    for K in range(1, 13):
        ctx = PrecisionContext(p, K, mode)
        for q in range(1, K + 1):
            for _ in range(6):
                raw = [rng.randrange(p**K) for _ in range(K)]
                raw[0] += 1 if raw[0] % p == 0 else 0
                for u in (tuple(raw), vcanon(ctx, raw, q)):
                    assert vinv(ctx, u, q) == geometric_vinv(ctx, u, q), (K, q, u)
            nonunit = (p * rng.randrange(p**K),) + vcanon(ctx, raw, q)[1:]
            for inv in (vinv, geometric_vinv):
                with pytest.raises(NotAUnit):
                    inv(ctx, nonunit, q)


def test_vinv_calls_neither_vmul_nor_vadd(monkeypatch):
    ctx = PrecisionContext(3, 8, INTEGRAL)
    u = (2, 5, 0, 7, 1, 0, 3, 1)
    want = geometric_vinv(ctx, u, 8)
    calls = []
    for name in ("vmul", "vadd"):
        real = getattr(coeff, name)
        monkeypatch.setattr(
            coeff, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a)
        )
    assert coeff.vinv(ctx, u, 8) == want
    assert calls == []


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
def test_residue_inverse_takes_its_digits_from_vinv(mode, monkeypatch):
    # the spy answers with digits of its own, and G must carry exactly them
    p, K, s = 5, 4, 2
    sd = build_skew(PrecisionContext(p, K, mode), 1 + p)
    big = sd.at_precision(s * K + 1)
    f = change_precision(rand_reduced_order(sd, Random(26), s), big)
    g0 = weierstrass._shift_down(big, f, s)
    n = big.ctx.K - s
    seen = []

    def spy(ctx, u, q):
        seen.append((ctx, [x % p for x in u], q))
        return tuple(k % p for k in range(1, n + 1))

    monkeypatch.setattr(weierstrass, "vinv", spy)
    G = weierstrass._residue_inverse(big, g0, n)
    assert seen == [(PrecisionContext(p, n, CHARP), [r[0] % p for r in g0.rows[:n]], n)]
    assert [r[0] for r in G.rows] == [k % p for k in range(1, n + 1)] + [0] * s
    assert not any(any(r[1:]) for r in G.rows)
