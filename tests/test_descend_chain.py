"""`descend_ideal` builds the chain sigma**i(1 + X) once, before its loop."""

from __future__ import annotations

from random import Random

import pytest

from skewseries import CoeffSeries, SkewData, VanishedAtPrecision, build_skew, descend_ideal
from skewseries.precision import INTEGRAL, PrecisionContext

from util import rand_coeff


def _descend_rebuilding_the_chain(sd, zcoeffs):
    """The descent as first written: the sigma-chain is rebuilt every step."""
    gamma = CoeffSeries.from_ints(sd.ctx, (1, 1))
    coeffs, steps, trace = list(zcoeffs), 0, []
    while True:
        nz = [i for i, c in enumerate(coeffs) if not c.is_zero()]
        if not nz:
            raise VanishedAtPrecision("descent killed every visible coefficient")
        trace.append(nz[-1])
        if len(nz) == 1:
            return coeffs[nz[0]], steps, trace
        s = nz[-1]
        chain = [gamma]
        for _ in range(s):
            chain.append(sd.apply_sigma(chain[-1]))
        coeffs = [coeffs[i] * (chain[s] - chain[i]) for i in range(s)]
        steps += 1


@pytest.mark.parametrize("deg", [0, 1, 2, 5, 8])
def test_descent_applies_sigma_at_most_degree_plus_one_times(deg, monkeypatch):
    sd = build_skew(PrecisionContext(3, 32, INTEGRAL), 4)
    rng = Random(f"descend-chain:{deg}")
    zc = [rand_coeff(sd.ctx, rng) for _ in range(deg)] + [CoeffSeries.one(sd.ctx)]
    want = _descend_rebuilding_the_chain(sd, zc)
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
