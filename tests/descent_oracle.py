"""The two-sided-ideal descent product by product: the slow twin of
`skewseries.iwasawa.descend_ideal`, kept as a differential oracle.

Each step multiplies every coefficient below the top degree s by
sigma**s(gamma) - sigma**i(gamma), and the sigma-chain is rebuilt every
step.  The package multiplies only the surviving coefficient, reading
which coefficients vanish off their m-adic orders.
"""

from __future__ import annotations

from skewseries import CoeffSeries, DegenerateAction, VanishedAtPrecision


def descend_ideal(sd, zcoeffs):
    """(r, steps, trace) of the descent, or the exception the package raises."""
    gamma = CoeffSeries(sd.ctx, (1, 1))
    if sd.apply_sigma(gamma) == gamma:
        raise DegenerateAction("sigma fixes 1+X at this precision")
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
