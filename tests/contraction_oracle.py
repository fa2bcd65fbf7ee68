"""The contraction of `weierstrass._divide_core` with every product taken
in full, finished as one division: the slow twin of the package's
table-based contraction and of the quotients its callers form, kept as a
differential oracle.

Each right multiplication by h or f rebuilds the powers Y**i h or Y**i f
of its fixed right operand, and each product computes the rows below s
that the shift-down then drops.  G is the exact inverse of g0 at the
working precision K, the iteration runs until q vanishes at K, every
iterate is kept at full precision, quot = total*G is a full product at
K and rem = g - quot*f a second one.  The package builds the table of h
once per division and skips those rows, and its `_divide_core` returns
total and rem = g - total*Y**s + total*h, formed from that table mod
G_(K_out), for its caller to finish.  `divide` lifts to K = s*K_out + 1,
inverts g0 only in F_p[[Y]] mod Y**(K - s), takes only the iterates
q_0 .. q_(K_out-1), each mod the G_N whose digits reach the output, and
forms quot at K_out; `prepare` takes G = g0**-1 at K, forms no quot,
and returns its inverse g0*total**-1.  At K_out = K the rows of
(total*G, rem) must not change, and prepare's unit is this quot's
inverse; at K = s*K_out + 1 the truncations to K_out must not change.

Both division routes of the package keep only K_out digits per row at
the lift (the row kernels' digit cap), so `divide` agreeing with
`divide_oracle` does not test the cap.  This twin takes no cap: every
product here is the public, uncapped ``*``.
"""

from __future__ import annotations

from skewseries import SkewData, SkewSeries
from skewseries.errors import InternalPrecisionLoss
from skewseries.weierstrass import _shift_down


def _divide_core(
    sd: SkewData, g: SkewSeries, f: SkewSeries, s: int
) -> tuple[SkewSeries, SkewSeries]:
    """Division at the current working precision; s >= 1 assumed."""
    K = sd.ctx.K
    g0 = _shift_down(sd, f, s)
    G = g0.inverse()
    h = sd.y(s) - G * f
    for j in range(K):
        if h.rows[j][0] % sd.ctx.p != 0:
            raise InternalPrecisionLoss(
                "correction series escaped the maximal ideal; "
                "the reduced order of the divisor is inconsistent"
            )
    q = _shift_down(sd, g, s)
    total = q
    for _ in range(1, K):
        q = _shift_down(sd, q * h, s)
        if q.is_zero():
            break
        total = total + q
    quot = total * G
    rem = g - quot * f
    for j in range(s, K):
        if any(rem.rows[j]):
            raise InternalPrecisionLoss(
                "remainder extends to degree >= reduced order; "
                "working precision too small for this divisor"
            )
    return quot, SkewSeries(sd, [list(r) for r in rem.rows[:s]])
