"""Weierstrass division and preparation for skew power series.

For f of reduced order s (least index whose Y-coefficient is a unit of
R), every g splits as g = q*f + rem with deg_Y rem < s.  The quotient is
found by the contraction q ~ shift_down(g + q*h) where h = Y**s - G*f
has all coefficients in m; each iterate gains one level of m-depth, so
q_k lies in m**k A, inside G_k, and q_0 .. q_(K-1) settle everything
visible at K.  Only the precision that reaches the output is kept
(precision tracking, Caruso, Roe and Vaccon, LMS J. Comput. Math. 17,
2014): q -> shift_down(q*h, s) maps A/G_N to A/G_(N-s+1), so for an
output at K_out below the working K only q_k mod G_(N_k), with N_k =
K_out + (s-1)(K_out-1-k), matters, and each q*h is formed mod
G_(N_(k+1)+s) and total*h mod G_(K_out).  With total the sum of the
iterates, quot = total*G, and as quot*f = total*(Y**s - h) exactly,
rem = g - total*Y**s + total*h.  So one table of Y**i h, grown on demand,
serves the contraction and the remainder, f is read only to form h,
and the rows below s of each q*h, which the shift-down drops, are
never computed.  Both identities hold for any G, and the contraction
needs only h in mA.  As sigma(r) = r and delta(r) = 0 mod m, A/mA is
the commutative ring F_p[[Y]], so G need only invert the image of
g0 = shift_down(f, s) there mod Y**(K-s): then h = -G*(f - g0*Y**s) +
(1 - G*g0)*Y**s has its coefficients in m mod G_K.  `divide` takes that
G, whose coefficients are integers below p; `prepare` inverts g0
exactly, since its output carries the gauge of G, and as G*g0 = 1 mod
G_K there, h = -G*f_lo with f_lo the rows < s of f.  Integers commute
with Y, as sigma fixes Z_p and delta kills it, so divide's G*f =
c_0 f + Y(c_1 f + Y(c_2 f + ...)) is Horner's rule at shrinking precision
over the terms c_k f, as for right coefficients, and Y**i G is G moved up
i rows: total*G takes no Y-step.

Precision is the delicate part.  Right-multiplication by f is not
injective on representatives: e.g. (p**2 + Y**2)*(Y**2 - p) vanishes mod
G_3, so the pair (q, rem) solving g = q*f + rem mod G_K is pinned down
only up to such annihilator elements, and two correct routes may
legitimately disagree in visible digits.  A row-by-row depth induction
shows that any two solutions computed at a working precision K' agree
after truncation to K once K' >= s*K + 1.  `divide` and `divide_oracle`
therefore both lift the stored digits to that precision, solve there,
and truncate: each returns the image of the exact division of the
canonical integer lifts, independent of algorithmic gauge, which is
what makes the two routes comparable digit for digit.

Note the lift of the stored digits is one particular representative of
the input's coset; inputs whose intended coefficients wrap around the
slot moduli (negative numbers, say) have lifts that differ from them by
elements of G_K, and the quotient responds visibly to that difference.
Callers who want the division of a specific exact element construct it
natively at ambient precision s*K + 1 and truncate the result to K --
by the same uniqueness bound this equals the exact answer's truncation.

`prepare` is the plain iteration at the ambient precision: the identity
eps*F = f holds by construction (ring identities in the exact quotient
A/G_K) and the remainder's high rows vanish by a telescoping of the
iteration, at any working precision.  Digit-canonical factors, when
wanted, come from the same construct-natively-elevated pattern.
"""
from __future__ import annotations

from itertools import tee

from .coeff import CoeffSeries, vcanon, vinv, vzero
from .errors import (
    InternalPrecisionLoss,
    NotDivisible,
    NotPreparable,
    SystemSingularAtPrecision,
)
from .precision import CHARP, MAX_PRECISION, AtLeast, PrecisionContext, _Frozen
from .series import SkewSeries, _horner, _mul_rows, _solve_blocks, _table, change_precision
from .skew import SkewData


class DistinguishedPoly(_Frozen):
    """Monic Y-polynomial Y**s + a_{s-1}Y**(s-1) + ... + a_0, all a_i in m."""

    __slots__ = __match_args__ = ("sd", "degree", "lower")

    def __init__(self, sd: SkewData, degree: int, lower: tuple[CoeffSeries, ...]):
        super().__init__(sd, degree, lower)
        if degree < 0 or len(lower) != degree:
            raise ValueError("need exactly `degree` lower coefficients")
        for a in lower:
            sd.ctx.check_same(a.ctx)
            o = a.m_order()
            if not isinstance(o, AtLeast) and o < 1:
                raise ValueError("lower coefficients must lie in the maximal ideal")

    def as_series(self) -> SkewSeries:
        # a monic top at degree >= K lies in G_K, and the constructor drops it
        return SkewSeries(self.sd, [a.coeffs for a in self.lower] + [(1,)])

    def __repr__(self) -> str:
        return f"DistinguishedPoly(degree={self.degree}, lower={list(self.lower)!r})"


def _shift_down(sd: SkewData, f: SkewSeries, s: int) -> SkewSeries:
    """Drop rows < s and shift the rest down: division by Y**s on the right.

    Pure relabelling: row j + s is canonical at m-precision K - j - s,
    hence at the finer K - j of row j, so the rows are wrapped as they
    are, with zero rows on top; nothing is recomputed and nothing is lost.
    """
    return SkewSeries._trusted(sd, f.rows[s:] + (vzero(sd.ctx),) * s)


def _residue_inverse(sd: SkewData, g0: SkewSeries, n: int) -> tuple[int, ...]:
    """c_0 .. c_(n-1) in 0..p-1 with G*g0 = 1 mod (m, Y**n), G = sum_k c_k Y**k.

    A/mA is F_p[[Y]], the char-p coefficient ring with Y in place of X,
    so the c_k are the inverse there, mod Y**n, of g0's row constants.
    """
    return vinv(PrecisionContext(sd.ctx.p, n, CHARP), tuple(r[0] for r in g0.rows[:n]), n)


def _divide_core(
    sd: SkewData, g: SkewSeries, f: SkewSeries, s: int, out: SkewData | None = None
) -> tuple[SkewSeries, SkewSeries]:
    """Division at the working precision K of ``sd``, returned at ``out``'s.

    ``out`` defaults to ``sd``, with K_out <= K; s >= 1 assumed.  At the
    gauge-free lift K >= s*K_out + 1, G inverts g0 in F_p[[Y]] mod
    Y**(K-s); otherwise G is g0's exact inverse, which keeps `prepare`'s
    gauge.  Only the iterates q_0 .. q_(K_out-1) are taken, each to the
    precision that reaches the output, so total, rem and the remainder
    check live mod G_(K_out), and the quotient trunc(total) * trunc(G)
    is total*G mod the two-sided G_(K_out).  At the lift G's coefficients
    are integers, which commute with Y: G*f is Horner's rule over the
    terms c_k*f, and the table of Y**i G is G moved up i rows.
    """
    out = sd if out is None else out
    ctx = sd.ctx
    K, Ko = ctx.K, out.ctx.K
    zero = vzero(ctx)
    g0 = _shift_down(sd, f, s)
    if K > s * Ko:
        # the terms c_k*f are packed as c_k times f's packed rows, and the
        # packed rows of Y**i G, G moved up i rows, are the bare c_k
        cs = _residue_inverse(sd, g0, K - s)
        fp = tuple(map(sd.pack, f.rows))
        h = sd.y(s) - SkewSeries._trusted(sd, _horner(sd, [[c * x for x in fp] for c in cs]))
        gpows = ([cs[j - i] if j >= i else 0 for j in range(Ko)] for i in range(Ko))
    else:
        # G*g0 = 1 mod G_K, so Y**s - G*f = -G*f_lo with f_lo the rows < s of f
        G = g0.inverse()
        h = -(G * SkewSeries._trusted(sd, f.rows[:s] + (zero,) * (K - s)))
        gpows = _table(sd, G.rows)
    if not isinstance(h.reduced_order(), AtLeast):  # a row of h is a unit
        raise InternalPrecisionLoss(
            "correction series escaped the maximal ideal; "
            "the reduced order of the divisor is inconsistent"
        )
    # Y**i h is stepped to and packed when a product first reads it: each
    # copy of the tee reads one shared table from h on
    hpows = tee(_table(sd, h.rows), 1)[0]
    # q_0 .. q_(Ko-1) settle the output, and q_k matters mod G_(N_k) only,
    # N_k = Ko + (s-1)(Ko-1-k) (module docstring); at Ko = K every bound is K
    q = _shift_down(sd, g, s)
    qs = [q]
    for k in range(1, Ko):
        hi = min(K, Ko + (s - 1) * (Ko - 1 - k) + s)
        qh = _mul_rows(sd, q.rows, hpows.__copy__(), s, hi)
        q = _shift_down(sd, SkewSeries._trusted(sd, qh), s)
        if q.is_zero():
            break
        qs.append(q)
    # the sum of the iterates mod G_Ko, reduced once per row
    rows = zip(*(q.rows[:Ko] for q in qs))
    total = SkewSeries._trusted(
        out, tuple(vcanon(out.ctx, map(sum, zip(*r)), Ko - j) for j, r in enumerate(rows))
    )
    # quot*f = total*G*f = total*(Y**s - h): total*Y**s moves each row up s
    th = _mul_rows(sd, change_precision(total, sd).rows, hpows.__copy__(), 0, Ko)
    up = (zero,) * s + total.rows
    rem = SkewSeries(out, [[a - b + c for a, b, c in zip(*r)] for r in zip(g.rows[:Ko], up, th)])
    for j in range(s, Ko):
        if any(rem.rows[j]):
            raise InternalPrecisionLoss(
                "remainder extends to degree >= reduced order; "
                "working precision too small for this divisor"
            )
    return SkewSeries._trusted(out, _mul_rows(out, total.rows, gpows)), rem


def _gauge_free_precision(s: int, K: int) -> int:
    """At working precision s*K + 1 the division pair is unique mod G_K.

    ValueError when that lift exceeds MAX_PRECISION: the twist data alone
    grows like K'**3, so such a division is refused before any work.
    s = 0 returns K, with no lift (f is a unit, rem = 0): only
    `divide_oracle` asks, as `divide` and `prepare` return first.
    """
    if s < 1:
        return K
    lifted = s * K + 1
    if lifted > MAX_PRECISION:
        raise ValueError(
            f"division by a divisor of reduced order s = {s} at K = {K} lifts to "
            f"K' = s*K + 1 = {lifted}, above the limit {MAX_PRECISION}"
        )
    return lifted


def divide(g: SkewSeries, f: SkewSeries) -> tuple[SkewSeries, SkewSeries]:
    """g = q*f + rem with deg_Y rem < reduced order of f, mod G_K.

    Returns the image of the exact division of the canonical lifts of g
    and f, so the output is independent of the route used to compute it.
    ValueError when the lift s*K + 1 exceeds MAX_PRECISION.
    """
    sd = f.sd
    sd.check_same(g.sd)
    s = f.reduced_order()
    if isinstance(s, AtLeast):
        raise NotDivisible(
            "divisor has no visible unit coefficient (reduced order >= K); "
            "it generates no distinguished polynomial at this precision"
        )
    if s == 0:  # q*f = g is the solve that inverts f, with g for 1
        return SkewSeries(sd, _solve_blocks(g, f, 0, sd.ctx.K)[0]), sd.zero()
    big = sd.at_precision(_gauge_free_precision(s, sd.ctx.K))
    return _divide_core(big, change_precision(g, big), change_precision(f, big), s, sd)


def prepare(f: SkewSeries) -> tuple[SkewSeries, DistinguishedPoly]:
    """Factor f = eps * F with eps a unit and F distinguished of degree s.

    Divides Y**s by f: Y**s = v*f + rem, then F := Y**s - rem and
    eps := v**-1, all at the ambient precision.  The factorization
    identity eps*F = f mod G_K, the degree s, and the m-membership of
    F's lower coefficients hold unconditionally; the individual digits
    of eps carry the algorithm's gauge.  For digit-canonical factors
    construct f natively at ambient precision s*K + 1, prepare there,
    and truncate.
    """
    sd = f.sd
    s = f.reduced_order()
    if isinstance(s, AtLeast):
        raise NotPreparable(
            "no unit coefficient visible at this precision; "
            "increase K or divide out the content first"
        )
    if s == 0:
        return f, DistinguishedPoly(sd, 0, ())
    v, rem = _divide_core(sd, sd.y(s), f, s)
    if not v.is_unit():
        raise InternalPrecisionLoss("quotient of Y**s by f is not a unit")
    eps = v.inverse()
    try:
        return eps, DistinguishedPoly(sd, s, tuple(-rem.row(j) for j in range(s)))
    except ValueError:
        raise InternalPrecisionLoss(
            "lower coefficient of the distinguished factor escapes the "
            "maximal ideal; K is too small for this input"
        ) from None


def divide_oracle(g: SkewSeries, f: SkewSeries) -> tuple[SkewSeries, SkewSeries]:
    """Independent route to `divide` via modular linear solves.

    At the lift K' = s*K + 1 the rows >= s of g = q*f + rem are a block
    lower triangular system in the digits of q, one block per X-degree,
    which ``series._solve_blocks`` solves from one factorization; it is
    the solve that inverts units, at s = 0.  Any solution truncates to
    the same answer at K' = s*K + 1.  The solver's accumulators hold the
    digits of (x*f)_j, j < s, for its solution x at K'.  q is x cut to
    a < K - j in row j, and as x - q lies in the two-sided ideal G_K,
    q*f = x*f mod G_K: the rows < s of rem = g - q*f are g less those
    slots, reduced at K.  ValueError when K' exceeds MAX_PRECISION, as
    in `divide`.
    """
    sd = f.sd
    sd.check_same(g.sd)
    s = f.reduced_order()
    if isinstance(s, AtLeast):
        raise SystemSingularAtPrecision(
            "no visible reduced order: the multiplication map has no "
            "unit pivot at this precision"
        )
    K = sd.ctx.K
    big = sd.at_precision(_gauge_free_precision(s, K))
    qx, acc = _solve_blocks(change_precision(g, big), change_precision(f, big), s, K)
    rem = [[c - d for c, d in zip(g.rows[j], big.unpack(acc[j], K - j))] for j in range(s)]
    return SkewSeries(sd, qx), SkewSeries(sd, rem)
