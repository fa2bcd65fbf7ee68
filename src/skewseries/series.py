"""Skew power series at triangular precision.

An element of the skew power series ring A = R[[Y; sigma, delta]] is
written with coefficients on the left, f = sum_j a_j Y**j, subject to
the commutation rule

    Y r = sigma(r) Y + delta(r).

Elements are known modulo the two-sided filtration ideal G_K whose
Y**j-row is m**(K-j); concretely row j is a coefficient vector at
m-precision K - j, so the X**a Y**j slot carries K - j - a scalar
digits.  All operations happen on canonical representatives of A/G_K,
which makes row-tuple equality *the* congruence mod G_K: the ``__eq__``
inherited from ``_Frozen`` compares (sd, rows) and so is the mod-G_K
comparator; it never compares invisible tails.

G_K is a two-sided ideal and reduction by a slot modulus commutes with
+ and *, so the row kernels (``_mul_rows``, ``_y_step``) reduce raw sums
once per output row, and ``_trusted`` wraps them (``precision._Frozen``).

The raw sums are taken on rows packed into ints (see
:mod:`skewseries.skew`): a Y-step is one sum of packed columns per row,
and f*g one big-int product per pair of rows, unpacked once per row.
A row that ``_y_step`` returns holds only its live digits, q = hi - j
of them, and a zero row is ``()``; rows are padded to K digits only
where they become the rows of a series, at the end of ``_horner``.

Multiplication follows the commutation rule directly: f*g accumulates
r_i * (Y**i g) over a table of the powers Y**i g, each one Y-step from
the one before.  ``_table`` packs each power once, for the product and
for the next step alike, which subtracts its f_j inside the packed sum
it already forms.  ``f * g`` advances the table as it reads it; a
caller that multiplies many series by one fixed g builds the table
once and passes it to ``_mul_rows``.  Because canonical representatives
have fewer than K rows, the infinite inner sums of the distributed
product truncate on their own.

Inversion is Newton iteration: each round squares the error 1 - f*x
and so doubles the filtration level to which x inverts f.  The rounds
run on a ladder of precisions, each at most twice the one before, through
``SkewData.at_precision``, so only the last one pays for products at
full precision.

Right coefficients, f = sum_j Y**j b_j, come by Horner's rule: one
Y-step per coefficient for b_0 + Y(b_1 + Y(b_2 + ...)), each adding its
term's packed rows to the packed sum before the row is reduced, from
zero rows on.  As s Y = Y sigma^-1(s) + (sigma^-1 - id)(s), right
coefficients are left ones in the opposite ring (Ore, 1933), so
(...(a_2 Y + a_1) Y) + a_0 is the same pass over ``SkewData.opposite()``.
Canonicalizing after each step is exact because G_K is a two-sided
ideal.  As Y**j G_(K-j) lies in G_K, the partial sum from t_j on is
needed only mod G_(K-j), so step j runs at hi = K - j and only the last
one at full precision.  A term may be any series whose packed slots
stay below m**2: Weierstrass division forms G*f, G = sum_k c_k Y**k
with integers 0 <= c_k < p, over the terms c_k*f.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from operator import mod, mul, sub

from .coeff import (
    CoeffSeries,
    Vec,
    vadd,
    vcanon,
    vis_unit,
    vorder,
    vsub,
    vzero,
)
from .errors import ContextMismatch, NotAUnit
from .precision import AtLeast, _Frozen
from .skew import EPSILON_GUARD, SkewData

Rows = tuple[Vec, ...]


def _canon_rows(sd: SkewData, rows: Sequence[Sequence[int]]) -> Rows:
    # Rows at index >= K lie in G_K (their slot moduli collapse), so any
    # surplus input rows are invisible and dropped.
    K = sd.ctx.K
    return tuple(vcanon(sd.ctx, rows[j] if j < len(rows) else (), K - j) for j in range(K))


def _y_step(
    sd: SkewData, rows: Rows, hi: int | None = None, plus: Sequence[int] = (),
    packed: Sequence[int] | None = None,
) -> Rows:
    """Rows of Y * f + t: row j becomes sigma(f_(j-1)) + delta(f_j) + t_j.

    ``plus`` holds the packed rows of the term t (none: t = 0).  Only
    rows j < hi are computed (hi defaults to K), each reduced at
    q = hi - j: Y*f + t mod the coarser G_hi.  Row j comes back with
    its q live digits, and rows that vanish, those from hi up among
    them, as ``()`` (see the module notes); the input rows may be of
    either form.  sigma is additive, so sigma(f_(j-1)) + sigma(f_j) +
    t_j is one sum of the packed columns ``sd._sig_cols`` and the packed
    t_j; the slot width of :mod:`skewseries.skew` holds it.

    ``packed``, when given, holds the packed rows of f itself, with
    canonical digits, and -f_j is subtracted from the packed sum: slot a
    of sigma(f_j) holds f_j[a] times the X**a digit of sigma(X)**a, a
    unit and so at least 1, plus nonnegative products, so none of the q
    low slots borrows.  Without it f_j is subtracted digit by digit, and
    may be a row known only mod G_(hi-1), one digit short, as in Horner's
    rule.
    """
    ctx, cols = sd.ctx, sd._sig_cols
    K = ctx.K
    hi = K if hi is None else hi
    out = [()] * K
    prev = 0
    for j, r in enumerate(rows[:hi]):
        q = hi - j
        cur = sum(map(mul, r[:q], cols)) if any(r) else 0
        t = plus[j] if j < len(plus) else 0
        if prev or cur or t:
            if packed is not None:
                digits = sd.unpack(prev + cur + t - packed[j], q)
            else:
                digits = map(sub, sd.unpack(prev + cur + t, q), r[:q] + (0,) * (q - len(r)))
            out[j] = tuple(map(mod, digits, ctx.slot_moduli(q)))
        prev = cur
    return tuple(out)


def _horner(sd: SkewData, terms: Sequence[Sequence[int]]) -> Rows:
    """Rows of t_0 + Y(t_1 + Y(t_2 + ...)) over ``sd``, each canonical.

    Each term t_j is given by its packed rows.  The partial sum from t_j
    on is needed only mod G_(K-j), so the step that adds t_j runs at
    hi = K - j (see the module notes); the first one steps zero rows.
    The kernel rows are padded to K digits here, where they become rows
    of a series.
    """
    K = sd.ctx.K
    terms = list(terms[:K])  # Y**j t_j lies in G_K for j >= K
    while terms and not any(terms[-1]):
        terms.pop()
    rows = ((),) * K
    for j in range(len(terms) - 1, -1, -1):
        rows = _y_step(sd, rows, K - j, terms[j])
    zero = vzero(sd.ctx)
    return tuple(r + zero[len(r) :] for r in rows)


def _table(sd: SkewData, rows: Rows) -> Iterator[tuple[int, ...]]:
    """Packed rows of g, Y*g, Y**2*g, ...: one Y-step per power, taken on demand.

    Each step folds -f_j into its packed sum through the packed rows of
    the power before, and its rows are packed once, for the product and
    for the next step alike.
    """
    packed = tuple(map(sd.pack, rows))
    while True:
        yield packed
        rows = _y_step(sd, rows, packed=packed)
        packed = tuple(map(sd.pack, rows))


def _mul_rows(
    sd: SkewData, fr: Rows, gpows: Iterable[tuple[int, ...]], lo: int = 0, hi: int | None = None
) -> Rows:
    """Rows of f*g from the rows of f and the packed powers Y**i g in ``gpows``.

    Only rows lo <= j < hi are computed (hi defaults to K), and row j is
    reduced at precision hi - j: the product mod the coarser G_hi, with
    the other rows left zero.  As Y**i lies in G_hi for i >= hi, rows of
    f from hi up add nothing.  Row j sums the packed products
    f_i * (Y**i g)_j; its slots below K - j are the raw Cauchy sums, each
    at most K products for each of at most K rows i, so no slot carries
    when the rows are canonical.  For hi < K each (Y**i g)_j is first
    cut to its hi - j low slots, which leaves those slots of the product
    exact; its digits are still below m, so the slot width holds as is.
    Each finished row is unpacked and reduced exactly once.
    """
    ctx = sd.ctx
    K = ctx.K
    hi = K if hi is None else hi
    top = max((j for j in range(hi) if any(fr[j])), default=-1)
    acc = [0] * hi
    # zip reads fr first, so no Y-step is taken past Y**top g
    masks = sd._masks if hi < K else None
    for fi, cur in zip(fr[: top + 1], gpows):
        if any(fi):
            x = sd.pack(fi)
            for j in range(lo, hi):
                y = cur[j]
                if y:
                    acc[j] += x * (y & masks[hi - j] if masks else y)
    rows = (vcanon(ctx, sd.unpack(acc[j], hi - j), hi - j) for j in range(lo, hi))
    return (vzero(ctx),) * lo + tuple(rows) + (vzero(ctx),) * (K - hi)


class SkewSeries(_Frozen):
    """An element of A/G_K in canonical row form.

    Equality is congruence mod G_K: the rows are canonical, so the
    ``==`` and hash inherited from ``_Frozen`` compare (sd, rows).
    """

    __slots__ = __match_args__ = ("sd", "rows")

    def __init__(self, sd: SkewData, rows: Sequence[Sequence[int]]):
        super().__init__(sd, _canon_rows(sd, rows))

    # -- views ---------------------------------------------------------
    def row(self, j: int) -> CoeffSeries:
        """Row j as a coefficient series (its digits above m**(K-j) are 0)."""
        if not 0 <= j < self.sd.ctx.K:
            raise IndexError(j)
        return CoeffSeries._trusted(self.sd.ctx, self.rows[j])

    def __repr__(self) -> str:
        terms = []
        for j, r in enumerate(self.rows):
            if any(r):
                terms.append(f"({list(r)})*Y^{j}")
        body = " + ".join(terms) if terms else "0"
        return f"SkewSeries({body} | p={self.sd.ctx.p}, K={self.sd.ctx.K})"

    def is_zero(self) -> bool:
        """True when every row vanishes, i.e. the element lies in G_K.

        This certifies "zero at this precision" only; a structurally
        nonzero element of G_K is indistinguishable from zero here.
        """
        return all(not any(r) for r in self.rows)

    # -- additive structure --------------------------------------------
    def _same(self, other) -> "SkewSeries":
        if isinstance(other, (int, CoeffSeries)):
            return self.sd.embed(other)
        if not isinstance(other, SkewSeries):
            raise TypeError(f"expected SkewSeries, got {type(other).__name__}")
        self.sd.check_same(other.sd)
        return other

    def _rowwise(self, op, other: "SkewSeries") -> "SkewSeries":
        # vadd and vsub reduce each row, so the result is canonical
        ctx = self.sd.ctx
        pairs = zip(self.rows, other.rows)
        rows = tuple(op(ctx, a, b, ctx.K - j) for j, (a, b) in enumerate(pairs))
        return SkewSeries._trusted(self.sd, rows)

    def __add__(self, other: "SkewSeries | CoeffSeries | int") -> "SkewSeries":
        return self._rowwise(vadd, self._same(other))

    __radd__ = __add__

    def __sub__(self, other: "SkewSeries | CoeffSeries | int") -> "SkewSeries":
        return self._rowwise(vsub, self._same(other))

    def __rsub__(self, other: "SkewSeries | CoeffSeries | int") -> "SkewSeries":
        return self._same(other).__sub__(self)

    def __neg__(self) -> "SkewSeries":
        return self.sd.zero()._rowwise(vsub, self)

    # -- multiplication -------------------------------------------------
    def __mul__(self, other) -> "SkewSeries":
        if not isinstance(other, (SkewSeries, CoeffSeries, int)):
            return NotImplemented
        other = self._same(other)
        sd = self.sd
        return SkewSeries._trusted(sd, _mul_rows(sd, self.rows, _table(sd, other.rows)))

    def __rmul__(self, other) -> "SkewSeries":
        # left action of the coefficient ring: c * f is embed(c) * f
        if not isinstance(other, (CoeffSeries, int)):
            return NotImplemented
        return self._same(other) * self

    # -- structure ------------------------------------------------------
    def reduced_order(self) -> int | AtLeast:
        """Least j whose row is a unit of R; AtLeast(K) if none is visible."""
        p = self.sd.ctx.p
        for j, r in enumerate(self.rows):
            if r[0] % p != 0:
                return j
        return AtLeast(self.sd.ctx.K)

    def g_order(self) -> int | AtLeast:
        """Filtration order: largest k with f in G_k, capped at K."""
        ctx = self.sd.ctx
        K = ctx.K
        best = K
        for j, r in enumerate(self.rows):
            o = vorder(ctx, r, K - j) + j
            if o < best:
                best = o
        return AtLeast(K) if best >= K else best

    def is_unit(self) -> bool:
        return vis_unit(self.sd.ctx, self.rows[0])

    def inverse(self) -> "SkewSeries":
        """Two-sided inverse mod G_K by Newton iteration with precision doubling.

        x starts as the inverse of the row-0 constant mod p, which
        inverts f mod G_1.  If f*x = 1 - e with e in G_m, then
        x' = x + x*e gives f*x' = 1 - e**2 with e**2 in G_2m, so each
        round may run at up to twice the precision of the one before.
        The levels are K, ceil(K/2), ceil(K/4), ..., 1, taken from the
        bottom up, so only the last round works at precision above K/2.
        A right inverse of a unit is its two-sided inverse, and
        canonical rows are unique mod G_K.
        """
        if not self.is_unit():
            raise NotAUnit("row 0 is not a unit of the coefficient ring")
        sd = self.sd
        ladder = [sd.ctx.K]
        while ladder[-1] > 1:
            ladder.append((ladder[-1] + 1) // 2)
        x = sd.at_precision(1).embed(pow(self.rows[0][0], -1, sd.ctx.p))
        for m in reversed(ladder[:-1]):
            sm = sd.at_precision(m)
            f = change_precision(self, sm)
            x = change_precision(x, sm)
            x = x + x * (sm.one() - f * x)
        return x

    # -- polynomial degree ---------------------------------------------
    def y_degree(self) -> int:
        """Largest j with a visible row, -1 for zero at precision."""
        for j in range(self.sd.ctx.K - 1, -1, -1):
            if any(self.rows[j]):
                return j
        return -1

    # -- right-coefficient form ------------------------------------------
    def right_coefficients(self) -> list[CoeffSeries]:
        """Coefficients b_j with f = sum_j Y**j b_j (see the module notes)."""
        sd = self.sd
        rows = _horner(sd.opposite(), [(sd.pack(r),) for r in self.rows])
        return [CoeffSeries._trusted(sd.ctx, r) for r in rows]

    @classmethod
    def from_right_coefficients(
        cls, sd: SkewData, bcoeffs: Sequence[CoeffSeries]
    ) -> "SkewSeries":
        """Reassemble sum_j Y**j b_j into left-coefficient rows."""
        terms = []
        for b in bcoeffs:
            sd.ctx.check_same(b.ctx)
            terms.append((sd.pack(b.coeffs),))
        return cls._trusted(sd, _horner(sd, terms))


def change_precision(f: SkewSeries, sd: SkewData) -> SkewSeries:
    """Reinterpret f's canonical digits over another precision window.

    Raising K is an exact lift of the representative: canonical digits
    stay canonical at the finer slot precisions, so the rows are only
    padded with zeros.  Lowering K is truncation mod the larger G_K.
    The twist must agree on the digits both windows identify it by.
    f itself comes back when ``sd`` is already its twist data.
    """
    if sd is f.sd:
        return f
    if sd.ctx.p != f.sd.ctx.p or sd.ctx.mode != f.sd.ctx.mode:
        raise ValueError("change_precision only adjusts K")
    K, old = sd.ctx.K, f.sd.ctx.K
    if (sd._eps_key - f.sd._eps_key) % sd.ctx.p ** (min(K, old) + EPSILON_GUARD):
        raise ContextMismatch(f"twist data differ: {f.sd!r} vs {sd!r}")
    if K > old:
        pad = (0,) * (K - old)
        rows = tuple(r + pad for r in f.rows) + (vzero(sd.ctx),) * (K - old)
        return SkewSeries._trusted(sd, rows)
    return SkewSeries(sd, f.rows[:K])
