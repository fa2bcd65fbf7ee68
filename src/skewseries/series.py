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
+ and *, so the row kernels (``_mul_rows``, ``_y_step``) build raw
integer sums and reduce each output row exactly once, with one
``vcanon``.  ``SkewSeries._trusted`` wraps rows that are already
canonical without a second pass; the public constructors canonicalize.

The raw sums are taken on rows packed into ints (see
:mod:`skewseries.skew`): a Y-step is one sum of packed columns per row,
and f*g one big-int product per pair of rows, unpacked once per row.

Multiplication follows the commutation rule directly: f*g accumulates
r_i * (Y**i g) over a table of the powers Y**i g, each one Y-step from
the one before.  ``f * g`` advances the table as it reads it; a caller
that multiplies many series by one fixed g builds the packed table once
and passes it to ``_mul_rows``.  Because canonical representatives have
fewer than K rows, the infinite inner sums of the distributed product
truncate on their own.

Inversion is Newton iteration: each round squares the error 1 - f*x
and so doubles the filtration level to which x inverts f.  The rounds
run on a ladder of precisions, each at most twice the one before, through
``SkewData.at_precision``, so only the last one pays for products at
full precision.

Right coefficients, f = sum_j Y**j b_j, come by Horner's rule: one
Y-step per coefficient for b_0 + Y(b_1 + Y(b_2 + ...)).  As s Y =
Y sigma^-1(s) + (sigma^-1 - id)(s), right coefficients are left ones in
the opposite ring (Ore, 1933), so (...(a_2 Y + a_1) Y) + a_0 is the same
pass over ``SkewData.opposite()``.  Canonicalizing after each step is
exact because G_K is a two-sided ideal.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from math import comb
from operator import mul, sub

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
from .errors import ContextMismatch, NotAUnit, NotPolynomial
from .precision import AtLeast, _Frozen
from .skew import EPSILON_GUARD, SkewData

Rows = tuple[Vec, ...]


def _canon_rows(sd: SkewData, rows: Sequence[Sequence[int]]) -> Rows:
    # Rows at index >= K lie in G_K (their slot moduli collapse), so any
    # surplus input rows are invisible and dropped.
    K = sd.ctx.K
    return tuple(vcanon(sd.ctx, rows[j] if j < len(rows) else (), K - j) for j in range(K))


def _y_step(sd: SkewData, rows: Rows) -> Rows:
    """Rows of Y * f: row j becomes sigma(f_(j-1)) + delta(f_j).

    sigma is additive, so sigma(f_(j-1)) + sigma(f_j) is one sum of
    the packed columns ``sd._sig_cols``: with q = K - j, a slot adds
    q + 1 products of two digits below m from row j - 1 (none if j = 0)
    and q from row j, 2q + 1 <= 2K - 1 <= K**2 in all, which the slot
    width of :mod:`skewseries.skew` holds.  f_j is subtracted from the
    unpacked digits, so nothing borrows across slots, and the row is
    reduced once.
    """
    ctx, cols = sd.ctx, sd._sig_cols
    K = ctx.K
    zero = vzero(ctx)
    out = []
    prev = 0
    for j, r in enumerate(rows):
        q = K - j
        cur = sum(map(mul, r[:q], cols)) if any(r) else 0
        if prev or cur:
            out.append(vcanon(ctx, map(sub, sd.unpack(prev + cur, q), r), q))
        else:
            out.append(zero)
        prev = cur
    return tuple(out)


def _horner(sd: SkewData, coeffs: Sequence[Vec]) -> Rows:
    """Rows of c_0 + Y(c_1 + Y(c_2 + ...)) over ``sd``."""
    ctx = sd.ctx
    K = ctx.K
    coeffs = list(coeffs[:K])  # Y**j c_j lies in G_K for j >= K
    while coeffs and not any(coeffs[-1]):
        coeffs.pop()
    rows = _canon_rows(sd, coeffs[-1:])
    for c in reversed(coeffs[:-1]):
        rows = _y_step(sd, rows)
        rows = (vadd(ctx, rows[0], c, K),) + rows[1:]
    return rows


def _pascal(K: int, vecs: Sequence[Vec], n: int, sign: int) -> list[list[int]]:
    """Raw K-digit vectors i < n of sum_j sign**(j-i) C(j, i) vecs[j].

    sign = 1 takes Z-coefficients to Y-coefficients (Z = Y + 1), and
    sign = -1 is the inverse transform.
    """
    out = []
    for i in range(n):
        acc = [0] * K
        for j in range(i, len(vecs)):
            coef = comb(j, i) * sign ** (j - i)
            acc = [x + coef * y for x, y in zip(acc, vecs[j])]
        out.append(acc)
    return out


def _y_powers(sd: SkewData, gr: Rows) -> Iterator[Rows]:
    """Rows of g, Y*g, Y**2*g, ...: one Y-step per power, taken on demand."""
    while True:
        yield gr
        gr = _y_step(sd, gr)


def _packed(sd: SkewData, table: Iterable[Rows]) -> Iterator[tuple[int, ...]]:
    """The rows of each power in ``table``, packed for ``_mul_rows``."""
    return (tuple(map(sd.pack, rows)) for rows in table)


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

    @classmethod
    def _trusted(cls, sd: SkewData, rows: Rows) -> "SkewSeries":
        """Wrap ``rows``, a K-tuple of canonical row tuples, unchecked."""
        f = object.__new__(cls)
        object.__setattr__(f, "sd", sd)
        object.__setattr__(f, "rows", rows)
        return f

    # -- constructors --------------------------------------------------
    @classmethod
    def from_rows(
        cls, sd: SkewData, rows: Iterable[CoeffSeries | Sequence[int] | int]
    ) -> "SkewSeries":
        data = []
        for r in rows:
            if isinstance(r, CoeffSeries):
                sd.ctx.check_same(r.ctx)
                data.append(r.coeffs)
            elif isinstance(r, int):
                data.append((r,))
            else:
                data.append(tuple(r))
        return cls(sd, data)

    # -- views ---------------------------------------------------------
    def row(self, j: int) -> CoeffSeries:
        """Row j as a coefficient series (its digits above m**(K-j) are 0)."""
        if not 0 <= j < self.sd.ctx.K:
            raise IndexError(j)
        return CoeffSeries(self.sd.ctx, self.rows[j])

    def coefficients(self) -> tuple[CoeffSeries, ...]:
        return tuple(CoeffSeries(self.sd.ctx, r) for r in self.rows)

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
        table = _packed(sd, _y_powers(sd, other.rows))
        return SkewSeries._trusted(sd, _mul_rows(sd, self.rows, table))

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

    # -- basis changes ---------------------------------------------------
    def to_z_form(self, max_deg: int) -> list[CoeffSeries]:
        """Coefficients in the Z = Y + 1 basis, where Z r = sigma(r) Z.

        Scalars are sigma-fixed, so the change of basis is the integer
        Pascal transform c_i = sum_j (-1)**(j-i) C(j, i) a_j.
        """
        if self.y_degree() > max_deg:
            raise NotPolynomial(
                f"visible Y-degree {self.y_degree()} exceeds max_deg = {max_deg}"
            )
        ctx = self.sd.ctx
        deg = min(max_deg, ctx.K - 1)
        return [CoeffSeries(ctx, c) for c in _pascal(ctx.K, self.rows[: deg + 1], deg + 1, -1)]

    @classmethod
    def from_z_form(cls, sd: SkewData, zcoeffs: Sequence[CoeffSeries]) -> "SkewSeries":
        """Inverse Pascal transform: a_j = sum_i C(i, j) c_i."""
        for c in zcoeffs:
            sd.ctx.check_same(c.ctx)
        return cls(sd, _pascal(sd.ctx.K, [c.coeffs for c in zcoeffs], sd.ctx.K, 1))

    # -- right-coefficient form ------------------------------------------
    def right_coefficients(self) -> list[CoeffSeries]:
        """Coefficients b_j with f = sum_j Y**j b_j (see the module notes)."""
        sd = self.sd
        return [CoeffSeries(sd.ctx, r) for r in _horner(sd.opposite(), self.rows)]

    @classmethod
    def from_right_coefficients(
        cls, sd: SkewData, bcoeffs: Sequence[CoeffSeries]
    ) -> "SkewSeries":
        """Reassemble sum_j Y**j b_j into left-coefficient rows."""
        coeffs = []
        for b in bcoeffs:
            sd.ctx.check_same(b.ctx)
            coeffs.append(b.coeffs)
        return cls(sd, _horner(sd, coeffs))


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
