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

Inversion is the block triangular solve that Weierstrass division's
oracle runs, at s = 0 (``_solve_blocks``): x*f = 1 is linear in the
digits of x, and its equation at X**b reads only their digits X**a with
a <= b, so x comes one X-degree block at a time from one factorization.
Scaled by p**n, row n of the matrix holds the constant of (Y**j f)_n in
column j, which lies in m for j > n and is a unit at j = n, as f is a
unit mod m: the pivots sit at (n, n), and each block's solution is
unique at its precision.  So x is the left inverse of f mod G_K, and a
one-sided inverse of a unit is its two-sided inverse.  Canonical rows
are unique mod G_K, so any route to the inverse returns the same digits.

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
from itertools import islice
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
from .linalg import _eliminate, solve_mod_prime_power
from .precision import INTEGRAL, AtLeast, _Frozen
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


def _solve_blocks(
    g: SkewSeries, f: SkewSeries, s: int, K: int
) -> tuple[list[list[int]], list[int]]:
    """The q with q*f = g on the rows >= s, by block forward substitution.

    g and f live at the working precision K' of f's twist data, f has
    reduced order s, and q is returned mod G_K, K <= K' - s: row j holds
    its digits X**a, a < K - j, reduced at K'.  Also returned are the
    packed accumulators: slot a of acc[j], j < s, is digit X**a of
    (x*f)_j, where x is the solution at K' that q truncates.

    Right-multiplication by f is linear on stored coordinates, so the
    rows >= s of g = q*f + rem are a linear system in the digits of q.
    In integral mode the slot congruence mod p**(K'-n-b) is scaled by
    p**n into the modulus p**(K'-b); in char-p mode everything already
    lives mod p.  X**a moves digits up by a, so digit (n, b) of g
    involves the digits (j, a) of q with a <= b only, and the system is
    solved by forward substitution over b: block b takes the digits
    (j, b) from the equations (n, b), s <= n < K' - b, with the constant
    digits of (Y**j * f)_n, times p**n, as entries.  As A/mA = F_p[[Y]]
    and f = Y**s * unit mod m, (Y**j * f)_n lies in m for n < j + s and
    has a unit constant at n = j + s.  So row n of the matrix is p**n
    times a unit at column n - s, multiples of p**(n+1) to its right and
    multiples of p**n to its left (in char p: lower triangular mod p with
    a unit at (n, n - s)), and the row operations keep that shape: the
    pivots are (n, n - s) in row order.  The columns j >= K' - b - s of
    block b are then free and set to 0, so the rows j >= K' - s of q
    vanish and the table of Y**j * f stops at Y**(K'-s-1) * f.  Block b's
    matrix is the leading (K'-b-s)-square corner of block 0's, taken mod
    p**(K'-b) (mod p in char p), whose elimination is the first K'-b-s
    steps of block 0's: so block 0's matrix is factored once and each
    block replays its first K'-b-s pivots (`solve_mod_prime_power`).
    Each block is solvable whatever the blocks before chose.  Only the
    blocks b < K are solved: row j of q keeps the digits X**a with
    a < K - j, and block b's right side reads the digits a < b only.

    The forward sums are read off the packed table: row n keeps one
    packed accumulator, and once block a is solved it gains
    sum_j x[a][j] * (Y**j * f)_n, packed, moved up a slots, so its slot b
    holds what the digits (j, a < b) give equation (n, b).  Each digit
    x[a][j] is first reduced mod p**(K'-a-j) (p in char p), its slot
    modulus at K': that changes x by an element of G_K', and x*f by one
    too, which no later right side and no accumulator slot read mod its
    modulus sees.  A digit is then below m and a table digit below m, and
    a slot takes at most one product per (a, j), so at most K*K' <= K'**2
    of them: the slot width of :mod:`skewseries.skew` at K' holds the
    sum, and no slot carries.  Every block adds to the rows
    n < K' - b - 1, the rows < s among them, so at the end slot a of row
    j's accumulator is digit X**a of (x*f)_j.
    """
    sd = f.sd
    ctx = sd.ctx
    p, Kb = ctx.p, ctx.K
    # packed rows of Y**j * f: rows[n][j] is (Y**j * f)_n, whose slot d
    # holds its digit X**d, and X**a * Y**j * f moves that up to slot d + a
    rows = list(zip(*islice(_table(sd, f.rows), Kb - s)))
    width, one = 8 * sd._w, sd._masks[1]
    integral = ctx.mode == INTEGRAL
    scale = [p**n if integral else 1 for n in range(Kb)]
    N = Kb if integral else 1
    fac = _eliminate([[(c & one) * scale[n] % p**N for c in rows[n]] for n in range(s, Kb)], p, N)
    acc = [0] * Kb
    x: list[list[int]] = []  # x[a][j] is digit X**a of row j of q
    for b in range(K):
        eqs = range(s, Kb - b)
        rhs = [(g.rows[n][b] - (acc[n] >> (width * b) & one)) * scale[n] for n in eqs]
        xb = solve_mod_prime_power(fac, rhs, p, Kb - b if integral else 1)
        xb = list(map(mod, xb, ctx.slot_moduli(Kb - b)))  # canonical at K'
        x.append(xb)
        for n in range(Kb - b - 1):  # the next block's equations and the rows < s
            acc[n] += sum(map(mul, xb, rows[n])) << (width * b)
    return [[xa[j] for xa in x[: K - j]] for j in range(K)], acc


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
        """Two-sided inverse mod G_K: the x with x*f = 1 of the block solve
        at s = 0 (see the module notes), at this precision with no lift."""
        if not self.is_unit():
            raise NotAUnit("row 0 is not a unit of the coefficient ring")
        sd = self.sd
        return SkewSeries(sd, _solve_blocks(sd.one(), self, 0, sd.ctx.K)[0])

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
