"""Coefficient series: the ring R/m**K in canonical triangular form.

R is Z_p[[X]] (integral mode) or F_p[[X]] (char-p mode) and m is its
maximal ideal.  An element known modulo m**q is stored as a tuple of K
canonical digits, where the coefficient of X**a is a residue mod
p**(q-a) in integral mode (mod p while a < q in char-p mode) and zero
once its slot modulus collapses to 1.  All operations act on canonical
representatives and re-canonicalize, so tuple equality is exactly
equality mod m**q.

The module-level ``v*`` helpers are the arithmetic kernels shared with
the skew series layer (row j at m-precision K - j): ``vcanon`` reduces,
``vadd``, ``vsub``, ``vmul`` and ``vinv`` act at a precision q, and
``vorder`` reads the m-adic order.  The powers of an element t of m are
taken in one place, ``vpowers``: ``vcompose`` sums u(t) over them,
``skew.SkewData`` packs the powers of sigma(X) = (1 + X)**eps - 1 (the
closed form of ``vbinom``) as its columns, and ``iwasawa._quotient``
composes a polynomial in w with w.  :class:`CoeffSeries` is the
full-precision (q = K) wrapper, by the rule of ``precision._Frozen``.
"""
from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from operator import mod, mul

from .errors import NotAUnit, SubstitutionDiverges
from .linalg import pval
from .precision import AtLeast, PrecisionContext, _Frozen

Vec = tuple[int, ...]


# ---------------------------------------------------------------------------
# kernels on canonical digit tuples
# ---------------------------------------------------------------------------

def vcanon(ctx: PrecisionContext, vals: Iterable[int], q: int) -> Vec:
    # % gives the nonnegative residue, and a collapsed slot has modulus 1
    out = tuple(map(mod, vals, ctx.slot_moduli(q)))
    return out + (0,) * (ctx.K - len(out))


def vzero(ctx: PrecisionContext) -> Vec:
    return (0,) * ctx.K


def vone(ctx: PrecisionContext) -> Vec:
    return (1,) + (0,) * (ctx.K - 1)


def vadd(ctx: PrecisionContext, u: Vec, v: Vec, q: int) -> Vec:
    return vcanon(ctx, [x + y for x, y in zip(u, v)], q)


def vsub(ctx: PrecisionContext, u: Vec, v: Vec, q: int) -> Vec:
    return vcanon(ctx, [x - y for x, y in zip(u, v)], q)


def vmul(ctx: PrecisionContext, u: Vec, v: Vec, q: int) -> Vec:
    # Slots at index >= q have modulus 1, so the Cauchy sum is cut there.
    lim = min(ctx.K, q)
    acc = [0] * lim
    for a in range(lim):
        ua = u[a]
        if ua:
            for b in range(lim - a):
                vb = v[b]
                if vb:
                    acc[a + b] += ua * vb
    return vcanon(ctx, acc, q)


def vorder(ctx: PrecisionContext, u: Vec, q: int) -> int:
    """m-adic order of u, capped at q (== q means not visible); v_p is ``linalg.pval``.

    In char p a canonical digit is 0 or a unit below p, so the first
    nonzero digit ends the loop in either mode.
    """
    best = q
    for a, x in enumerate(u):
        if a >= best:
            break
        if x:
            best = a + pval(x, ctx.p, best - a)  # capped at best - a, past which best cannot fall
    return best


def vis_unit(ctx: PrecisionContext, u: Vec) -> bool:
    return u[0] % ctx.p != 0


def vinv(ctx: PrecisionContext, u: Vec, q: int) -> Vec:
    """Inverse mod m**q, one X-degree at a time.

    c_0 = u_0**-1 and c_k = -c_0 * sum_(i=1..k) u_i c_(k-i) solve u*c = 1
    (von zur Gathen and Gerhard, Modern Computer Algebra, 9.1).  Sums are
    reduced mod the top slot modulus M (p**q, or p in char-p mode): every
    slot modulus divides M and X**q lies in m**q, so the ring R/(M, X**q)
    maps onto R/m**q, inverse to inverse, and one ``vcanon`` ends it.

    >>> vinv(PrecisionContext(3, 3), (1, 1, 0), 3) == (1, 8, 1)
    True
    """
    if not vis_unit(ctx, u):
        raise NotAUnit("constant term is not a unit")
    M = ctx.slot_moduli(q)[0]
    c = [pow(u[0], -1, M)]
    for k in range(1, q):
        c.append(-c[0] * sum(map(mul, u[1 : k + 1], reversed(c))) % M)
    return vcanon(ctx, c, q)


def vpowers(ctx: PrecisionContext, t: Vec) -> Iterator[Vec]:
    """1, t, t**2, ... mod m**K, up to the last power that does not vanish.

    t must lie in m: then t**k lies in m**k, so at most K powers are
    yielded.  Each power is one ``vmul`` by t, taken only when asked for.
    """
    power = vone(ctx)
    while any(power):
        yield power
        power = vmul(ctx, power, t, ctx.K)


def vcompose(ctx: PrecisionContext, u: Iterable[int], t: Vec) -> Vec:
    """u(t) = sum_a u_a * t**a for t in m, exact mod m**K.

    The terms are summed raw, digit by digit, over ``vpowers`` and
    reduced once, as the reduction is additive.  u may be any iterable of
    integers; a canonical u_a is known mod p**(K-a), which is enough, as
    t**a lies in m**a.  The sum stops where u or the powers of t end.
    """
    if t[0] % ctx.p != 0:
        raise SubstitutionDiverges("substituted series must lie in m")
    terms = ([c * x for x in power] for c, power in zip(u, vpowers(ctx, t)))
    return vcanon(ctx, map(sum, zip(*terms)), ctx.K)


def vbinom(ctx: PrecisionContext, e: int) -> Vec:
    """(1 + X)**e - 1 = sum_(a >= 1) C(e, a) X**a, canonical mod m**K.

    (1 + X)**(p**K) = 1 mod m**(K+1), so only e mod p**K is visible; the
    reduced exponent also makes e of any sign or size cost K binomials.
    C(e, a) is the falling factorial e(e-1)...(e-a+1) over a!.  It is
    kept mod p**(K+v), v = v_p((K-1)!), so once a!'s p-part p**v_a is
    divided out exactly it is still known mod p**K.  The unit part u_a of
    a! is x_1...x_a, x_a the unit part of a; only the last u_a is inverted
    mod p**K, and u_(a-1)**-1 = u_a**-1 * x_a walks down from it.  Every
    intermediate stays below p**(2K+v).
    """
    p, K = ctx.p, ctx.K
    v = sum((K - 1) // p**i for i in range(1, K.bit_length() + 1))  # Legendre
    top, big = p**K, p ** (K + v)
    e %= top
    out, xs, fall, unit, va = [0], [], 1, 1, 0
    for a in range(1, K):
        fall = fall * (e - a + 1) % big
        if not fall:  # then so is every later falling factorial
            break
        x = a
        while x % p == 0:
            x //= p
            va += 1
        xs.append(x)
        unit = unit * x % top
        out.append(fall // p**va)
    inv = pow(unit, -1, top)
    for a in range(len(xs), 0, -1):
        out[a] *= inv
        inv = inv * xs[a - 1] % top
    return vcanon(ctx, out, K)


# ---------------------------------------------------------------------------
# public wrapper at full precision
# ---------------------------------------------------------------------------

class CoeffSeries(_Frozen):
    """An element of R/m**K in canonical form.

    Tuple equality of ``coeffs`` is equality mod m**K; the coefficient
    of X**a is visible to scalar precision K - a (1 in char-p mode).
    """

    __slots__ = __match_args__ = ("ctx", "coeffs")

    def __init__(self, ctx: PrecisionContext, coeffs: Sequence[int]):
        super().__init__(ctx, vcanon(ctx, coeffs, ctx.K))

    # -- constructors --------------------------------------------------
    @classmethod
    def zero(cls, ctx: PrecisionContext) -> "CoeffSeries":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: PrecisionContext) -> "CoeffSeries":
        return cls(ctx, (1,))

    @classmethod
    def x(cls, ctx: PrecisionContext) -> "CoeffSeries":
        return cls(ctx, (0, 1))

    # -- arithmetic ----------------------------------------------------
    def _other(self, other) -> Vec:
        if isinstance(other, CoeffSeries):
            self.ctx.check_same(other.ctx)
            return other.coeffs
        if isinstance(other, int):
            return vcanon(self.ctx, (other,), self.ctx.K)
        return NotImplemented

    def _binop(self, kernel, other):
        v = self._other(other)
        if v is NotImplemented:
            return NotImplemented
        return self._trusted(self.ctx, kernel(self.ctx, self.coeffs, v, self.ctx.K))

    def __add__(self, other):
        return self._binop(vadd, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(vsub, other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return self._trusted(self.ctx, vsub(self.ctx, vzero(self.ctx), self.coeffs, self.ctx.K))

    def __mul__(self, other):
        # a SkewSeries gets NotImplemented, and its __rmul__ acts on the left
        if isinstance(other, int):  # an integer scales every digit; the products are raw
            return CoeffSeries(self.ctx, [other * x for x in self.coeffs])
        return self._binop(vmul, other)

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"CoeffSeries(p={self.ctx.p}, K={self.ctx.K}, {list(self.coeffs)})"

    # -- structure -----------------------------------------------------
    def m_order(self) -> int | AtLeast:
        o = vorder(self.ctx, self.coeffs, self.ctx.K)
        return AtLeast(self.ctx.K) if o >= self.ctx.K else o

    def is_unit(self) -> bool:
        return vis_unit(self.ctx, self.coeffs)

    def is_zero(self) -> bool:
        """True when the element vanishes mod m**K (zero at precision)."""
        return not any(self.coeffs)

    def inverse(self) -> "CoeffSeries":
        return self._trusted(self.ctx, vinv(self.ctx, self.coeffs, self.ctx.K))

    def compose(self, t: "CoeffSeries") -> "CoeffSeries":
        self.ctx.check_same(t.ctx)
        return self._trusted(self.ctx, vcompose(self.ctx, self.coeffs, t.coeffs))
