"""Scalar p-adic arithmetic with tracked finite precision.

A scalar is a residue mod p**m together with the exponent m ("known mod
p**m").  Arithmetic propagates the minimum of the operand precisions;
a precision-0 scalar carries no information and absorbs everything.

A :class:`PrecisionContext` fixes the prime ``p``, the working filtration
level ``K`` and the coefficient mode:

* ``"integral"`` -- coefficients in Z_p[[X]], maximal ideal m = (p, X);
* ``"charp"``    -- coefficients in F_p[[X]], maximal ideal m = (X).

The context also owns the triangular slot moduli used by the series
layers: at m-adic precision q the coefficient of X**a is stored mod
p**(q-a) in integral mode and mod p (for a < q) in char-p mode.
"""
from __future__ import annotations

from math import isqrt

from .errors import ContextMismatch, NotAUnit

INTEGRAL = "integral"
CHARP = "charp"

# Largest K a context may ask for, and the largest working precision an
# algorithm may lift to.  build_skew at K = 128 takes 54 ms at p = 3,
# 1.4 s at p = 1000003 and 2.8 s at p = 2**31 - 1 (integral mode, min of
# 3 runs, 2-vCPU VM, Python 3.11); at p = 3 it takes 0.64 s at K = 256.
MAX_PRECISION = 128

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Baillie-PSW: trial division, a strong base-2 test, then a strong Lucas test.

    No composite is known to pass it.  Miller-Rabin with the bases in
    ``_SMALL_PRIMES`` alone is fooled, for one, by 318665857834031151167461.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x not in (1, n - 1):
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if isqrt(n) ** 2 == n:  # a square has no D with (D/n) = -1
        return False
    # Selfridge's parameters: the first D of 5, -7, 9, -11, ... with
    # Jacobi symbol (D/n) = -1, then P = 1 and Q = (1 - D)/4.
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:  # |D| < n shares a factor with n
            return False
        D = -D - 2 if D > 0 else 2 - D
    return _strong_lucas(n, D, (1 - D) // 4 % n)


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int, D: int, Q: int) -> bool:
    """The strong Lucas test with P = 1: with n + 1 = d * 2**s and d odd,
    U_d = 0 or V_(d * 2**r) = 0 mod n for some r < s."""
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x: int) -> int:  # x / 2 mod the odd n
        return (x + n if x % 2 else x) // 2 % n

    U, V, Qk = 1, 1, Q  # U_1, V_1, Q**1
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n  # k -> 2k
        if bit == "1":  # 2k -> 2k + 1
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


class _Record:
    """A record in slots whose fields are named once, in __match_args__:
    __init__ takes each by position or keyword, and == and repr read them.

    >>> AtLeast(bound=3) == AtLeast(3)
    True
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__match_args__
        if kwargs or len(args) != len(names):
            given = dict(zip(names, args))
            wrong = sorted(kwargs.keys() & given.keys() | kwargs.keys() - set(names))
            if wrong or len(args) > len(names):
                raise TypeError(f"{type(self).__name__}() takes the fields {names}: "
                                f"got {len(args)} by position, doubled or unknown {wrong}")
            given.update(kwargs)
            missing = [name for name in names if name not in given]
            if missing:
                raise TypeError(f"{type(self).__name__}() missing fields {missing}")
            args = [given[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)  # _Frozen refuses plain assignment

    def _fields(self) -> tuple:
        return tuple(getattr(self, k) for k in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._fields() == other._fields()

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self.__match_args__)
        return f"{type(self).__name__}({fields})"


class _Frozen(_Record):
    """An immutable, hashable record: its slots are set only by object.__setattr__."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __reduce__(self):  # pickle and copy rebuild through __init__
        return type(self), self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class AtLeast(_Frozen):
    """Marker for a quantity known only to be >= bound.

    Returned where a valuation or order exceeds what the precision can
    certify: the true value is some integer >= ``bound`` (possibly
    infinite, e.g. for an exact zero).
    """

    __slots__ = __match_args__ = ("bound",)

    def __repr__(self) -> str:
        return f"AtLeast({self.bound})"


class PrecisionContext(_Frozen):
    __slots__ = ("p", "K", "mode", "_windows")
    __match_args__ = ("p", "K", "mode")

    def __init__(self, p: int, K: int, mode: str = INTEGRAL):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if K < 1:
            raise ValueError("K must be >= 1")
        if mode not in (INTEGRAL, CHARP):
            raise ValueError(f"unknown mode {mode!r}")
        super().__init__(p, K, mode)
        # p**K, ..., p (K copies of p in char-p mode), then K ones: the slot
        # moduli at precision q are the K entries from index K - q on.
        top = (p,) * K if mode == CHARP else tuple(p**e for e in range(K, 0, -1))
        lad = top + (1,) * K
        object.__setattr__(self, "_windows", {q: lad[K - q : 2 * K - q] for q in range(K + 1)})

    def with_K(self, K: int) -> "PrecisionContext":
        return PrecisionContext(self.p, K, self.mode)

    def slot_moduli(self, q: int) -> tuple[int, ...]:
        """Per-X-degree moduli of a coefficient vector at m-precision q in 0..K."""
        try:
            return self._windows[q]
        except KeyError:
            raise ValueError(f"m-precision {q!r} outside 0..{self.K}") from None

    def check_same(self, other: "PrecisionContext") -> None:
        if self != other:
            raise ContextMismatch(f"contexts differ: {self} vs {other}")


class PadicInt(_Frozen):
    """A residue mod p**prec.  Immutable.

    >>> PadicInt(5, 2, 3).inverse().residue
    63
    """

    __slots__ = __match_args__ = ("p", "residue", "prec")

    def __init__(self, p: int, residue: int, prec: int):
        if prec < 0:
            raise ValueError("prec must be >= 0")
        super().__init__(p, residue % p**prec, prec)

    # -- helpers -------------------------------------------------------
    def _join(self, other: "PadicInt") -> int:
        if not isinstance(other, PadicInt):
            raise TypeError(f"expected PadicInt, got {type(other).__name__}")
        if self.p != other.p:
            raise ContextMismatch(f"different primes: {self.p} vs {other.p}")
        return min(self.prec, other.prec)

    # -- ring operations (minimum-precision rule) ----------------------
    def __add__(self, other: "PadicInt") -> "PadicInt":
        m = self._join(other)
        return PadicInt(self.p, self.residue + other.residue, m)

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        m = self._join(other)
        return PadicInt(self.p, self.residue - other.residue, m)

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        m = self._join(other)
        return PadicInt(self.p, self.residue * other.residue, m)

    def __neg__(self) -> "PadicInt":
        return PadicInt(self.p, -self.residue, self.prec)

    def __repr__(self) -> str:
        return f"PadicInt({self.residue} mod {self.p}^{self.prec})"

    def is_unit(self) -> bool:
        return self.prec > 0 and self.residue % self.p != 0

    def inverse(self) -> "PadicInt":
        """The inverse mod p**prec; NotAUnit when p divides the residue."""
        if not self.is_unit():
            raise NotAUnit(f"{self!r} has no visible inverse")
        return PadicInt(self.p, pow(self.residue, -1, self.p**self.prec), self.prec)

    def valuation(self) -> int | AtLeast:
        """p-adic valuation; AtLeast(prec) when the residue vanishes."""
        if self.residue == 0:
            return AtLeast(self.prec)
        v, r = 0, self.residue
        while r % self.p == 0:
            r //= self.p
            v += 1
        return v
