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

from dataclasses import dataclass, field

from .errors import ContextMismatch, NotAUnit

INTEGRAL = "integral"
CHARP = "charp"

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    # Deterministic Miller-Rabin for the range we will ever meet.
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class AtLeast:
    """Marker for a quantity known only to be >= bound.

    Returned where a valuation or order exceeds what the precision can
    certify: the true value is some integer >= ``bound`` (possibly
    infinite, e.g. for an exact zero).
    """

    bound: int

    def __repr__(self) -> str:
        return f"AtLeast({self.bound})"


@dataclass(frozen=True)
class PrecisionContext:
    p: int
    K: int
    mode: str = INTEGRAL
    # p**K, ..., p (K copies of p in char-p mode), then K ones: the slot
    # moduli at precision q are the K entries from index K - q on.
    _ladder: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if self.mode not in (INTEGRAL, CHARP):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == CHARP:
            top = (self.p,) * self.K
        else:
            top = tuple(self.p**e for e in range(self.K, 0, -1))
        object.__setattr__(self, "_ladder", top + (1,) * self.K)

    def with_K(self, K: int) -> "PrecisionContext":
        return PrecisionContext(self.p, K, self.mode)

    def slot_moduli(self, q: int) -> tuple[int, ...]:
        """Per-X-degree moduli of a coefficient vector at m-precision q <= K."""
        return self._ladder[self.K - q : 2 * self.K - q]

    def check_same(self, other: "PrecisionContext") -> None:
        if self != other:
            raise ContextMismatch(f"contexts differ: {self} vs {other}")


class PadicInt:
    """A residue mod p**prec.  Immutable.

    >>> PadicInt(5, 2, 3).inverse().residue
    63
    """

    __slots__ = ("p", "residue", "prec")

    def __init__(self, p: int, residue: int, prec: int):
        if prec < 0:
            raise ValueError("prec must be >= 0")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "prec", prec)
        object.__setattr__(self, "residue", residue % p**prec)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("PadicInt is immutable")

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PadicInt)
            and self.p == other.p
            and self.prec == other.prec
            and self.residue == other.residue
        )

    def __hash__(self) -> int:
        return hash((self.p, self.residue, self.prec))

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
