"""Twisted structure on the coefficient ring.

For a unit eps of Z_p with eps = 1 mod p, the coefficient ring carries
the automorphism

    sigma(r)(X) = r((1 + X)**eps - 1)

and the derivation delta = sigma - id, which maps m into m**2: this is
what makes the skew series layer's triangular precision bookkeeping work.

``SkewData`` is a frozen value: == and hash read ctx and the exponent
mod p**(K + EPSILON_GUARD), and only its caches fill in place.  Applying
sigma is a Z_p-linear combination of the powers of sigma(X) =
(1 + X)**eps - 1 = sum_(a >= 1) C(eps, a) X**a, the closed form of
``coeff.vbinom``; each power is kept once, packed as the column the
kernels read.  The constructor checks eps only: with e = eps mod p**K,
sigma(X) has the unit X-coefficient e, and p | e - 1 puts delta(X) in
m**2.  sigma^-1 is the sigma of ``opposite()``, the twist by eps**-1 mod
p**(K + EPSILON_GUARD) over the same context, built on first use: as
e * e**-1 = 1 mod p**K and (1 + X)**(p**K) - 1 lies in m**(K+1),
sigma^-1(sigma(X)) = X mod m**K.  Lift first, then take the opposite:
``sd.opposite().at_precision(K')`` is that twist only for K' <= K +
EPSILON_GUARD.

Rows are packed (Kronecker substitution): ``SkewData.pack`` writes the
digits into one int, one slot of w bytes each, so a sum of products of
rows is big-int arithmetic done in C, and ``unpack`` reads the low slots
back.  w is the least multiple of 8 holding K**2 * m**2, where m is p**K
(p in char-p mode).  Canonical digits are nonnegative and below m, and a
kernel slot sums at most K**2 products of two digits, so no slot carries
into the next: the slots hold exactly what a digit loop would add up.
The Y-step's slot, sigma(f_(j-1)) + sigma(f_j) + t_j in row j, sums
q + 1 products from row j - 1 (none when j = 0) and q from row j,
q = K - j, so 2q + 1 <= 2K - 1 of them, plus one slot of the packed term
t_j, which is below m**2 (Horner's rule adds c*f_j with c < p <= m): in
all below 2K * m**2 <= K**2 * m**2 for K >= 2.  At K = 1 a step is one
product (a table step) or the term on zero rows (Horner's one step),
below m**2.  A table step also subtracts the packed f_j: the X**a digit
of sigma(X)**a is 1 mod p, so slot a of sigma(f_j) is at least f_j[a],
no slot goes negative and none borrows from the next.

``_twist_rows`` lists the rows (Y**n u)_i of the skew commutation rule,
built afresh on every call.  No package code calls it: the series layer
steps one Y at a time (see :mod:`skewseries.series`), and the tables
serve the tests' oracle.  It keeps its name because the benchmark's
tracer profiles it by name, and the ``_twist`` slot stays, always the
empty tuple, because the tracer reads its length.  The one cache a
``SkewData`` fills is ``_derived``, the lifts and the opposite, under
``_lock``.
"""
from __future__ import annotations

from _thread import allocate_lock
from collections.abc import Sequence
from operator import mul
from struct import Struct

from .coeff import (
    CoeffSeries,
    Vec,
    vadd,
    vbinom,
    vcanon,
    vmul,
    vone,
    vorder,
    vsub,
    vzero,
)
from .errors import ContextMismatch, InvalidAction
from .precision import PrecisionContext, _Frozen, _Record

# Digits of epsilon past K that identify a twist: equality and hashing
# read the exponent mod p**(K + EPSILON_GUARD).
EPSILON_GUARD = 5


class SkewData(_Frozen):
    """Precomputed data for one twist exponent ``epsilon_raw`` at one precision."""

    __slots__ = (
        "ctx",
        "epsilon_raw",
        "_eps_key",
        "_w",
        "_masks",
        "_words",
        "_sig_cols",
        "_twist",
        "_lock",
        "_derived",
    )
    __match_args__ = ("ctx", "_eps_key")

    def __init__(
        self, ctx: PrecisionContext, epsilon_residue: int, *, _sibling: "SkewData | None" = None
    ):
        # a _sibling over the same ctx lends its packing, which depends on ctx only
        check_epsilon(ctx, epsilon_residue)
        K = ctx.K
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "epsilon_raw", epsilon_residue)
        object.__setattr__(self, "_eps_key", epsilon_residue % ctx.p ** (K + EPSILON_GUARD))
        if _sibling is not None and _sibling.ctx is ctx:
            for name in ("_w", "_masks", "_words"):
                object.__setattr__(self, name, getattr(_sibling, name))
        else:
            top = ctx.slot_moduli(K)[0]  # every canonical digit is below it
            w = 8 * -(-(K * K * top * top).bit_length() // 64)
            object.__setattr__(self, "_w", w)
            object.__setattr__(self, "_masks", tuple((1 << (8 * w * q)) - 1 for q in range(K + 1)))
            # little-endian on every host
            object.__setattr__(self, "_words", tuple(Struct(f"<{q}Q") for q in range(K + 1)))
        object.__setattr__(self, "_twist", ())
        object.__setattr__(self, "_lock", allocate_lock())
        object.__setattr__(self, "_derived", {})
        # sigma(X)**0, ..., sigma(X)**(K-1), packed: the columns ``_apply`` reads
        t, pows = vbinom(ctx, epsilon_residue), [vone(ctx)]
        for _ in range(K - 1):
            pows.append(vmul(ctx, pows[-1], t, K))
        object.__setattr__(self, "_sig_cols", tuple(map(self.pack, pows)))

    # -- identity ------------------------------------------------------
    def __repr__(self) -> str:
        c = self.ctx
        return f"SkewData(p={c.p}, K={c.K}, mode={c.mode}, eps={self.epsilon_raw})"

    def __reduce__(self):  # pickle and copy rebuild the twist, not the caches
        return SkewData, (self.ctx, self.epsilon_raw)

    def check_same(self, other: "SkewData") -> None:
        if self != other:
            raise ContextMismatch(f"twist data differ: {self!r} vs {other!r}")

    def at_precision(self, K: int) -> "SkewData":
        """The same twist over the context with filtration level K.

        Reuses the raw exponent, so elevated working precisions stay
        consistent with this one on every visible digit.
        """
        return self._derive(K, self.epsilon_raw)

    def opposite(self) -> "SkewData":
        """The twist by eps**-1 over this context: its sigma is sigma^-1."""
        c = self.ctx
        return self._derive(c.K, pow(self.epsilon_raw, -1, c.p ** (c.K + EPSILON_GUARD)))

    def _derive(self, K: int, eps: int) -> "SkewData":
        """The twist by eps at level K over this p and mode, built once and kept.

        A twist over this very context shares this one's packing tables.
        """
        if K == self.ctx.K and eps == self.epsilon_raw:
            return self
        with self._lock:
            cached = self._derived.get((K, eps))
            if cached is None:
                c = self.ctx
                ctx = c if K == c.K else PrecisionContext(c.p, K, c.mode)
                cached = self._derived[K, eps] = SkewData(ctx, eps, _sibling=self)
            return cached

    # -- packed rows -----------------------------------------------------
    def pack(self, row: Sequence[int]) -> int:
        """``row``, whose digits must be canonical, as one int: digit a in slot a."""
        w = self._w
        if w == 8:
            return int.from_bytes(self._words[len(row)].pack(*row), "little")
        return int.from_bytes(b"".join(x.to_bytes(w, "little") for x in row), "little")

    def unpack(self, n: int, q: int) -> Sequence[int]:
        """The q low slots of a packed sum, as integers; they must be nonnegative."""
        w = self._w
        b = (n & self._masks[q]).to_bytes(q * w, "little")
        if w == 8:
            return self._words[q].unpack(b)
        return [int.from_bytes(b[i : i + w], "little") for i in range(0, q * w, w)]

    # -- applying the twist --------------------------------------------
    def _apply(self, u: Vec) -> Sequence[int]:
        """Raw, unreduced digits of sigma(u), K of them.

        It sums u_a times the packed a-th power of sigma(X); u is
        canonical, so a slot sums at most K products of digits.  The
        caller reduces the finished row once.
        """
        return self.unpack(sum(map(mul, u, self._sig_cols)), self.ctx.K)

    def sig_vec(self, u: Vec) -> Vec:
        return vcanon(self.ctx, self._apply(u), self.ctx.K)

    def apply_sigma(self, r: CoeffSeries) -> CoeffSeries:
        self.ctx.check_same(r.ctx)
        return CoeffSeries._trusted(self.ctx, self.sig_vec(r.coeffs))

    def apply_delta(self, r: CoeffSeries) -> CoeffSeries:
        return self.apply_sigma(r) - r

    # -- twist tables --------------------------------------------------
    def _twist_rows(self, u: Vec, n: int) -> list[list[Vec]]:
        """Rows 0..n of the commutation table of u.

        Row m lists (Y**m u)_0 .. (Y**m u)_m with the recursion
        (Y**(m+1) u)_j = sigma((Y**m u)_(j-1)) + delta((Y**m u)_j), summed
        raw from ``_apply`` and reduced once per entry.
        """
        ctx = self.ctx
        K = ctx.K
        rows, zero = [[u]], (0,) * K
        while len(rows) <= n:
            prev = rows[-1]
            sig = [self._apply(e) for e in prev]
            rows.append([
                vcanon(ctx, [x + y - z for x, y, z in zip(a, b, r)], K)
                for a, b, r in zip([zero] + sig, sig + [zero], prev + [zero])
            ])
        return rows

    # -- series constructors -------------------------------------------
    def _series(self, rows):  # canonical rows; those from K up lie in G_K and go
        from .series import SkewSeries  # lazy: series imports this module

        K = self.ctx.K
        return SkewSeries._trusted(self, tuple(rows[:K]) + (vzero(self.ctx),) * (K - len(rows)))

    def zero(self):
        return self._series(())

    def one(self):
        return self._series((vone(self.ctx),))

    def y(self, power: int = 1):
        if power < 0:
            raise ValueError("power must be >= 0")
        # Y**power lies in G_K once power >= K, so no more rows are built
        return self._series([vzero(self.ctx)] * min(power, self.ctx.K) + [vone(self.ctx)])

    def embed(self, r: CoeffSeries | int):
        if isinstance(r, int):
            r = CoeffSeries(self.ctx, (r,))
        self.ctx.check_same(r.ctx)
        return self._series((r.coeffs,))


def check_epsilon(ctx: PrecisionContext, epsilon_residue: int) -> None:
    """Refuse, with InvalidAction, an eps that is negative or not 1 mod p."""
    if epsilon_residue < 0:
        raise InvalidAction("epsilon must be a nonnegative residue")
    if epsilon_residue % ctx.p != 1 % ctx.p:
        raise InvalidAction(f"epsilon = {epsilon_residue} is not congruent to 1 mod p = {ctx.p}")


def build_skew(ctx: PrecisionContext, epsilon_residue: int) -> SkewData:
    """Construct the twist data, validating eps = 1 mod p."""
    return SkewData(ctx, epsilon_residue)


# ---------------------------------------------------------------------------
# axiom validation
# ---------------------------------------------------------------------------

class AxiomCheck(_Record):
    __slots__ = __match_args__ = ("name", "passes", "failures", "counterexample")

    def __init__(self, name: str, passes: int = 0, failures: int = 0,
                 counterexample: str | None = None):
        super().__init__(name, passes, failures, counterexample)

    def record(self, ok: bool, witness: str) -> None:
        if ok:
            self.passes += 1
        else:
            self.failures += 1
            if self.counterexample is None:
                self.counterexample = witness


class AxiomReport(_Record):
    __slots__ = __match_args__ = ("samples", "seed", "checks")

    def __init__(self, samples: int, seed: int, checks: list[AxiomCheck] | None = None):
        super().__init__(samples, seed, [] if checks is None else checks)

    @property
    def passed(self) -> bool:
        return all(c.failures == 0 for c in self.checks)

    def to_dict(self) -> dict:
        checks = [dict(zip(c.__slots__, c._fields())) for c in self.checks]
        return {"samples": self.samples, "seed": self.seed, "checks": checks, "passed": self.passed}


def _random_vec(ctx: PrecisionContext, rng, in_m: bool = False) -> Vec:
    # digit a is drawn below p**(K - a) in either mode and then reduced:
    # selfcheck draws its coefficients here too, so both share one stream
    vals = [rng.randrange(ctx.p ** (ctx.K - a)) for a in range(ctx.K)]
    if in_m:
        vals[0] -= vals[0] % ctx.p
    return vcanon(ctx, vals, ctx.K)


def validate_axioms(sd: SkewData, samples: int = 100, seed: int = 0) -> AxiomReport:
    """Randomized check that (sigma, delta) is a twisted derivation pair.

    Failures are collected into the report, not raised.
    """
    from random import Random  # here, so that no other job loads random

    ctx = sd.ctx
    K = ctx.K
    rng = Random(seed)
    report = AxiomReport(samples=samples, seed=seed)
    ring = AxiomCheck("sigma_is_ring_map")
    leib = AxiomCheck("delta_twisted_leibniz")
    dm = AxiomCheck("delta_lands_in_m")
    dm2 = AxiomCheck("delta_deepens_m")
    ordp = AxiomCheck("sigma_preserves_m_order")
    inv = AxiomCheck("sigma_inverse_roundtrip")
    report.checks = [ring, leib, dm, dm2, ordp, inv]
    op = sd.opposite()
    for _ in range(samples):
        r = _random_vec(ctx, rng)
        s = _random_vec(ctx, rng)
        rm = _random_vec(ctx, rng, in_m=True)
        sig_r = sd.sig_vec(r)
        sig_s = sd.sig_vec(s)
        rs = vmul(ctx, r, s, K)
        lhs = sd.sig_vec(rs)
        rhs = vmul(ctx, sig_r, sig_s, K)
        add_ok = sd.sig_vec(vadd(ctx, r, s, K)) == vadd(ctx, sig_r, sig_s, K)
        ring.record(lhs == rhs and add_ok, f"r={list(r)}, s={list(s)}")
        d_r = vsub(ctx, sig_r, r, K)
        d_s = vsub(ctx, sig_s, s, K)
        d_rs = vsub(ctx, lhs, rs, K)
        want = vadd(ctx, vmul(ctx, d_r, s, K), vmul(ctx, sig_r, d_s, K), K)
        leib.record(d_rs == want, f"r={list(r)}, s={list(s)}")
        dm.record(vorder(ctx, d_r, K) >= min(1, K), f"r={list(r)}")
        d_rm = vsub(ctx, sd.sig_vec(rm), rm, K)
        dm2.record(vorder(ctx, d_rm, K) >= min(2, K), f"r={list(rm)}")
        o = vorder(ctx, r, K)
        ordp.record(vorder(ctx, sig_r, K) == o, f"r={list(r)}")
        back = op.sig_vec(sig_r) == r and sd.sig_vec(op.sig_vec(r)) == r
        inv.record(back, f"r={list(r)}")
    return report
