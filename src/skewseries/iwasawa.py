"""Cyclotomic elements, normality witnesses, ideal descent, rank growth.

The coefficient ring carries the tower omega_n = (1+X)**p**n - 1, whose
digits are binomial coefficients (``coeff.vbinom``), and its ratios
xi_n = ((1 + w)**p - 1)/w with w = omega_(n-1).  ``_quotient`` forms
((1 + w)**e - 1)/w as the composition sum_k C(e, k+1) * w**k, summed
over the powers of w that ``coeff.vpowers`` takes, never by power-series
division (dividing by a non-unit is ill-conditioned at triangular
precision); the unit of ``normal_witness`` is the same quotient at
e = eps.  The recursion 1 + omega_n = (1 + omega_(n-1))**p is kept only
for the tower in (Z/p**M)[X]/F, where a closed form would have degree
p**n.  On top of these sit three
experiment drivers: an explicit witness that omega_n generates the same
left and right ideal, a two-sided-ideal descent producing a scalar
element, and the coinvariant rank-growth law lambda_n = d*p**n + c,
which reads one tower mod (F, p**M) per torsion polynomial F.  Only its
levels with p**n >= deg F take a Smith form of a deg F x deg F matrix;
below, omega_n is monic of degree p**n and ``_coinvariant`` works on
(Z/p**M)[X]/omega_n instead.  A corank at precision M counts every
valuation that reaches M as kernel, so each level is checked against the
exact rank over Z_p, deg gcd(F, omega_n), read off the cyclotomic factors
of F once per call: a count above it is refused like a guard-band pivot.
"""
from __future__ import annotations

from collections.abc import Iterator, Sequence
from itertools import pairwise
from math import comb

from .coeff import CoeffSeries, vbinom, vcanon, vcompose, vmul, vorder, vsub
from .errors import (
    DegenerateAction,
    PrecisionInsufficient,
    VanishedAtPrecision,
)
from .linalg import smith_valuations
from .precision import (
    MAX_PRECISION,
    AtLeast,
    PadicInt,
    PrecisionContext,
    _Frozen,
    _is_prime,
    _Record,
)
from .series import SkewSeries
from .skew import SkewData

# Largest n_max that rank_growth accepts.  Its table holds d*p**n for
# every level, so time and memory grow faster than n_max: 10**4 levels
# take a fraction of a second, 6*10**4 over ten seconds.
MAX_TOWER_LEVEL = 10_000

# Largest degree of a torsion polynomial that ModuleSpec accepts: every
# distinguished polynomial at K <= MAX_PRECISION has a lower degree.
# Each level of rank_growth with p**n >= deg F takes a Smith form of a
# deg F x deg F matrix mod p**M (a lower level a p**n x p**n one), and
# omega_n vanishes mod (p**M, F) only near n = M: F = X**128 at M = 128
# and n_max >= 135 took 21 s at p = 2, 39 s at p = 3 and 381 s at
# p = 1000003, which the cap does not bound (measured with the full
# matrix at every level; at most 7 of those levels have p**n < 128).
MAX_TORSION_DEGREE = 128


# -- cyclotomic tower ----------------------------------------------------


def omega(ctx: PrecisionContext, n: int) -> CoeffSeries:
    """omega_n = (1+X)**(p**n) - 1; omega_-1 = 1, omega_0 = X."""
    if n < -1:
        raise ValueError("omega is defined for n >= -1")
    if n == -1:
        return CoeffSeries.one(ctx)
    return CoeffSeries._trusted(ctx, vbinom(ctx, pow(ctx.p, n, ctx.p**ctx.K)))


def _quotient(ctx: PrecisionContext, e: int, w: CoeffSeries) -> CoeffSeries:
    """((1 + w)**e - 1)/w = sum_(k < e) C(e, k+1) * w**k, for w in m.

    No division: it is the polynomial sum_k C(e, k+1) * Z**k composed
    with Z = w, one ``coeff.vcompose``.  Its binomials are drawn lazily,
    and the sum ends at the first power of w that vanishes mod m**K: for
    w in m**d only k < K/d is visible, at most K terms whatever e is.
    """
    return CoeffSeries._trusted(ctx, vcompose(ctx, (comb(e, k + 1) for k in range(e)), w.coeffs))


def xi(ctx: PrecisionContext, n: int) -> CoeffSeries:
    """xi_0 = X; xi_n = omega_n / omega_(n-1) for n >= 1.

    With w = omega_(n-1), 1 + omega_n = (1 + w)**p, so xi_n is
    ``_quotient`` at e = p: w lies in m**n, so at most K/n powers of w
    are visible.
    """
    if n < 0:
        raise ValueError("xi is defined for n >= 0")
    if n == 0:
        return CoeffSeries.x(ctx)
    return _quotient(ctx, ctx.p, omega(ctx, n - 1))


class TowerEntry(_Frozen):
    __slots__ = __match_args__ = (
        "n", "product_ok", "xi_constant_ok", "omega_constant_zero", "vacuous",
    )

    @property
    def ok(self) -> bool:
        return self.product_ok and self.xi_constant_ok and self.omega_constant_zero


class TowerReport(_Record):
    __slots__ = __match_args__ = ("p", "K", "n_max", "entries", "warnings")

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)


def omega_tower_check(ctx: PrecisionContext, n_max: int) -> TowerReport:
    """Verify xi_n * omega_(n-1) = omega_n, xi_n(0) = p, omega_n(0) = 0.

    Each omega_n is computed once; xi_n is formed from omega_(n-1) as ``xi`` does.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    if n_max > MAX_TOWER_LEVEL:
        raise ValueError(f"n_max must be <= {MAX_TOWER_LEVEL}")
    entries = []
    levels = pairwise(omega(ctx, n) for n in range(n_max + 1))
    for n, (om_prev, om) in enumerate(levels, 1):
        x = _quotient(ctx, ctx.p, om_prev)
        entries.append(
            TowerEntry(
                n=n,
                product_ok=(x * om_prev == om),
                xi_constant_ok=(x.coeffs[0] == ctx.p % ctx.slot_moduli(ctx.K)[0]),
                omega_constant_zero=(om.coeffs[0] == 0),
                vacuous=om.is_zero(),
            )
        )
    vacuous = [e.n for e in entries if e.vacuous]
    warnings = [
        f"vacuous-tail: omega_n vanishes mod m**{ctx.K} from n = "
        f"{vacuous[0]}; increase K for a nonvacuous check"
    ] if vacuous else []
    return TowerReport(ctx.p, ctx.K, n_max, entries, warnings)


# -- normal elements -----------------------------------------------------


def normal_witness(sd: SkewData, n: int) -> tuple[CoeffSeries, SkewSeries]:
    """Unit u with sigma(omega_n) = omega_n * u, and w = u*Y + (u-1).

    The witness identity Y * omega_n = omega_n * w (mod G_K) exhibits
    Y*omega_n inside omega_n*A, the computational content of omega_n
    being a normal element.  As sigma(omega_n) = (1 + omega_n)**eps - 1,
    u is the ``_quotient`` of omega_n, which lies in m**(n+1), at
    e = eps mod p**K (all the twist shows mod m**K).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    ctx = sd.ctx
    u = _quotient(ctx, sd.epsilon_raw % ctx.p**ctx.K, omega(ctx, n))
    w = SkewSeries(sd, [(u - 1).coeffs, u.coeffs])
    return u, w


# -- two-sided ideal descent ---------------------------------------------


def descend_ideal(
    sd: SkewData,
    zcoeffs: Sequence[CoeffSeries],
    trace: list[int] | None = None,
) -> tuple[CoeffSeries, int]:
    """Descend a Z-polynomial to a scalar inside the same two-sided ideal.

    In the Z = Y + 1 coordinate scalars commute past Z by Z*r =
    sigma(r)*Z, so with gamma = 1 + X the combination sigma**s(gamma)*b
    - b*gamma kills the top coefficient of b = sum c_i Z**i and
    multiplies the rest by sigma**s(gamma) - sigma**i(gamma).  Iterating
    strictly drops the degree until a single term r*Z**i remains; since
    Z is a unit, r itself lies in every two-sided ideal containing b.
    When given, `trace` collects the visible Z-degree at each iteration.

    Which coefficients survive a step is read off m-adic orders, with no
    product taken.  R is a regular local ring, so gr_m R is a polynomial
    ring (over F_p in the classes of p and X, or of X alone in char-p
    mode), a domain: ord(a*b) = ord(a) + ord(b), and a coefficient
    vanishes mod m**K exactly when its order reaches K.  As sigma is an
    automorphism preserving every m**k, ord(sigma**s(gamma) -
    sigma**i(gamma)) = ord(sigma**i(sigma**(s-i)(gamma) - gamma)) depends
    on s - i alone, so d orders serve a degree-d descent.  Only the
    survivor c_i is multiplied out, by sigma**s(gamma) - sigma**i(gamma)
    for each top degree s removed: at most d products.

    Each product is taken only to the precision that reaches the answer
    (precision tracking, Caruso, Roe and Vaccon, LMS J. Comput. Math.
    17, 2014): x known mod m**q times d in m**g is known mod m**(q+g),
    and d is needed only mod m**(q+g) too.  So c_i is reduced mod m**q
    with q = K less the orders gap[s - i] of all its factors, and each
    product by a factor of order g runs at q + g, the last at K.  That
    first q is at least 1: the survivor's final order, ord(c_i) plus the
    sum of its gaps, is below K, or it would not have survived.
    """
    ctx = sd.ctx
    K = ctx.K
    coeffs = list(zcoeffs)
    for c in coeffs:  # before any other check, and for a coefficient that dies too
        c.ctx.check_same(ctx)
    gamma = CoeffSeries(ctx, (1, 1))
    if sd.apply_sigma(gamma) == gamma:
        raise DegenerateAction(
            "sigma fixes 1+X at this precision; the descent step vanishes "
            "identically (twist exponent is 1 at precision)"
        )
    ords = [vorder(ctx, c.coeffs, K) for c in coeffs]
    if all(o >= K for o in ords):
        raise VanishedAtPrecision("input polynomial is zero at this precision")
    sig_gamma = [gamma]  # sigma**i(gamma) up to the top degree, which only falls
    for _ in range(max(i for i, o in enumerate(ords) if o < K)):
        sig_gamma.append(sd.apply_sigma(sig_gamma[-1]))
    # gap[k] = ord(sigma**k(gamma) - gamma); gap[0] is never read
    gap = [vorder(ctx, (g - gamma).coeffs, K) for g in sig_gamma]
    path: list[int] = []
    while True:
        nz = [i for i, o in enumerate(ords) if o < K]
        if not nz:
            raise VanishedAtPrecision(
                "descent killed every visible coefficient; "
                "K is too small to certify a nonzero scalar"
            )
        if trace is not None:
            trace.append(nz[-1])
        if len(nz) == 1:
            i = nz[0]
            gi = sig_gamma[i].coeffs
            q = K - sum(gap[s - i] for s in path)
            r = vcanon(ctx, coeffs[i].coeffs, q)
            for s in path:
                q += gap[s - i]
                r = vmul(ctx, r, vsub(ctx, sig_gamma[s].coeffs, gi, q), q)
            return CoeffSeries._trusted(ctx, r), len(path)
        s = nz[-1]
        ords = [ords[i] + gap[s - i] for i in range(s)]
        path.append(s)


# -- coinvariant rank growth ---------------------------------------------


def _check_poly(p: int, poly: Sequence[int]) -> tuple[int, ...]:
    F = tuple(int(c) for c in poly)
    if len(F) < 2 or F[-1] != 1:
        raise ValueError("torsion polynomial must be monic of degree >= 1")
    if len(F) - 1 > MAX_TORSION_DEGREE:
        raise ValueError(f"torsion polynomial degree must be <= {MAX_TORSION_DEGREE}")
    if any(c % p for c in F[:-1]):
        raise ValueError("lower coefficients must be divisible by p")
    return F


class ModuleSpec(_Frozen):
    """Synthetic module: free rank d plus torsion sides of the normal form."""

    __slots__ = __match_args__ = ("p", "d", "torsion_polys", "p_power_ranks")

    def __init__(
        self,
        p: int,
        d: int,
        torsion_polys: Sequence[Sequence[int]] = (),
        p_power_ranks: Sequence[int] = (),
    ):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        if d < 0:
            raise ValueError("free rank must be >= 0")
        torsion_polys = tuple(_check_poly(p, F) for F in torsion_polys)
        p_power_ranks = tuple(int(n) for n in p_power_ranks)
        if any(n < 1 for n in p_power_ranks):
            raise ValueError("p-power exponents must be >= 1")
        super().__init__(p, d, torsion_polys, p_power_ranks)


class SNFResult(_Frozen):
    __slots__ = __match_args__ = (
        "elementary_divisor_valuations", "rank_at_precision", "precision_flag",
    )


def _smith_rank(
    mat: list[list[int]], p: int, M: int, guard: int
) -> tuple[list[int], int, bool]:
    """Smith valuations of mat mod p**M, the rank of the kernel (valuations
    that reach M) and the guard-band flag (a finite valuation > M - guard)."""
    vals = smith_valuations(mat, p, M)
    return vals, sum(v >= M for v in vals), any(M - guard < v < M for v in vals)


def snf_rank(matrix: Sequence[Sequence[PadicInt]], guard: int = 2) -> SNFResult:
    """Elementary divisor valuations of a p-adic matrix at its precision.

    Valuations that reach the precision M are reported AtLeast(M) and
    counted as kernel directions; finite valuations inside the guard
    band (> M - guard) set precision_flag.
    """
    rows = [list(r) for r in matrix]
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("matrix rows must have equal length")
    entries = [x for r in rows for x in r]
    p, M = (entries[0].p, entries[0].prec) if entries else (2, 1)  # no divisors
    if any(x.p != p or x.prec != M for x in entries):
        raise ValueError("matrix entries must share prime and precision")
    if not _is_prime(p):  # PadicInt leaves primality to its callers
        raise ValueError(f"p = {p} is not prime")
    if guard < 1:
        raise ValueError("guard must be >= 1")
    vals, rank, flag = _smith_rank([[x.residue for x in r] for r in rows], p, M, guard)
    return SNFResult(tuple(AtLeast(M) if v >= M else v for v in vals), rank, flag)


def _poly_rem(v: Sequence[int], F: tuple[int, ...], mod: int) -> list[int]:
    """Remainder of v by the monic F in (Z/mod)[X]; each entry is reduced once."""
    D = len(F) - 1
    v = list(v) + [0] * (D - len(v))
    for i in range(len(v) - 1, D - 1, -1):
        c = v[i] % mod
        if c:
            for k in range(D):
                v[i - D + k] -= c * F[k]
    return [x % mod for x in v[:D]]


def _omega_tower(p: int, F: tuple[int, ...], n_max: int, M: int) -> Iterator[list[int]]:
    """omega_n in (Z/p**M)[X]/F for n = 0..n_max: 1 + omega_n = (1 + omega_(n-1))**p.

    No power is taken once 1 + omega_n is 1, since every later level is 1 too.
    """
    mod = p**M
    one = _poly_rem([1], F, mod)

    def mul(a: list[int], b: list[int]) -> list[int]:
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b):
                    out[i + k] += x * y
        return _poly_rem(out, F, mod)

    g = _poly_rem([1, 1], F, mod)
    for n in range(n_max + 1):
        yield [(g[0] - 1) % mod] + g[1:]
        if n < n_max and g != one:
            h = g  # square-and-multiply over the bits of p
            for bit in bin(p)[3:]:
                h = mul(h, h)
                if bit == "1":
                    h = mul(h, g)
            g = h


def _cyclotomic_divisors(p: int, F: tuple[int, ...]) -> dict[int, int]:
    """k: phi(p**k) for each k with xi_k | F in Z[X].

    omega_n = xi_0 * xi_1 * ... * xi_n, where each xi_k is Eisenstein, so
    irreducible over Q_p, of degree phi(p**k); so omega_n is squarefree,
    and the Z_p-rank of Z_p[X]/(F, omega_n) is deg gcd(F, omega_n), the
    sum of phi(p**k) over these k <= n (L. C. Washington, Introduction to
    Cyclotomic Fields, 2nd ed., ch. 13).  Only a xi_k of degree <= deg F
    can divide F, which leaves about log_p(deg F) + 2 exact tests.

    xi_0 = X divides F when F(0) = 0.  For k >= 1, xi_k(X) =
    Phi_(p**k)(1 + X) = Phi_p(Y**e) at Y = 1 + X, e = p**(k-1), so with
    H(Y) = F(Y - 1) and Phi_p(Z) * (Z - 1) = Z**p - 1, xi_k | F exactly
    when Y**(p*e) - 1 divides R = H * (Y**e - 1).  That is one big-int
    test at Y = B = 2**w: R mod Y**(p*e) - 1 has coefficients below B/2
    in size, as |H_j| sums to at most max|F| * 2**(deg F + 1), so it is 0
    exactly when H(B) * (B**e - 1) is 0 mod B**(p*e) - 1.
    """
    D = len(F) - 1
    w = max(map(abs, F)).bit_length() + D + 3
    v = 0  # H(B) = F(B - 1), by Horner's rule
    for c in reversed(F):
        v = (v << w) - v + c
    found = {0: 1} if F[0] == 0 else {}
    k, e = 1, 1
    while (d := (p - 1) * e) <= D:
        if v * ((1 << (w * e)) - 1) % ((1 << (w * p * e)) - 1) == 0:
            found[k] = d
        k, e = k + 1, e * p
    return found


def _coinvariant(
    p: int, F: tuple[int, ...], om: list[int], M: int, guard: int, strict: bool, exact: int
) -> tuple[int, bool]:
    """Corank and guard-band flag of om acting on (Z/p**M)[X]/F by multiplication.

    The flag is also set where the corank exceeds ``exact``, the Z_p-rank
    of the cokernel over Z_p (``_cyclotomic_divisors``): the kernel
    directions over Z_p reach M, so the excess is a finite valuation that
    reached M, an artifact of the precision outside the guard band.

    The cokernel is (Z/p**M)[X]/(F, om).  When om mod (F, p**M) is monic of
    degree d with 1 <= d < deg F, as omega_n is at every level with
    p**n < deg F, that is also the cokernel of G = F mod om acting on
    (Z/p**M)[X]/om, a d x d matrix.  A finitely generated Z/p**M-module is
    a unique sum of cyclic modules, so the two matrices share every
    non-unit elementary divisor and the large one has deg F - d unit ones
    more: the kernel count is the same, and a valuation 0 lies in the
    guard band (M - guard, M) exactly when M < guard.  G = 0 (om divides
    F) is the zero matrix, of corank d, and is taken with no Smith form.

    Column a of the matrix taken is X**a * g mod its modulus (g is om mod
    F or G), X times column a - 1, reduced.  The levels that still take
    deg F x deg F need nearly every reduction: all 78 columns of n = 3..5
    for a generic degree-27 F at p = 3, M = 24, and 1,262 of 1,778 for
    F = X**128 at p = 2, M = 16.
    """
    mod = p**M
    om = _poly_rem(om, F, mod)
    d = max((i for i, c in enumerate(om) if c), default=0)
    swap = d > 0 and om[d] == 1
    if swap:
        monic = tuple(om[: d + 1])
        F, om = monic, _poly_rem(F, monic, mod)
    if any(om):
        cols = [om]
        for _ in range(len(F) - 2):
            cols.append(_poly_rem([0] + cols[-1], F, mod))
        _, rank, flag = _smith_rank(list(zip(*cols)), p, M, guard)
    else:  # the zero matrix: corank the module's rank, with no Smith form
        rank, flag = len(F) - 1, False
    flag = flag or (swap and M < guard) or rank > exact
    if strict and flag:
        raise PrecisionInsufficient(
            f"a pivot valuation falls within {guard} digits of the working "
            f"precision {M}; raise M to separate kernel from artifact"
        )
    return rank, flag


def _check_precision(M: int, guard: int) -> None:
    if not 1 <= M <= MAX_PRECISION:
        raise ValueError(f"need precision 1 <= M <= {MAX_PRECISION}")
    if guard < 1:
        raise ValueError("guard must be >= 1")


def coinvariant_rank(
    p: int, poly: Sequence[int], n: int, M: int, guard: int = 2, strict: bool = True
) -> int:
    """Z_p-rank of (Z_p[[X]]/F) / omega_n * (Z_p[[X]]/F) at precision M.

    The corank of the multiplication-by-omega_n matrix on the basis
    1, X, ..., X**(deg F - 1).  With `strict` a guard-band pivot, or a
    corank above the exact rank over Z_p, raises PrecisionInsufficient
    instead of silently flagging.  p must be prime, and M may not exceed
    MAX_PRECISION.
    """
    F = ModuleSpec(p, 0, (poly,)).torsion_polys[0]
    _check_precision(M, guard)
    if n < 0:
        raise ValueError("n must be >= 0")
    for om in _omega_tower(p, F, n, M):
        if not any(om):  # omega is zero from here on, up to level n
            break
    exact = sum(d for k, d in _cyclotomic_divisors(p, F).items() if k <= n)
    return _coinvariant(p, F, om, M, guard, strict, exact)[0]


def rank_growth(
    spec: ModuleSpec, n_max: int, M: int, guard: int = 2, strict: bool = True
) -> GrowthResult:
    """lambda_n = d*p**n + sum_i rank of the F_i-coinvariants, n <= n_max.

    The p-power torsion summands contribute nothing to the free rank.
    Reports the least n0 from which c_n = lambda_n - d*p**n is constant;
    `stabilized` demands that constancy is witnessed by at least two
    points, none of them flagged (NotStabilized is reported in the
    result, never raised).  With `strict` a guard-band pivot or a corank
    above the exact rank raises PrecisionInsufficient as in
    coinvariant_rank; otherwise it is recorded per row.  n_max may not
    exceed MAX_TOWER_LEVEL, nor M MAX_PRECISION.
    """
    from .growth import GrowthResult

    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    if n_max > MAX_TOWER_LEVEL:
        raise ValueError(f"n_max must be <= {MAX_TOWER_LEVEL}")
    _check_precision(M, guard)
    p = spec.p
    cs = [0] * (n_max + 1)  # c_n = lambda_n - d*p**n: the torsion ranks
    flags = [False] * (n_max + 1)
    for F in spec.torsion_polys:
        divisors, exact = _cyclotomic_divisors(p, F), 0
        for n, om in enumerate(_omega_tower(p, F, n_max, M)):
            exact += divisors.get(n, 0)
            r, fl = _coinvariant(p, F, om, M, guard, strict, exact)
            cs[n] += r
            flags[n] |= fl
    stable_from = n_max
    while stable_from and cs[stable_from - 1] == cs[n_max]:
        stable_from -= 1
    return GrowthResult(
        d=spec.d,
        c=cs[n_max],
        stable_from=stable_from,
        stabilized=stable_from < n_max and not any(flags[stable_from:]),
        table=tuple(
            (n, spec.d * p**n + c, fl) for n, (c, fl) in enumerate(zip(cs, flags))
        ),
    )
