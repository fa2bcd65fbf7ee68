"""Cyclotomic tower, normality witnesses, ideal descent, rank growth."""

from __future__ import annotations

from fractions import Fraction
from math import comb
from random import Random

import pytest

from skewseries import (
    AtLeast,
    CoeffSeries,
    DegenerateAction,
    GrowthResult,
    ModuleSpec,
    PadicInt,
    PrecisionInsufficient,
    VanishedAtPrecision,
    build_skew,
    coinvariant_rank,
    descend_ideal,
    normal_witness,
    omega,
    omega_tower_check,
    rank_growth,
    snf_rank,
    xi,
)
import skewseries.coeff
import skewseries.iwasawa
from skewseries.iwasawa import (
    MAX_TORSION_DEGREE, MAX_TOWER_LEVEL, _coinvariant, _omega_tower, _poly_rem,
)
from skewseries.coeff import vone
from skewseries.precision import CHARP, INTEGRAL, MAX_PRECISION, PrecisionContext

import kernel_oracle as ko
import rank_oracle
from util import rand_coeff


# -- cyclotomic elements -------------------------------------------------


def test_omega_against_binomial_oracle():
    for p, K in ((2, 8), (3, 9), (5, 6)):
        ctx = PrecisionContext(p, K, INTEGRAL)
        moduli = ctx.slot_moduli(K)
        for n in range(4):
            om = omega(ctx, n)
            expect = tuple(comb(p**n, a) % m if a else 0 for a, m in enumerate(moduli))
            assert om.coeffs == expect


def test_xi_against_binomial_sum_oracle():
    for p, K in ((2, 8), (3, 9), (5, 7), (7, 5)):
        ctx = PrecisionContext(p, K, INTEGRAL)
        moduli = ctx.slot_moduli(K)
        for n in range(1, 4):
            step = p ** (n - 1)
            expect = tuple(
                sum(comb(i * step, a) for i in range(p)) % m
                for a, m in enumerate(moduli)
            )
            assert xi(ctx, n).coeffs == expect


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 5, 1000003))
def test_tower_and_witness_against_squaring_oracle(p, mode):
    # 1 + omega_n = (1+X)**(p**n), xi_n = sum_(i<p) (1 + omega_(n-1))**i and
    # u = sum_(i<eps) (1 + omega_n)**i, each by squaring and doubling.  As
    # omega_n lies in m**(n+1), (1+X)**(p**n) = 1 mod m**K once n >= K.
    for K in (1, 2, 5, 17):
        ctx = PrecisionContext(p, K, mode)
        gamma = [ko.one_plus_x_pow(ctx, p ** min(n, K)) for n in range(K + 1)]
        sds = [build_skew(ctx, eps) for eps in (1 + p, 1 + p * (p**K - 1))]
        assert xi(ctx, 0) == CoeffSeries.x(ctx)
        for n in sorted({0, 1, 2, K - 1, K, 10**5}):
            y = gamma[min(n, K)]
            assert ko._add(ctx, omega(ctx, n).coeffs, vone(ctx), K) == y
            if n >= 1:
                assert xi(ctx, n).coeffs == ko.power_sum(ctx, gamma[min(n - 1, K)], p)
            for sd in sds:
                u, _ = normal_witness(sd, n)
                assert u.coeffs == ko.power_sum(ctx, y, sd.epsilon_raw)


def test_omega_takes_no_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("omega multiplied series")

    monkeypatch.setattr(skewseries.coeff, "vmul", refuse)
    for p in (3, 1000003):
        for mode in (INTEGRAL, CHARP):
            ctx = PrecisionContext(p, 8, mode)
            for n in (0, 1, 5, 10**9):
                omega(ctx, n)


def test_xi_known_values():
    assert xi(PrecisionContext(2, 8, INTEGRAL), 1).coeffs[:3] == (2, 1, 0)
    assert xi(PrecisionContext(3, 27, INTEGRAL), 1).coeffs[:4] == (3, 3, 1, 0)


def test_omega_edge_cases():
    ctx = PrecisionContext(2, 8, INTEGRAL)
    assert omega(ctx, -1) == CoeffSeries.one(ctx)
    assert omega(ctx, 0) == CoeffSeries.x(ctx)
    assert xi(ctx, 0) == CoeffSeries.x(ctx)
    with pytest.raises(ValueError):
        omega(ctx, -2)
    with pytest.raises(ValueError):
        xi(ctx, -1)


def test_omega_and_xi_large_n_do_not_hang(monkeypatch):
    calls = 0
    vmul = skewseries.coeff.vmul

    def counted(*args):
        nonlocal calls
        calls += 1
        if calls > 10_000:
            raise RuntimeError("omega/xi did not stop at the stable level")
        return vmul(*args)

    monkeypatch.setattr(skewseries.coeff, "vmul", counted)
    for mode in (INTEGRAL, CHARP):
        ctx = PrecisionContext(3, 4, mode)
        assert omega(ctx, 10**5).is_zero()
        assert omega(ctx, 10**5) == omega(ctx, 3)
        assert xi(ctx, 10**5) == xi(ctx, 5)
    assert xi(PrecisionContext(3, 4, INTEGRAL), 10**5).coeffs[0] == 3
    # xi at a large p makes at most K products, not p - 1
    big = 1000000007
    for mode in (INTEGRAL, CHARP):
        for n in (1, 2):
            c = xi(PrecisionContext(big, 4, mode), n).coeffs
            assert c[0] == (big if mode == INTEGRAL else 0)
    assert xi(PrecisionContext(big, 4, INTEGRAL), 1).coeffs[1] == comb(big, 2) % big**3


def test_omega_m_order():
    ctx = PrecisionContext(2, 8, INTEGRAL)
    for n in range(4):
        o = omega(ctx, n).m_order()
        v = o.bound if isinstance(o, AtLeast) else o
        assert v >= min(n + 1, 8)


def test_tower_recursion():
    for p, K in ((2, 8), (3, 9)):
        report = omega_tower_check(PrecisionContext(p, K, INTEGRAL), 3)
        assert report.passed
        assert not report.warnings
        assert [e.n for e in report.entries] == [1, 2, 3]
        assert all(e.ok and not e.vacuous for e in report.entries)


def test_tower_vacuous_warning_at_tiny_precision():
    report = omega_tower_check(PrecisionContext(2, 2, INTEGRAL), 3)
    assert report.passed            # vacuously: nothing visible survives
    assert report.warnings          # but the report says so
    assert all(e.vacuous for e in report.entries)


def test_tower_computes_each_omega_once(monkeypatch):
    # level n takes omega_(n-1) from level n - 1, so omega_0..omega_n_max
    # are computed once each, and xi_n costs no omega of its own
    calls = []

    def spy(ctx, n):
        calls.append(n)
        return omega(ctx, n)

    monkeypatch.setattr(skewseries.iwasawa, "omega", spy)
    for n_max in (1, 2, 7):
        del calls[:]
        omega_tower_check(PrecisionContext(3, 8, INTEGRAL), n_max)
        assert sorted(calls) == list(range(n_max + 1))


def _tower_reference(ctx, n_max):
    """omega_tower_check's entries, as field tuples (n, product_ok,
    xi_constant_ok, omega_constant_zero, vacuous), its warnings and its
    verdict, built level by level from xi and omega."""
    entries = []
    for n in range(1, n_max + 1):
        om, x = omega(ctx, n), xi(ctx, n)
        entries.append((
            n,
            x * omega(ctx, n - 1) == om,
            x.coeffs[0] == ctx.p % ctx.slot_moduli(ctx.K)[0],
            om.coeffs[0] == 0,
            om.is_zero(),
        ))
    vacuous = [e[0] for e in entries if e[4]]
    warnings = [
        f"vacuous-tail: omega_n vanishes mod m**{ctx.K} from n = {vacuous[0]}; "
        "increase K for a nonvacuous check"
    ] if vacuous else []
    return entries, warnings, all(all(e[1:4]) for e in entries)


@pytest.mark.parametrize("mode", [INTEGRAL, CHARP])
@pytest.mark.parametrize("p", [2, 3, 5])
def test_tower_report_matches_a_per_level_reference(p, mode):
    # n_max = K + 2 reaches past the level where omega_n vanishes mod m**K
    kinds = set()
    for K in (1, 2, 8, 9):
        ctx = PrecisionContext(p, K, mode)
        report = omega_tower_check(ctx, K + 2)
        entries, warnings, passed = _tower_reference(ctx, K + 2)
        assert (report.p, report.K, report.n_max) == (p, K, K + 2)
        assert [e._fields() for e in report.entries] == entries
        assert (report.warnings, report.passed) == (warnings, passed)
        kinds.update(e[4] for e in entries)
    assert kinds == {False, True}


# -- normality witnesses -------------------------------------------------


def test_witness_identities():
    for p in (2, 3):
        for mode in (INTEGRAL, CHARP):
            sd = build_skew(PrecisionContext(p, 6, mode), 1 + p)
            for n in (0, 1, 2):
                u, w = normal_witness(sd, n)
                om = sd.embed(omega(sd.ctx, n))
                assert sd.y() * om == om * w
                assert sd.embed(sd.apply_sigma(omega(sd.ctx, n))) == om * sd.embed(u)


def test_witness_u_against_direct_sum():
    # u = sum_{i>=1} C(e, i) omega_n^(i-1) with e the stored exponent
    for p, n in ((2, 0), (2, 1), (3, 0), (3, 1)):
        sd = build_skew(PrecisionContext(p, 6, INTEGRAL), 1 + p)
        ctx = sd.ctx
        e = sd.epsilon_raw % ctx.p**ctx.K
        om = omega(ctx, n)
        acc = CoeffSeries.zero(ctx)
        power = CoeffSeries.one(ctx)
        for i in range(1, ctx.K + 1):
            acc = acc + power * comb(e, i)
            power = power * om
        u, _ = normal_witness(sd, n)
        assert u == acc


def test_witness_w_shape():
    # w = (u-1) + u*Y, with each row canonicalized to its slot window
    from skewseries import SkewSeries

    sd = build_skew(PrecisionContext(3, 6, INTEGRAL), 4)
    u, w = normal_witness(sd, 1)
    assert w == SkewSeries(sd, [(u - CoeffSeries.one(sd.ctx)).coeffs, u.coeffs])
    assert all(w.row(j).is_zero() for j in range(2, 6))


# -- ideal descent -------------------------------------------------------


def test_descent_known_example():
    sd = build_skew(PrecisionContext(3, 6, INTEGRAL), 4)
    x = CoeffSeries.x(sd.ctx)
    r, steps = descend_ideal(sd, [x, CoeffSeries.one(sd.ctx)])
    expect = x * (CoeffSeries.one(sd.ctx) + x) * omega(sd.ctx, 1)
    assert r == expect
    assert r.coeffs == (0, 0, 3, 6, 4, 1)
    assert steps == 1


def test_descent_degree_strictly_decreases():
    rng = Random(601)
    sd = build_skew(PrecisionContext(3, 5, INTEGRAL), 4)
    for _ in range(50):
        deg = rng.randrange(1, 5)
        zc = [rand_coeff(sd.ctx, rng) for _ in range(deg)] + [CoeffSeries.one(sd.ctx)]
        trace: list[int] = []
        try:
            r, steps = descend_ideal(sd, zc, trace=trace)
            assert not r.is_zero()
            assert steps == len(trace) - 1
        except VanishedAtPrecision:
            pass
        assert trace[0] == deg
        assert all(a > b for a, b in zip(trace, trace[1:]))


def test_descent_degenerate_at_trivial_twist():
    sd = build_skew(PrecisionContext(3, 5, INTEGRAL), 1)
    x = CoeffSeries.x(sd.ctx)
    with pytest.raises(DegenerateAction):
        descend_ideal(sd, [x, CoeffSeries.one(sd.ctx)])


def test_descent_zero_input():
    sd = build_skew(PrecisionContext(3, 5, INTEGRAL), 4)
    with pytest.raises(VanishedAtPrecision):
        descend_ideal(sd, [CoeffSeries.zero(sd.ctx)])


def test_descent_single_term_returns_scalar():
    sd = build_skew(PrecisionContext(3, 5, INTEGRAL), 4)
    c = CoeffSeries(sd.ctx, (7, 1))
    r, steps = descend_ideal(sd, [c])
    assert r == c and steps == 0


# -- Smith normal form ranks ---------------------------------------------


def test_snf_known_instances():
    M = 4
    z = [[PadicInt(2, 0, M)] * 2 for _ in range(2)]
    r = snf_rank(z)
    assert r.rank_at_precision == 2 and not r.precision_flag
    assert all(isinstance(v, AtLeast) and v.bound == M for v in r.elementary_divisor_valuations)

    d = [[PadicInt(2, 2, M), PadicInt(2, 0, M)], [PadicInt(2, 0, M), PadicInt(2, 8, M)]]
    r = snf_rank(d)
    assert r.elementary_divisor_valuations == (1, 3)
    assert r.rank_at_precision == 0
    assert r.precision_flag          # 3 lies in the open band (M-2, M)

    r = snf_rank([[PadicInt(2, 8, M)]], guard=1)
    assert r.elementary_divisor_valuations == (3,)
    assert not r.precision_flag      # band (3, 4) is empty at valuation 3


def test_snf_guard_validation():
    with pytest.raises(ValueError):
        snf_rank([[PadicInt(2, 1, 3)]], guard=0)


@pytest.mark.parametrize("M, guard", [(0, 2), (-1, 2), (8, 0), (8, -1)])
def test_rank_growth_rejects_precision_or_guard_below_one(M, guard):
    spec = ModuleSpec(3, d=1, torsion_polys=((0, 1), (3, 3, 1), (3, 1)))
    for strict in (True, False):
        with pytest.raises(ValueError):
            rank_growth(spec, 3, M, guard=guard, strict=strict)
    with pytest.raises(ValueError):
        rank_growth(ModuleSpec(3, d=1), 3, M, guard=guard)   # no torsion to rank
    with pytest.raises(ValueError):
        coinvariant_rank(3, (3, 1), 1, M, guard=guard)
    with pytest.raises(ValueError):
        coinvariant_rank(3, (3, 1), 1, M, guard=guard, strict=False)


def test_rank_growth_rejects_precision_above_max():
    # the cost grows about like M**1.8, so an unbounded M could hang
    M = MAX_PRECISION + 1
    spec = ModuleSpec(3, d=1, torsion_polys=((0, 1), (3, 3, 1), (3, 1)))
    for strict in (True, False):
        with pytest.raises(ValueError):
            rank_growth(spec, 3, M, strict=strict)
        with pytest.raises(ValueError):
            coinvariant_rank(3, (3, 1), 1, M, strict=strict)
    assert rank_growth(spec, 3, MAX_PRECISION).c == 3


def test_snf_corank_matches_rational_nullity():
    rng = Random(602)
    M = 12
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        size = rng.randrange(1, 6)
        ints = [[rng.randrange(-9, 10) for _ in range(size)] for _ in range(size)]
        mat = [[PadicInt(p, v, M) for v in row] for row in ints]
        snf = snf_rank(mat)
        work = [[Fraction(v) for v in row] for row in ints]
        rank = 0
        for col in range(size):
            piv = next((r for r in range(rank, size) if work[r][col] != 0), None)
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            for r in range(size):
                if r != rank and work[r][col] != 0:
                    factor = work[r][col] / work[rank][col]
                    work[r] = [a - factor * b for a, b in zip(work[r], work[rank])]
            rank += 1
        assert not snf.precision_flag
        assert snf.rank_at_precision == size - rank


# -- coinvariant ranks and growth ----------------------------------------


def test_coinvariant_reference_rows():
    assert [coinvariant_rank(2, (0, 1), n, 8) for n in range(4)] == [1, 1, 1, 1]
    assert [coinvariant_rank(2, (2, 1), n, 8) for n in range(4)] == [0, 1, 1, 1]
    assert [coinvariant_rank(2, (-2, 1), n, 8) for n in range(4)] == [0, 0, 0, 0]
    assert [coinvariant_rank(3, (-3, 1), n, 8) for n in range(3)] == [0, 0, 0]


@pytest.mark.parametrize("p", [1, 4, 6, 9, -3, 0])
def test_coinvariant_rank_refuses_a_non_prime_p(p):
    # F = X is monic with its constant in pZ for every p, and p = 0 once
    # divided by zero; ModuleSpec refuses these p with the same message
    with pytest.raises(ValueError, match=f"^{p} is not prime$"):
        coinvariant_rank(p, (0, 1), 1, 4)


def test_coinvariant_monotone_bounded():
    rng = Random(603)
    for _ in range(25):
        p = rng.choice((2, 3))
        deg = rng.randrange(1, 4)
        poly = [p * rng.randrange(0, 4) for _ in range(deg)] + [1]
        ranks = [coinvariant_rank(p, poly, n, 10, guard=1) for n in range(4)]
        assert all(0 <= r <= deg for r in ranks)
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))


def test_coinvariant_strict_flag():
    with pytest.raises(PrecisionInsufficient):
        coinvariant_rank(2, (2, 1), 0, 2, guard=2)
    # same computation with a comfortable window is fine
    assert coinvariant_rank(2, (2, 1), 0, 8, guard=2) == 0


def test_coinvariant_rank_refuses_the_artifact_of_a_vanished_omega():
    # F = X + 3 has the root -3 and omega_n(-3) = (-2)**(3**n) - 1 has
    # valuation n + 1, finite at every n: the exact rank is 0.  At M = 16
    # that valuation reaches M from n = 15, past the guard band, where the
    # Smith form counts a kernel direction that is not there
    with pytest.raises(PrecisionInsufficient) as exc:
        coinvariant_rank(3, (3, 1), 15, 16)
    assert str(exc.value) == GUARD_BAND.format(guard=2, M=16)
    assert coinvariant_rank(3, (3, 1), 15, 16, strict=False) == 1
    assert coinvariant_rank(3, (3, 1), 13, 16) == 0


def test_rank_growth_flags_every_artifact_row():
    # the guard band flags n = 14 only; from n = 15 the count of 1 exceeds
    # the exact rank 0, and those rows are flagged too
    g = rank_growth(ModuleSpec(3, 0, [(3, 1)]), 20, 16, strict=False)
    assert [(n, lam) for n, lam, _ in g.table] == [(n, int(n >= 15)) for n in range(21)]
    assert [n for n, _, fl in g.table if fl] == list(range(14, 21))
    with pytest.raises(PrecisionInsufficient):
        rank_growth(ModuleSpec(3, 0, [(3, 1)]), 20, 16, guard=1)


def test_coinvariant_rank_stops_at_the_stable_level(monkeypatch):
    # 1 + omega_n mod (F, p**M) reaches 1 and stays there, so a huge n
    # costs no more remainders than the first levels do.  Its corank there,
    # deg F = 2, is an artifact of M = 6 (the exact rank is 0), so the
    # strict call refuses it
    with pytest.raises(PrecisionInsufficient):
        coinvariant_rank(3, (3, 0, 1), 40, 6)
    want = coinvariant_rank(3, (3, 0, 1), 40, 6, strict=False)
    rem = skewseries.iwasawa._poly_rem
    calls = []

    def counted(*args):
        calls.append(1)
        if len(calls) > 10_000:
            raise AssertionError("the tower walked past its stable level")
        return rem(*args)

    monkeypatch.setattr(skewseries.iwasawa, "_poly_rem", counted)
    assert coinvariant_rank(3, (3, 0, 1), 10**9, 6, strict=False) == want
    assert list(_omega_tower(3, (3, 0, 1), 40, 6))[-1] == [0, 0]


def _coinvariant_route(p, F, om, M):
    """The module and the element whose Smith form _coinvariant takes:
    ((Z/p**M)[X]/F, om mod F), or ((Z/p**M)[X]/om, F mod om) where om
    mod (F, p**M) is monic of degree 1 <= d < deg F."""
    mod = p**M
    om = _poly_rem(om, F, mod)
    d = max((i for i, c in enumerate(om) if c), default=0)
    if d and om[d] == 1:
        return tuple(om[: d + 1]), _poly_rem(F, tuple(om[: d + 1]), mod)
    return F, om


@pytest.mark.parametrize("M", [1, 24])
@pytest.mark.parametrize("p", [2, 3])
def test_coinvariant_columns_are_x_power_remainders(p, M, monkeypatch):
    # column a + 1 is built as X * (column a) mod the modulus; each must be
    # the remainder of X**a * g, not just give the same rank.  The full
    # route takes g = om mod F; where omega_n is monic of degree p**n <
    # deg F the swapped one takes g = F mod omega_n modulo omega_n.  A zero
    # g is the zero matrix: corank the modulus's degree, no flag at guard
    # 1 <= M, and no Smith form taken
    rng = Random(f"coinvariant-columns:{p}:{M}")
    mod = p**M
    omega_3 = (0, *(comb(p**3, a) for a in range(1, p**3 + 1)))
    rand_F = tuple(p * rng.randrange(-3, 4) for _ in range(rng.randrange(2, 10))) + (1,)
    smith_rank = skewseries.iwasawa._smith_rank
    mats = []

    def spy(mat, *args):
        mats.append(mat)
        return smith_rank(mat, *args)

    monkeypatch.setattr(skewseries.iwasawa, "_smith_rank", spy)
    routes = {False: 0, True: 0}
    for F in ((p, 1), (0, 1), omega_3, rand_F):
        D = len(F) - 1
        oms = list(_omega_tower(p, F, 4, M))
        oms.append([rng.randrange(-mod, 2 * mod) for _ in range(D)])  # unreduced
        for n, om in enumerate(oms):
            modulus, g = _coinvariant_route(p, F, om, M)
            if n <= 4:  # omega_n mod p is X**(p**n), so 0 mod (F, p) from p**n >= deg F
                want = (0, *(comb(p**n, a) % mod for a in range(1, p**n + 1)))
                assert modulus == (want if p**n < D else F)
            routes[modulus != F] += 1
            del mats[:]
            # exact = deg F bounds every corank: the flag is the guard band's alone
            got = _coinvariant(p, F, om, M, 1, False, D)
            d = len(modulus) - 1
            if not any(g):
                assert (got, mats) == ((d, False), [])
                continue
            want = [_poly_rem([0] * a + g, modulus, mod) for a in range(d)]
            assert [list(col) for col in zip(*mats[0])] == want
    assert min(routes.values()) > 0


def test_coinvariant_rejects_negative_level():
    with pytest.raises(ValueError, match="n must be >= 0"):
        coinvariant_rank(2, (2, 1), -1, 8)


GUARD_BAND = (
    "a pivot valuation falls within {guard} digits of the working "
    "precision {M}; raise M to separate kernel from artifact"
)


def _oracle_polys(p, rng):
    """X**D and one random distinguished F with signed lower coefficients,
    for each degree D = 1..8."""
    for D in range(1, 9):
        yield (0,) * D + (1,)
        yield tuple(p * rng.randrange(-3, 4) for _ in range(D)) + (1,)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_growth_against_from_scratch_oracle(p):
    rng = Random(800 + p)
    n_max = 6
    for F in _oracle_polys(p, rng):
        spec = ModuleSpec(p, d=rng.randrange(3), torsion_polys=(F,))
        for M in range(1, 13):
            tower = list(_omega_tower(p, F, n_max, M))
            levels = range(n_max + 1)
            assert tower == [rank_oracle._omega_mod(p, F, n, M) for n in levels]
            for guard in (1, 2, 3):
                expect = [rank_oracle._coinvariant(p, F, n, M, guard) for n in levels]
                got = [
                    _coinvariant(p, F, om, M, guard, False, rank_oracle.exact_rank(p, F, n))
                    for n, om in enumerate(tower)
                ]
                assert got == expect
                table = tuple(
                    (n, spec.d * p**n + r, fl) for n, (r, fl) in enumerate(expect)
                )
                assert rank_growth(spec, n_max, M, guard, strict=False).table == table
                if any(fl for _, fl in expect):
                    with pytest.raises(PrecisionInsufficient) as exc:
                        rank_growth(spec, n_max, M, guard)
                    assert str(exc.value) == GUARD_BAND.format(guard=guard, M=M)
                else:
                    assert rank_growth(spec, n_max, M, guard).table == table


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b):
            out[i + k] += x * y
    return tuple(out)


def _xi_poly(p, k):
    """xi_k as an integer polynomial: X, or Phi_(p**k)(1 + X) =
    sum_(i < p) (1 + X)**(i * p**(k-1)) for k >= 1."""
    if k == 0:
        return (0, 1)
    e = p ** (k - 1)
    return tuple(
        sum(comb(i * e, a) for i in range(p)) for a in range((p - 1) * e + 1)
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_coinvariant_routes_against_full_matrix_oracle(p):
    # F a product of xi_k (k <= 2) and random distinguished factors, so
    # some omega_n divide F and others are monic of degree p**n < deg F
    # without dividing it; the oracle always takes the deg F x deg F
    # matrix.  A swapped level keeps the deg F - d unit divisors of the
    # full matrix in its flag: with guard > M they fall in the band even
    # where the small matrix has no finite divisor
    rng = Random(f"coinvariant-routes:{p}")
    swapped = hidden_units = 0
    for M in range(1 + p % 2, 25, 2):  # odd M at p = 2, even M at odd p
        D, F = rng.randrange(1, 41), (1,)
        for k in range(3):
            if len(F) + (p - 1) * p ** max(k - 1, 0) <= D + 1 and rng.random() < 0.6:
                F = _poly_mul(F, _xi_poly(p, k))
        while len(F) <= D:
            e = rng.randrange(1, min(D + 2 - len(F), 9))
            F = _poly_mul(F, tuple(p * rng.randrange(-3, 4) for _ in range(e)) + (1,))
        n_max = max(2, next(n for n in range(D + 1) if p**n >= D))
        spec = ModuleSpec(p, d=rng.randrange(3), torsion_polys=(F,))
        tower = list(_omega_tower(p, F, n_max, M))
        for guard in (1, 2, M, M + 1):
            expect = [rank_oracle._coinvariant(p, F, n, M, guard) for n in range(n_max + 1)]
            for n, (om, (rank, flag)) in enumerate(zip(tower, expect)):
                modulus, g = _coinvariant_route(p, F, om, M)
                swapped += modulus != F
                hidden_units += modulus != F and not any(g) and flag
                exact = rank_oracle.exact_rank(p, F, n)
                assert _coinvariant(p, F, om, M, guard, False, exact) == (rank, flag)
                if flag:  # strict differs only where it raises
                    with pytest.raises(PrecisionInsufficient) as exc:
                        _coinvariant(p, F, om, M, guard, True, exact)
                    assert str(exc.value) == GUARD_BAND.format(guard=guard, M=M)
            table = tuple((n, spec.d * p**n + r, fl) for n, (r, fl) in enumerate(expect))
            assert rank_growth(spec, n_max, M, guard, strict=False).table == table
            if any(fl for _, fl in expect):
                with pytest.raises(PrecisionInsufficient) as exc:
                    rank_growth(spec, n_max, M, guard)
                assert str(exc.value) == GUARD_BAND.format(guard=guard, M=M)
    assert swapped > 0 and hidden_units > 0


@pytest.mark.parametrize("p", [2, 3])
def test_rank_growth_takes_no_smith_form_where_omega_vanishes(p, monkeypatch):
    # omega_n = 0 mod (F, p**M) gives the zero matrix, of corank deg F
    # with no guard-band flag, and so does F = 0 mod omega_n where omega_n
    # is monic of degree p**n < deg F, of corank p**n: no Smith form is
    # taken at such a level
    smith_rank = skewseries.iwasawa._smith_rank
    mats = []

    def spy(mat, *args):
        mats.append(mat)
        return smith_rank(mat, *args)

    monkeypatch.setattr(skewseries.iwasawa, "_smith_rank", spy)
    rng = Random(f"vanished-levels:{p}")
    n_max, vanished, divides = 6, 0, 0
    for F in _oracle_polys(p, rng):
        for M in (1, 3, 6):
            levels = range(n_max + 1)
            oms = [rank_oracle._omega_mod(p, F, n, M) for n in levels]
            expect = [rank_oracle._coinvariant(p, F, n, M, 2) for n in levels]
            free = [not any(_coinvariant_route(p, F, om, M)[1]) for om in oms]
            del mats[:]
            g = rank_growth(ModuleSpec(p, d=1, torsion_polys=(F,)), n_max, M, strict=False)
            assert g.table == tuple((n, p**n + r, fl) for n, (r, fl) in enumerate(expect))
            assert len(mats) == free.count(False)
            assert all(any(map(any, mat)) for mat in mats)
            vanished += sum(1 for om in oms if not any(om))
            divides += sum(1 for om, f in zip(oms, free) if f and any(om))
            del mats[:]
            assert coinvariant_rank(p, F, n_max, M, strict=False) == expect[-1][0]
            assert len(mats) == (0 if free[-1] else 1)
    assert vanished > 0 and divides > 0
    with pytest.raises(ValueError, match="guard must be >= 1"):  # omega_0 = 0 mod X
        coinvariant_rank(p, (0, 1), 0, 8, guard=0)


def test_rank_growth_reference_specs():
    g = rank_growth(ModuleSpec(2, d=1), 3, 8)
    assert (g.d, g.c, g.stable_from, g.stabilized) == (1, 0, 0, True)
    assert [lam for _, lam, _ in g.table] == [1, 2, 4, 8]

    g = rank_growth(ModuleSpec(2, d=0, torsion_polys=((0, 1),)), 3, 8)
    assert (g.d, g.c, g.stable_from, g.stabilized) == (0, 1, 0, True)
    assert [lam for _, lam, _ in g.table] == [1, 1, 1, 1]

    g = rank_growth(ModuleSpec(2, d=1, torsion_polys=((2, 1),)), 3, 8)
    assert (g.d, g.c, g.stable_from, g.stabilized) == (1, 1, 1, True)
    assert [lam for _, lam, _ in g.table] == [1, 3, 5, 9]


def test_rank_growth_not_stabilized_reports_note():
    # (1+X)^4 + 1 only starts contributing at level 3 = n_max
    g = rank_growth(ModuleSpec(2, d=0, torsion_polys=((2, 4, 6, 4, 1),)), 3, 8)
    assert not g.stabilized
    assert g.stable_from == 3
    assert "note" in g.to_dict()


def test_stable_from_is_the_least_level_of_the_constant_tail():
    rng = Random(7)
    starts = set()
    for _ in range(40):
        p = rng.choice((2, 3))
        polys = [
            tuple(p * rng.randrange(-2, 3) for _ in range(rng.randrange(1, 4))) + (1,)
            for _ in range(rng.randrange(1, 3))
        ]
        n_max = rng.randrange(2, 6)
        g = rank_growth(ModuleSpec(p, d=1, torsion_polys=polys), n_max, 8, strict=False)
        cs = [lam - p**n for n, lam, _ in g.table]
        want = min(n0 for n0 in range(n_max + 1) if set(cs[n0:]) == {cs[n_max]})
        assert (g.stable_from, g.stabilized) == (want, want < n_max)
        starts.add(want)
    assert len(starts) > 2  # the tail starts at several levels


def test_rank_growth_strictness():
    spec = ModuleSpec(2, d=0, torsion_polys=((2, 1),))
    with pytest.raises(PrecisionInsufficient):
        rank_growth(spec, 2, 2, guard=2)
    g = rank_growth(spec, 2, 2, guard=2, strict=False)
    assert g.table[0][2] is True      # flagged row survives in lenient mode
    assert isinstance(g, GrowthResult)


def test_rank_growth_p_power_ranks_do_not_move_lambda():
    g0 = rank_growth(ModuleSpec(2, d=1), 2, 8)
    g1 = rank_growth(ModuleSpec(2, d=1, p_power_ranks=(2, 1)), 2, 8)
    assert [r[1] for r in g0.table] == [r[1] for r in g1.table]


def test_module_spec_validation():
    with pytest.raises(ValueError):
        ModuleSpec(4, d=1)                                # p not prime
    with pytest.raises(ValueError):
        ModuleSpec(2, d=-1)                               # negative free rank
    with pytest.raises(ValueError):
        ModuleSpec(2, d=0, torsion_polys=((1, 2),))       # not monic
    with pytest.raises(ValueError):
        ModuleSpec(2, d=0, torsion_polys=((1, 1),))       # lower not in (p)
    with pytest.raises(ValueError):
        rank_growth(ModuleSpec(2, d=1), 1, 8)             # n_max < 2
    top = (0,) * MAX_TORSION_DEGREE + (1,)                # X**128 is accepted
    assert ModuleSpec(2, d=0, torsion_polys=(top,)).torsion_polys == (top,)
    for F in ((0,) + top, (0,) * 10**4 + (1,)):           # refused before any work
        with pytest.raises(ValueError, match="degree must be <= 128"):
            ModuleSpec(2, d=0, torsion_polys=((2, 1), F))
        with pytest.raises(ValueError, match="degree must be <= 128"):
            coinvariant_rank(2, F, 0, 8)
    spec = ModuleSpec(3, d=1, torsion_polys=((3, 0, 1),))
    for n_max in (MAX_TOWER_LEVEL + 1, 10**9):           # refused before any work
        with pytest.raises(ValueError):
            rank_growth(spec, n_max, 6, strict=False)
    assert len(rank_growth(spec, MAX_TOWER_LEVEL, 6, strict=False).table) == MAX_TOWER_LEVEL + 1
