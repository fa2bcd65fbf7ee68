"""Weierstrass division and preparation in the triangular quotient."""

from __future__ import annotations

from operator import mul
from random import Random

import pytest

from skewseries import (
    CoeffSeries,
    InternalPrecisionLoss,
    NotDivisible,
    NotPreparable,
    SkewData,
    SkewSeries,
    build_skew,
    change_precision,
    divide,
    divide_oracle,
    prepare,
)
from skewseries.linalg import _eliminate, solve_mod_prime_power
from skewseries.precision import CHARP, INTEGRAL, PrecisionContext
import skewseries.series as series
import skewseries.weierstrass as weierstrass
from skewseries.weierstrass import _divide_core

from contraction_oracle import _divide_core as oracle_divide_core
import division_system_oracle as system_oracle
from inverse_oracle import newton_inverse
from util import rand_reduced_order, rand_series, rand_unit


CONFIGS = (
    (2, 4, INTEGRAL, 3),
    (3, 4, INTEGRAL, 4),
    (3, 3, CHARP, 4),
    (5, 3, INTEGRAL, 6),
)


def skews():
    return [build_skew(PrecisionContext(p, K, mode), eps) for p, K, mode, eps in CONFIGS]


def test_divide_y2_by_y_minus_p():
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    q, rem = divide(sd.y(2), sd.y() - 3)
    assert q == sd.y() + 3
    assert rem == sd.embed(9)


def test_division_identity_and_remainder_degree():
    rng = Random(501)
    for sd in skews():
        K = sd.ctx.K
        for _ in range(20):
            s = rng.randrange(1, K)
            f = rand_reduced_order(sd, rng, s)
            g = rand_series(sd, rng)
            q, rem = divide(g, f)
            assert g == q * f + rem
            assert all(rem.row(j).is_zero() for j in range(s, K))


def test_divide_by_unit():
    rng = Random(502)
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    for _ in range(10):
        u = rand_unit(sd, rng)
        g = rand_series(sd, rng)
        q, rem = divide(g, u)
        assert rem.is_zero()
        assert q * u == g


def test_not_divisible_when_no_unit_row():
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    f = sd.embed(3) + sd.embed(3) * sd.y()   # every row in m
    with pytest.raises(NotDivisible):
        divide(sd.y(2), f)
    with pytest.raises(NotPreparable):
        prepare(f)


def test_division_refuses_a_lift_above_max_precision(monkeypatch):
    # reduced order s = 11 at K = 12 lifts to K' = 133 > MAX_PRECISION = 128
    sd = build_skew(PrecisionContext(3, 12, INTEGRAL), 4)
    f = sd.y(11) + 3

    def no_lift(self, K):
        raise AssertionError(f"lifted to K' = {K}")

    monkeypatch.setattr(SkewData, "at_precision", no_lift)
    for route in (divide, divide_oracle):
        with pytest.raises(ValueError, match=r"s = 11 at K = 12 lifts to K' = s\*K \+ 1 = 133, "
                           r"above the limit 128"):
            route(sd.y(2), f)


def test_prepare_identity_properties():
    rng = Random(503)
    for sd in skews():
        K = sd.ctx.K
        for _ in range(20):
            s = rng.randrange(0, K)
            f = rand_reduced_order(sd, rng, s)
            eps, F = prepare(f)
            assert eps.is_unit()
            assert eps * F.as_series() == f
            assert F.degree == s
            for c in F.lower:
                o = c.m_order()
                assert not isinstance(o, int) or o >= 1


def test_prepare_unit_case():
    rng = Random(504)
    sd = build_skew(PrecisionContext(2, 4, INTEGRAL), 3)
    u = rand_unit(sd, rng)
    eps, F = prepare(u)
    assert F.degree == 0
    assert F.as_series() == sd.one()
    assert eps == u


def test_prepare_idempotent_on_distinguished():
    rng = Random(505)
    for sd in skews():
        K = sd.ctx.K
        for _ in range(10):
            s = rng.randrange(1, K)
            f = rand_reduced_order(sd, rng, s)
            _, F = prepare(f)
            eps2, F2 = prepare(F.as_series())
            assert eps2 == sd.one()
            assert F2.as_series() == F.as_series()


def test_prepare_reports_a_unit_lower_coefficient_as_precision_loss(monkeypatch):
    # DistinguishedPoly's ValueError for a lower coefficient outside m, and
    # a quotient of Y**s by f that is no unit, reach the caller as
    # InternalPrecisionLoss
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    f = SkewSeries(sd, [[3], [1]])
    for quotient, text in (
        (sd.one(), "lower coefficient of the distinguished factor escapes the "
                   "maximal ideal; K is too small for this input"),
        (sd.embed(3), "quotient of Y**s by f is not a unit"),
    ):
        monkeypatch.setattr(weierstrass, "_divide_core", lambda sd, g, f, s: (quotient, sd.one()))
        with pytest.raises(InternalPrecisionLoss) as info:
            prepare(f)
        assert str(info.value) == text


def test_prepare_known_example():
    # f = (1+Y)(Y-p) at p=3, eps=4, K=6.  The distinguished factor is
    # digit-exact: Y - 3 (lower coefficient 726 = -3 mod 3^6).  The unit
    # matches 1+Y up to the gauge of the preparation congruence: any two
    # units solving eps*F = f mod G_K differ by a multiple of F.
    sd = build_skew(PrecisionContext(3, 6, INTEGRAL), 4)
    f = (sd.one() + sd.y()) * (sd.y() - 3)
    eps, F = prepare(f)
    assert F.degree == 1
    assert F.lower[0] == CoeffSeries(sd.ctx, (726,))
    assert eps * F.as_series() == f
    gauge = eps - (sd.one() + sd.y())
    assert (gauge * F.as_series()).is_zero()
    # deterministic output: the algorithm always picks the same gauge
    eps2, F2 = prepare(f)
    assert eps2 == eps and F2.as_series() == F.as_series()


def test_prepare_native_elevation_recovers_exact_unit():
    # Constructing the same product natively at working precision
    # s*K + 1 = 7 and truncating the preparation back to K = 6 yields
    # the exact unit 1 + Y on every stored digit (gauge-free regime).
    sd = build_skew(PrecisionContext(3, 6, INTEGRAL), 4)
    sd7 = sd.at_precision(7)
    f7 = (sd7.one() + sd7.y()) * (sd7.y() - 3)
    eps7, F7 = prepare(f7)
    assert change_precision(eps7, sd) == sd.one() + sd.y()
    assert change_precision(F7.as_series(), sd) == sd.y() - 3


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 5, 1000003))
def test_preparation_is_unique(p, mode):
    # the preparation theorem's uniqueness: for a unit u, u*f and f built
    # natively at K' = s*K + 1 have one distinguished factor mod G_K, and
    # units that differ by u
    for eps in (1, 1 + p):
        for K in (2, 3, 4):
            sd = build_skew(PrecisionContext(p, K, mode), eps)
            rng = Random(f"unique:{p}:{mode}:{eps}:{K}")
            for s in range(1, min(3, K - 1) + 1):
                big = sd.at_precision(s * K + 1)
                for _ in range(3):
                    f = rand_reduced_order(big, rng, s)
                    u = rand_unit(big, rng)
                    (e1, F1), (e2, F2) = prepare(u * f), prepare(f)
                    assert F1.degree == F2.degree == s
                    assert change_precision(F1.as_series(), sd) == change_precision(
                        F2.as_series(), sd
                    )
                    assert change_precision(e1, sd) == change_precision(u * e2, sd)


def test_oracle_agreement_random():
    rng = Random(506)
    for p, K in ((2, 3), (2, 4), (3, 3)):
        sd = build_skew(PrecisionContext(p, K, INTEGRAL), 1 + p)
        for _ in range(25):
            s = rng.randrange(1, K)
            f = rand_reduced_order(sd, rng, s)
            g = rand_series(sd, rng)
            assert divide(g, f) == divide_oracle(g, f)


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
def test_oracle_agreement_on_a_unit_divisor(mode):
    # s = 0 needs no lift: both routes give (g * f**-1, 0) at K itself.
    # Both are one block solve, so Newton's inverse, which shares no code
    # with the solver, is the independent check
    rng = Random(f"unit-divisor:{mode}")
    sd = build_skew(PrecisionContext(3, 4, mode), 4)
    for _ in range(40):
        f = rand_unit(sd, rng)
        g = rand_series(sd, rng)
        want = (g * f.inverse(), sd.zero())
        assert divide_oracle(g, f) == divide(g, f) == want
        assert want[0] == g * newton_inverse(f)


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 5))
def test_divide_core_matches_contraction_oracle(p, mode):
    # The table-based contraction must give the rows of the full products.
    for eps in (1, 1 + p):
        for K in (2, 3, 5, 8, 17):
            sd = build_skew(PrecisionContext(p, K, mode), eps)
            rng = Random(f"contraction:{p}:{mode}:{eps}:{K}")
            for s in (1, 2, 3):
                if s >= K:
                    continue
                f = rand_reduced_order(sd, rng, s)
                for g in (rand_series(sd, rng), sd.y(s)):
                    got = _divide_core(sd, g, f, s)
                    want = oracle_divide_core(sd, g, f, s)
                    assert (got[0].rows, got[1].rows) == (want[0].rows, want[1].rows)


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 5))
def test_divide_matches_linear_solve_oracle(p, mode):
    # s = 1 makes K' - s = K, so at the lift K' = K + 1 G inverts g0 mod (m, Y**K)
    for eps in (1, 1 + p):
        for K in (2, 3, 4):
            sd = build_skew(PrecisionContext(p, K, mode), eps)
            rng = Random(f"solve:{p}:{mode}:{eps}:{K}")
            for s in range(1, min(4, K)):
                f = rand_reduced_order(sd, rng, s)
                for g in (rand_series(sd, rng), sd.y(s)):
                    assert divide(g, f) == divide_oracle(g, f)


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 5, 1000003))
def test_block_oracle_matches_the_whole_system(p, mode, monkeypatch):
    # divide_oracle factors one matrix and replays it on each X-degree
    # block b < K; its pivots are (n, n - s) in row order, its block
    # solutions, put together before any reduction, solve every congruence
    # (n, b < K) of the whole system, and the three routes agree digit for
    # digit
    facs, blocks = [], []

    def eliminate(A, p, N):
        facs.append(_eliminate(A, p, N))
        return facs[-1]

    def replay(fac, rhs, p, M):
        assert fac is facs[-1]
        blocks.append(solve_mod_prime_power(fac, rhs, p, M))
        return blocks[-1]

    monkeypatch.setattr(series, "_eliminate", eliminate)
    monkeypatch.setattr(series, "solve_mod_prime_power", replay)
    for eps in (1, 1 + p):
        for K, s in ((2, 1), (3, 1), (3, 2), (4, 3), (5, 2), (6, 2), (12, 1)):
            sd = build_skew(PrecisionContext(p, K, mode), eps)
            rng = Random(f"blocks:{p}:{mode}:{eps}:{K}:{s}")
            f = rand_reduced_order(sd, rng, s)
            g = rand_series(sd, rng)
            facs.clear()
            blocks.clear()
            assert divide_oracle(g, f) == system_oracle.divide_oracle(g, f) == divide(g, f)
            Kb = s * K + 1
            top = Kb - s
            (piv, rest, width), = facs  # one elimination per call
            # row k of the matrix is the equation n = s + k; pivot k at (n, n - s)
            assert [(i, j) for _, _, i, j, *_ in piv] == [(k, k) for k in range(top)]
            assert (rest, width) == ([], top)
            assert len(blocks) == K  # one replay per block b = 0 .. K - 1
            rows, rhs, _, N, slots = system_oracle.division_system(g, f, s)
            # equation (n, b) reads the digits a <= b only, all solved for b < K
            eqs = [(n, b) for n in range(s, Kb) for b in range(Kb - n)]
            assert len(eqs) == len(rows)
            x = [blocks[a][j] if a < K and j < top else 0 for j, a in slots]
            assert all(
                (sum(map(mul, r, x)) - c) % p**N == 0
                for (n, b), r, c in zip(eqs, rows, rhs) if b < K
            )


def test_oracle_at_k_prime_25():
    # K' = s*K + 1 = 25 in each case; solved whole, the system took about
    # ten times as long as its blocks
    for K, s, mode in ((8, 3, INTEGRAL), (12, 2, INTEGRAL), (8, 3, CHARP)):
        sd = build_skew(PrecisionContext(3, K, mode), 4)
        rng = Random(f"oracle-25:{K}:{s}:{mode}")
        f = rand_reduced_order(sd, rng, s)
        g = rand_series(sd, rng)
        assert divide_oracle(g, f) == divide(g, f)


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize(("p", "K", "s"), ((2, 13, 2), (3, 12, 3)))
def test_oracle_at_zero_slack_widths(p, K, s, mode):
    # K' = 27 at p = 2 and K' = 37 at p = 3: in integral mode K'**2 * m**2
    # fills the packed slot of 8 and 16 bytes exactly, so the oracle's
    # forward sums, up to K'**2 products per slot, have no spare bit
    sd = build_skew(PrecisionContext(p, K, mode), 1 + p)
    big = sd.at_precision(s * K + 1)
    if mode == INTEGRAL:
        assert 8 * big._w == (((s * K + 1) * p ** (s * K + 1)) ** 2).bit_length()
    rng = Random(f"zero-slack:{p}:{K}:{s}:{mode}")
    for _ in range(2):
        f = rand_reduced_order(sd, rng, s)
        g = rand_series(sd, rng)
        assert divide_oracle(g, f) == divide(g, f)


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 5))
def test_divide_matches_full_contraction_at_the_lift(p, mode):
    # the full-product contraction with an exact inverse at K' = s*K + 1,
    # truncated to K, against divide's finish at K
    for eps in (1, 1 + p):
        for K in (2, 5, 8):
            sd = build_skew(PrecisionContext(p, K, mode), eps)
            rng = Random(f"lift:{p}:{mode}:{eps}:{K}")
            for s in (1, 2, 3):
                if s >= K:
                    continue
                big = sd.at_precision(s * K + 1)
                f = rand_reduced_order(sd, rng, s)
                g = rand_series(sd, rng)
                want = oracle_divide_core(
                    big, change_precision(g, big), change_precision(f, big), s
                )
                assert divide(g, f) == tuple(change_precision(x, sd) for x in want)


def test_quotient_uniqueness_at_working_precision():
    # For q, f built natively at K' = s*K + 1, dividing the product back
    # by f recovers q and a zero remainder on every digit visible at K.
    rng = Random(507)
    for p, K in ((2, 3), (3, 3), (2, 4)):
        sd = build_skew(PrecisionContext(p, K, INTEGRAL), 1 + p)
        for _ in range(15):
            s = rng.randrange(1, min(3, K))
            sd2 = sd.at_precision(s * K + 1)
            qh = rand_series(sd2, rng)
            fh = rand_reduced_order(sd2, rng, s)
            Q, R = _divide_core(sd2, qh * fh, fh, s)
            assert change_precision(Q, sd) == change_precision(qh, sd)
            assert change_precision(R, sd).is_zero()


def test_base_precision_division_is_congruence_solving():
    # At base precision the dividend only determines the quotient up to
    # the gauge of the congruence; what IS pinned down exactly is the
    # division identity itself.  q*f at K generally does not divide back
    # to q digit-for-digit (its lift solves a different congruence).
    sd = build_skew(PrecisionContext(2, 4, INTEGRAL), 1)
    q = SkewSeries(sd, [[10, 2, 3, 0], [1, 0, 1, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
    f = sd.y() - 2
    q2, rem2 = divide(q * f, f)
    assert q * f == q2 * f + rem2     # the identity holds exactly
    assert q2 != q                    # but the gauge representative moved


def _lifted_g0(sd, f, s):
    big = sd.at_precision(s * sd.ctx.K + 1)
    return big, weierstrass._shift_down(big, change_precision(f, big), s)


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 7, 1000003))
def test_residue_inverse_inverts_g0_mod_m_and_y(p, mode):
    # G*g0 = 1 mod (m, Y**(K' - s)): digit 0 of row j is 1 for j = 0 and
    # 0 mod p below K' - s, and G is made of constants below p
    for eps in (1, 1 + p):
        for K in (2, 4, 6):
            sd = build_skew(PrecisionContext(p, K, mode), eps)
            rng = Random(f"residue:{p}:{mode}:{eps}:{K}")
            for s in range(1, min(4, K)):
                big, g0 = _lifted_g0(sd, rand_reduced_order(sd, rng, s), s)
                n = big.ctx.K - s
                cs = weierstrass._residue_inverse(big, g0, n)
                assert len(cs) == n and all(0 <= c < p for c in cs)
                prod = SkewSeries(big, [(c,) for c in cs]) * g0
                assert [r[0] % p for r in prod.rows[:n]] == [1] + [0] * (n - 1)


def test_residue_inverse_one_term_short_trips_the_h_guard(monkeypatch):
    # a G that stops one term early leaves a unit in row K' - 1 of h
    real = weierstrass._residue_inverse
    monkeypatch.setattr(
        weierstrass, "_residue_inverse", lambda sd, g0, n: real(sd, g0, n - 1)
    )
    rng = Random(508)
    tripped = 0
    for p, K, mode in ((2, 4, INTEGRAL), (3, 5, CHARP), (7, 4, INTEGRAL), (1000003, 3, INTEGRAL)):
        sd = build_skew(PrecisionContext(p, K, mode), 1 + p)
        for s in range(1, K):
            for f in (sd.y(s) + sd.y(s + 1) + p, rand_reduced_order(sd, rng, s)):
                big, g0 = _lifted_g0(sd, f, s)
                n = big.ctx.K - s
                if real(big, g0, n)[n - 1] == 0:
                    continue  # the dropped term is zero, so nothing is cut
                with pytest.raises(InternalPrecisionLoss, match="escaped the maximal ideal"):
                    divide(rand_series(sd, rng), f)
                tripped += 1
    assert tripped >= 10


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 5, 7, 1000003))
def test_divide_matches_full_contraction_at_the_lift_wide(p, mode):
    # divide's residue G against the oracle's exact inverse at K' = s*K + 1,
    # for large p and for eps = 1 + 2p
    for eps in (1 + 2 * p,) if p <= 5 else (1, 1 + p, 1 + 2 * p):
        for K in (2, 3, 4):
            sd = build_skew(PrecisionContext(p, K, mode), eps)
            rng = Random(f"lift-wide:{p}:{mode}:{eps}:{K}")
            for s in range(1, K):
                big = sd.at_precision(s * K + 1)
                f = rand_reduced_order(sd, rng, s)
                for g in (rand_series(sd, rng), sd.y(s)):
                    want = oracle_divide_core(
                        big, change_precision(g, big), change_precision(f, big), s
                    )
                    assert divide(g, f) == tuple(change_precision(x, sd) for x in want)


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 1000003))
def test_lift_recovers_a_known_quotient_and_remainder(p, mode):
    # q, f and r with deg r < s built natively at K' = s*K + 1: the
    # division of q*f + r there, finished at K, is q and r truncated to K
    for K in (3, 4):
        sd = build_skew(PrecisionContext(p, K, mode), 1 + p)
        rng = Random(f"known:{p}:{mode}:{K}")
        for s in sorted({1, 2, K - 1}):
            big = sd.at_precision(s * K + 1)
            q = rand_series(big, rng)
            f = rand_reduced_order(big, rng, s)
            r = SkewSeries(big, rand_series(big, rng).rows[:s])
            got = _divide_core(big, q * f + r, f, s, sd)
            assert got == (change_precision(q, sd), change_precision(r, sd))


def _lift_cases():
    """(g, f, the oracle's truncated pair at K' = s*K + 1) on seeded inputs."""
    for p, mode in ((2, INTEGRAL), (3, CHARP), (3, INTEGRAL), (5, CHARP), (1000003, INTEGRAL)):
        for K in (3, 5):
            sd = build_skew(PrecisionContext(p, K, mode), 1 + p)
            rng = Random(f"cut:{p}:{mode}:{K}")
            for s in range(1, K):
                big = sd.at_precision(s * K + 1)
                f = rand_reduced_order(sd, rng, s)
                g = rand_series(sd, rng)
                want = oracle_divide_core(
                    big, change_precision(g, big), change_precision(f, big), s
                )
                yield g, f, tuple(change_precision(x, sd) for x in want)


def test_products_one_row_short_are_caught_at_the_lift(monkeypatch):
    # a _mul_rows that keeps one row fewer than asked must change what
    # divide returns, or trip one of its guards
    real = weierstrass._mul_rows

    def short(sd, fr, gpows, lo=0, hi=None):
        return real(sd, fr, gpows, lo, hi if hi is None else hi - 1)

    monkeypatch.setattr(weierstrass, "_mul_rows", short)
    cases = caught = 0
    for g, f, want in _lift_cases():
        cases += 1
        try:
            caught += divide(g, f) != want
        except InternalPrecisionLoss:
            caught += 1
    assert cases == 30 and caught >= 20
