"""Skew series arithmetic in the canonical triangular representation."""

from __future__ import annotations

from itertools import islice
from random import Random

import pytest

from skewseries import (
    AtLeast,
    CoeffSeries,
    ContextMismatch,
    NotAUnit,
    SkewData,
    SkewSeries,
    build_skew,
    change_precision,
)
import skewseries.series
from skewseries.coeff import vcanon
from skewseries.precision import CHARP, INTEGRAL, PrecisionContext
from skewseries.series import _mul_rows, _solve_blocks, _table

import group_ring_oracle as gro
from inverse_oracle import geometric_inverse, newton_inverse
from twist_oracle import table_from_right_coefficients, table_right_coefficients
from util import rand_coeff, rand_reduced_order, rand_series, rand_unit


CONFIGS = (
    (2, 5, INTEGRAL, 3),
    (3, 4, INTEGRAL, 4),
    (3, 4, CHARP, 7),
    (5, 3, INTEGRAL, 6),
)


def skews():
    return [build_skew(PrecisionContext(p, K, mode), eps) for p, K, mode, eps in CONFIGS]


def test_y_times_scalar_rule():
    rng = Random(401)
    for sd in skews():
        y = sd.y()
        for _ in range(50):
            r = rand_coeff(sd.ctx, rng)
            expect = SkewSeries(sd, [sd.apply_delta(r).coeffs, sd.apply_sigma(r).coeffs])
            assert y * sd.embed(r) == expect


def test_scalar_times_y_is_plain():
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    r = CoeffSeries(sd.ctx, (5, 2, 0, 1))
    assert sd.embed(r) * sd.y() == SkewSeries(sd, [[0], r.coeffs])


def test_ring_laws():
    rng = Random(402)
    for sd in skews():
        for _ in range(25):
            f, g, h = (rand_series(sd, rng) for _ in range(3))
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert (f + g) * h == f * h + g * h
            assert f + g - g == f
            assert f * sd.one() == f == sd.one() * f


def test_int_and_coeff_coercion():
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    y = sd.y()
    assert y - 3 == SkewSeries(sd, [[-3], [1]])
    assert 1 + y == SkewSeries(sd, [[1], [1]])
    x = CoeffSeries.x(sd.ctx)
    assert y + x == SkewSeries(sd, [x.coeffs, [1]])
    assert 3 - y == SkewSeries(sd, [[3], [-1]])
    assert (y - 3) * (y + 3) == y * y - 9


def test_context_mismatch_rejected():
    sd1 = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    sd2 = build_skew(PrecisionContext(3, 4, INTEGRAL), 1)
    with pytest.raises(ContextMismatch):
        sd1.y() + sd2.y()
    sd3 = build_skew(PrecisionContext(2, 4, INTEGRAL), 3)
    with pytest.raises(ContextMismatch):
        sd1.y() * sd3.y()


def test_filtration_order_multiplicative():
    rng = Random(403)
    for sd in skews():
        K = sd.ctx.K
        for _ in range(50):
            f = rand_series(sd, rng)
            g = rand_series(sd, rng)
            of, og, ofg = f.g_order(), g.g_order(), (f * g).g_order()
            bf = of.bound if isinstance(of, AtLeast) else of
            bg = og.bound if isinstance(og, AtLeast) else og
            bfg = ofg.bound if isinstance(ofg, AtLeast) else ofg
            assert bfg >= min(bf + bg, K)


def test_g_order_examples():
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    assert sd.y(2).g_order() == 2
    assert sd.embed(9).g_order() == 2          # p^2 has m-order 2 in row 0
    assert (sd.embed(3) * sd.y()).g_order() == 2  # p Y: row 1, order 1
    o = sd.zero().g_order()
    assert isinstance(o, AtLeast) and o.bound == 4


def test_mul_rows_computes_only_the_rows_from_lo():
    rng = Random(403)
    for sd in skews():
        K = sd.ctx.K
        for _ in range(5):
            f, g = rand_series(sd, rng), rand_series(sd, rng)
            full = (f * g).rows
            table = list(islice(_table(sd, g.rows), K))
            for lo in range(K + 1):
                part = _mul_rows(sd, f.rows, table, lo)
                assert len(part) == K
                assert part[lo:] == full[lo:]
                assert all(not any(r) for r in part[:lo])


def test_geometric_series_inverse():
    sd = build_skew(PrecisionContext(2, 4, INTEGRAL), 3)
    inv = (sd.one() - sd.y()).inverse()
    assert inv == SkewSeries(sd, [[1], [1], [1], [1]])


def test_two_sided_inverse():
    rng = Random(404)
    for sd in skews():
        for _ in range(30):
            u = rand_unit(sd, rng)
            inv = u.inverse()
            assert u * inv == sd.one()
            assert inv * u == sd.one()
            assert inv.inverse() == u


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p, eps", ((2, 3), (3, 4), (5, 6), (2, 1), (3, 1), (5, 1)))
def test_newton_inverse_matches_oracles(p, eps, mode):
    for K in (1, 2, 3, 8, 16, 17):
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        rng = Random(f"newton-inverse:{p}:{eps}:{mode}:{K}")
        for _ in range(10 if K <= 3 else 2 if K <= 8 else 1):
            u = rand_unit(sd, rng)
            v = u.inverse()
            assert v.rows == geometric_inverse(u).rows
            assert u * v == sd.one() == v * u
            # u*v = 1 in the group-ring model pins every digit of v
            assert gro.mul(p, K, mode, eps, u.rows, v.rows) == sd.one().rows


def test_inverse_does_not_recanonicalize_at_its_own_precision(monkeypatch):
    # the Newton twin: one _canon_rows pass per rung below K, which
    # truncates f; x is only lifted and sm.one() is built canonical, and at
    # K itself change_precision hands f back instead of truncating it to itself
    sd = build_skew(PrecisionContext(3, 17, INTEGRAL), 4)
    f = rand_unit(sd, Random(413))
    canon = skewseries.series._canon_rows
    passes = []

    def spy(sd, rows):
        passes.append(sd.ctx.K)
        return canon(sd, rows)

    monkeypatch.setattr(skewseries.series, "_canon_rows", spy)
    g = newton_inverse(f)
    assert passes == [2, 3, 5, 9]
    assert f * g == sd.one()


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 5, 1000003))
def test_inverse_matches_the_newton_twin(p, mode):
    # the block solve and Newton's ladder, two routes to the one inverse mod G_K
    for eps in (1, 1 + p):
        for K in range(1, 18):
            sd = build_skew(PrecisionContext(p, K, mode), eps)
            rng = Random(f"solve-inverse:{p}:{mode}:{eps}:{K}")
            for _ in range(8 if K <= 4 else 3 if K <= 9 else 2):
                u = rand_unit(sd, rng)
                assert u.inverse().rows == newton_inverse(u).rows


@pytest.mark.parametrize("p", (2, 3, 5))
def test_block_solve_digits_are_canonical_at_the_working_precision(p):
    # each block's solution is reduced by its slot moduli at K' before it
    # enters the forward sums, so digit X**a of row j of q is below
    # p**(K' - j - a); the replay alone leaves digits up to p**(K' - a)
    sd = build_skew(PrecisionContext(p, 5, INTEGRAL), 1 + p)
    rng = Random(f"canonical-blocks:{p}")
    for s in (1, 2, 3):
        big = sd.at_precision(s * 5 + 1)
        f = change_precision(rand_reduced_order(sd, rng, s), big)
        rows, _ = _solve_blocks(change_precision(rand_series(sd, rng), big), f, s, 5)
        moduli = [big.ctx.slot_moduli(big.ctx.K - j) for j in range(5)]
        assert all(d < m for r, ms in zip(rows, moduli) for d, m in zip(r, ms))


def test_inverse_builds_no_twist_data_and_no_lift(monkeypatch):
    # s = 0 needs no lift: the solve runs at K on the unit's own twist data
    sd = build_skew(PrecisionContext(3, 16, INTEGRAL), 4)
    u = rand_unit(sd, Random(414))

    def refused(*args, **kwargs):
        raise AssertionError("twist data built or lifted")

    monkeypatch.setattr(SkewData, "__init__", refused)
    monkeypatch.setattr(SkewData, "at_precision", refused)
    v = u.inverse()
    assert u * v == sd.one() == v * u
    assert sd._derived == {}


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
def test_not_a_unit_is_raised_before_any_solve_work(mode, monkeypatch):
    sd = build_skew(PrecisionContext(3, 6, mode), 4)
    f = sd.embed(3) + sd.y()

    def refused(*args, **kwargs):
        raise AssertionError("solve work before the unit check")

    for name in ("_solve_blocks", "_table", "_y_step", "_eliminate", "solve_mod_prime_power"):
        monkeypatch.setattr(skewseries.series, name, refused)
    with pytest.raises(NotAUnit, match="row 0 is not a unit"):
        f.inverse()


def test_not_a_unit_iff_row0_constant_divisible():
    rng = Random(405)
    for sd in skews():
        p = sd.ctx.p
        for _ in range(50):
            f = rand_series(sd, rng)
            if f.row(0).coeffs[0] % p == 0:
                assert not f.is_unit()
                with pytest.raises(NotAUnit):
                    f.inverse()
            else:
                assert f.is_unit()
                f.inverse()


def test_right_coefficients_round_trip():
    rng = Random(407)
    for sd in skews():
        for _ in range(25):
            f = rand_series(sd, rng)
            rc = f.right_coefficients()
            assert SkewSeries.from_right_coefficients(sd, rc) == f


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p, eps", ((2, 3), (3, 4), (5, 6), (2, 1), (3, 1), (5, 1)))
def test_horner_basis_changes_match_twist_tables(p, eps, mode):
    # Both directions share one Y-step, so a round trip alone cannot
    # catch an error in it; each direction is checked on its own here.
    for K in (1, 2, 3, 8, 16, 17):
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        rng = Random(f"horner:{p}:{eps}:{mode}:{K}")
        for _ in range(10 if K <= 3 else 2 if K <= 8 else 1):
            f = rand_series(sd, rng)
            rc = f.right_coefficients()
            assert rc == table_right_coefficients(f)
            bs = [rand_coeff(sd.ctx, rng) for _ in range(K)]
            g = SkewSeries.from_right_coefficients(sd, bs)
            assert g.rows == table_from_right_coefficients(sd, bs).rows
            if eps == 1:
                # sigma = id: Y commutes with R, so both forms agree.
                assert [r.coeffs for r in rc] == list(f.rows)
                assert g.rows == SkewSeries(sd, [b.coeffs for b in bs]).rows


def _opposite(f: SkewSeries) -> SkewSeries:
    """f over the opposite twist: its right coefficients read as left rows."""
    return SkewSeries(f.sd.opposite(), [b.coeffs for b in f.right_coefficients()])


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 5))
def test_opposite_ring_reverses_products(p, mode):
    # f -> f° is an anti-isomorphism onto the ring of sigma^-1 (Ore, 1933)
    for eps in (1, 1 + p, 1 + 2 * p):
        for K in (1, 2, 5, 9):
            sd = build_skew(PrecisionContext(p, K, mode), eps)
            rng = Random(f"opposite:{p}:{mode}:{eps}:{K}")
            f, g, u = rand_series(sd, rng), rand_series(sd, rng), rand_unit(sd, rng)
            assert sd.opposite().opposite() == sd
            assert _opposite(f * g) == _opposite(g) * _opposite(f)
            assert _opposite(u.inverse()) == _opposite(u).inverse()
            assert _opposite(_opposite(f)) == f


def test_from_right_coefficients_drops_terms_in_g_k():
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    rng = Random(409)
    bs = [rand_coeff(sd.ctx, rng) for _ in range(6)]
    # Y**4 b_4 and Y**5 b_5 lie in G_4.
    assert SkewSeries.from_right_coefficients(sd, bs) == SkewSeries.from_right_coefficients(
        sd, bs[:4]
    )
    other = build_skew(PrecisionContext(3, 5, INTEGRAL), 4)
    with pytest.raises(ContextMismatch):
        SkewSeries.from_right_coefficients(sd, [rand_coeff(other.ctx, rng)])


def test_change_precision_round_trip():
    rng = Random(408)
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    up = sd.at_precision(7)
    for _ in range(25):
        f = rand_series(sd, rng)
        lifted = change_precision(f, up)
        assert change_precision(lifted, sd) == f
        for j in range(4):
            # the lift keeps every stored digit and adds nothing beyond
            assert lifted.row(j).coeffs[: 4 - j] == f.row(j).coeffs[: 4 - j]
            assert not any(lifted.row(j).coeffs[4 - j:])


def test_change_precision_keeps_the_twist(monkeypatch):
    rng = Random(409)
    p = 3
    sd4 = build_skew(PrecisionContext(p, 4, INTEGRAL), 4)
    sd8 = build_skew(PrecisionContext(p, 8, INTEGRAL), 4)
    other4 = build_skew(PrecisionContext(p, 4, INTEGRAL), 7)
    other8 = build_skew(PrecisionContext(p, 8, INTEGRAL), 7)
    # eps differs only past p**(4 + EPSILON_GUARD): the same twist at K = 4
    close8 = build_skew(PrecisionContext(p, 8, INTEGRAL), 4 + p**9)
    f, g = rand_series(sd4, rng), rand_series(sd8, rng)
    built = []
    init = type(sd4).__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(type(sd4), "__init__", counted)
    for h, target in ((f, other8), (g, other4), (f, other4)):
        with pytest.raises(ContextMismatch):
            change_precision(h, target)
    assert change_precision(f, close8).sd is close8
    assert change_precision(change_precision(f, close8), sd4) == f
    assert change_precision(g, sd4).sd is sd4
    assert change_precision(f, sd4) is f
    assert not built  # the check compares keys and builds no twist data
    with pytest.raises(ValueError):
        change_precision(f, build_skew(PrecisionContext(p, 8, CHARP), 4))


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 1000003))
def test_truncation_commutes_with_ring_operations(p, mode):
    # G_K is a two-sided ideal, so an operation at K + t, truncated to K,
    # is the operation at K: one relation over every row bound and trusted
    # wrap, with no oracle.  divide is left out: its quotient responds to
    # the elements of G_K by which truncation changes its inputs
    for K in range(1, 9):
        sd = build_skew(PrecisionContext(p, K, mode), 1 + p)
        ctx = sd.ctx
        for t in (1, 3):
            big = sd.at_precision(K + t)
            rng = Random(f"truncation:{p}:{mode}:{K}:{t}")
            f, g, u = rand_series(big, rng), rand_series(big, rng), rand_unit(big, rng)
            fk, gk, uk = (change_precision(x, sd) for x in (f, g, u))
            assert change_precision(f * g, sd) == fk * gk
            assert change_precision(u.inverse(), sd) == uk.inverse()
            # b_j is known mod m**(K - j): Y**j m**(K - j) lies in G_K
            for j, (b, c) in enumerate(zip(f.right_coefficients(), fk.right_coefficients())):
                assert vcanon(ctx, b.coeffs, K - j) == c.coeffs
            bs = [rand_coeff(big.ctx, rng) for _ in range(K + t)]
            assert change_precision(SkewSeries.from_right_coefficients(big, bs), sd) == (
                SkewSeries.from_right_coefficients(sd, [CoeffSeries(ctx, b.coeffs) for b in bs])
            )


def test_y_degree_and_rows():
    sd = build_skew(PrecisionContext(3, 4, INTEGRAL), 4)
    f = sd.y(2) + sd.embed(7)
    assert f.y_degree() == 2
    assert f.row(0) == CoeffSeries(sd.ctx, (7,))
    assert f.row(2) == CoeffSeries.one(sd.ctx)
    assert sd.zero().y_degree() == -1
