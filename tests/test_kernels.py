"""The packed reduce-once row kernels against their digit-loop,
reduce-every-product twins, and the values that skip canonicalization
(through `_Frozen._trusted`) against `_canon_rows` and `vcanon`."""

from __future__ import annotations

from itertools import islice
from random import Random

import pytest

from skewseries import (
    CoeffSeries,
    DegenerateAction,
    SkewSeries,
    VanishedAtPrecision,
    build_skew,
    descend_ideal,
    divide,
    normal_witness,
    omega,
    prepare,
    xi,
)
from skewseries.precision import CHARP, INTEGRAL, PrecisionContext, _Frozen
from skewseries.coeff import vcanon, vzero
from skewseries.series import _canon_rows, _horner, _mul_rows, _table, _y_step

import kernel_oracle as ko
from util import rand_coeff, rand_reduced_order, rand_series, rand_unit

GRID = [
    (p, eps, mode)
    for p in (2, 3, 5)
    for eps in (1, 1 + p)
    for mode in (INTEGRAL, CHARP)
]


@pytest.mark.parametrize("p, eps, mode", GRID)
def test_row_kernels_match_reduce_every_product_oracle(p, eps, mode):
    for K in (1, 2, 3, 8, 17):
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        rng = Random(f"kernels:{p}:{eps}:{mode}:{K}")
        for _ in range(4 if K <= 3 else 1):
            f, g = rand_series(sd, rng), rand_series(sd, rng)
            table = list(islice(ko._y_powers(sd, g.rows), K))
            packed = list(islice(_table(sd, g.rows), K))
            assert packed == _packed(sd, table)
            for lo in range(K + 1):
                assert _mul_rows(sd, f.rows, packed, lo) == ko._mul_rows(sd, f.rows, table, lo)
            bs = [rand_coeff(sd.ctx, rng).coeffs for _ in range(K)]
            for coeffs in (f.rows, bs):
                terms = [(sd.pack(c),) for c in coeffs]
                assert _horner(sd, terms) == ko._horner(sd, coeffs, ko.sigma(sd))
                assert _horner(sd.opposite(), terms) == ko._horner(
                    sd, coeffs, ko.sigma_inv(sd)
                )


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 1000003))
def test_vcanon_matches_digit_loop(p, mode):
    rng = Random(f"vcanon:{p}:{mode}")
    for K in (1, 2, 5):
        ctx = PrecisionContext(p, K, mode)
        big = p ** (K + 2)
        for n in (0, K - 1, K, K + 3):  # shorter than, equal to and longer than K
            for _ in range(4):
                vals = [rng.randrange(-big, big) for _ in range(n)]
                for q in range(K + 1):
                    want = ko._canon(ctx, vals, q)
                    assert vcanon(ctx, vals, q) == want
                    assert vcanon(ctx, tuple(vals), q) == want
                    assert vcanon(ctx, iter(vals), q) == want


def _packed(sd, table):
    """The rows of each power in ``table``, packed for ``_mul_rows``."""
    return [tuple(map(sd.pack, rows)) for rows in table]


def _padded(sd, rows):
    """Kernel rows, which hold their live digits only, padded to K digits."""
    K = sd.ctx.K
    return tuple(tuple(r) + (0,) * (K - len(r)) for r in rows)


def _cut(sd, rows, c):
    """Rows cut to their c low digits, padded to K digits."""
    return _padded(sd, (r[:c] for r in rows))


def _max_rows(sd):
    """Every digit at its slot modulus - 1: the largest canonical rows."""
    K = sd.ctx.K
    return tuple(tuple(m - 1 for m in sd.ctx.slot_moduli(K - j)) for j in range(K))


def test_row_kernels_at_the_slot_width_edge():
    # (2, 27) and (3, 37) in integral mode leave no slack: K**2 * m**2
    # has exactly 8 * w bits, 64 and 128
    cells = [
        (p, K, mode)
        for p in (2, 3, 5)
        for mode in (INTEGRAL, CHARP)
        for K in (1, 2, 3, 16, 17, 32)
    ] + [(2, 27, INTEGRAL), (3, 37, INTEGRAL)]
    widths = {}
    for p, K, mode in cells:
        sd = build_skew(PrecisionContext(p, K, mode), 1 + p)
        widths[p, K, mode] = sd._w
        top = _max_rows(sd)
        powers = list(islice(ko._y_powers(sd, top), K))
        assert list(islice(_table(sd, top), K)) == _packed(sd, powers)
        # a table of maximal rows fills every slot of every product
        for table in ([top] * K, powers):
            full = ko._mul_rows(sd, top, table)
            packed = _packed(sd, table)
            for lo in range(K + 1):
                want = (vzero(sd.ctx),) * lo + full[lo:]
                assert _mul_rows(sd, top, packed, lo) == want
        terms = [(sd.pack(c),) for c in top]
        assert _horner(sd, terms) == ko._horner(sd, top, ko.sigma(sd))
        assert _horner(sd.opposite(), terms) == ko._horner(sd, top, ko.sigma_inv(sd))
    assert widths[3, 17, INTEGRAL] == 8 and widths[5, 17, INTEGRAL] > 8
    for p, K, w in ((2, 27, 8), (3, 37, 16)):
        assert widths[p, K, INTEGRAL] == w
        assert (K * K * p ** (2 * K)).bit_length() == 8 * w


@pytest.mark.parametrize("p, eps, mode", GRID)
def test_trusted_rows_are_canonical(p, eps, mode, monkeypatch):
    # every value bound by _Frozen._trusted, for either class, is canonical
    wrap = _Frozen._trusted.__func__
    calls = []

    def checked(cls, *fields):
        if cls is CoeffSeries:
            ctx, c = fields
            assert isinstance(c, tuple)
            assert len(c) == ctx.K
            assert vcanon(ctx, c, ctx.K) == c
        else:
            assert cls is SkewSeries
            sd, rows = fields
            assert isinstance(rows, tuple)
            assert len(rows) == sd.ctx.K
            assert _canon_rows(sd, rows) == rows
            calls.append(sd.ctx.K)
        return wrap(cls, *fields)

    monkeypatch.setattr(_Frozen, "_trusted", classmethod(checked))
    for K in (1, 2, 3, 8):
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        ctx = sd.ctx
        rng = Random(f"trusted:{p}:{eps}:{mode}:{K}")
        f, g = rand_series(sd, rng), rand_series(sd, rng)
        assert (f - g) + g == f * sd.one() == -(-f) == (3 + f) - 3
        rand_unit(sd, rng).inverse()
        SkewSeries.from_right_coefficients(sd, f.right_coefficients())
        for s in range(min(K, 3)):
            d = rand_reduced_order(sd, rng, s)
            divide(g, d)
            prepare(d)
        a, b = rand_coeff(ctx, rng), rand_coeff(ctx, rng, in_m=True)
        u = rand_unit(sd, rng).row(0)  # a unit of the coefficient ring
        assert (a - b) + b == a * CoeffSeries.one(ctx) == -(-a) == (3 + a) - 3
        assert u * u.inverse() == CoeffSeries.one(ctx) == -1 * -u * u.inverse()
        a.compose(b)
        assert tuple(f.row(j).coeffs for j in range(K)) == f.rows
        sd.apply_delta(a)
        for n in range(3):
            omega(ctx, n)
            xi(ctx, n)
            normal_witness(sd, n)
        try:
            descend_ideal(sd, [a, b, CoeffSeries.one(ctx)])
        except (DegenerateAction, VanishedAtPrecision):  # too little is visible at K
            pass
        assert sd.y(K) == sd.y(K + 2) == sd.zero() != sd.y(K - 1)
    assert calls and max(calls) > 8  # the division ran at its lifted precision


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 1000003))
def test_mul_rows_with_a_row_bound_is_the_product_mod_g_hi(p, mode):
    # rows lo <= j < hi of the full product, each reduced at hi - j, the
    # rest zero; maximal rows at the zero-slack widths fill every slot
    cells = [(K, False) for K in (1, 2, 5, 9)]
    if mode == INTEGRAL and p < 5:
        cells.append(({2: 27, 3: 37}[p], True))
    for K, edge in cells:
        sd = build_skew(PrecisionContext(p, K, mode), 1 + p)
        rng = Random(f"row-bound:{p}:{mode}:{K}")
        f, g = (_max_rows(sd),) * 2 if edge else (rand_series(sd, rng).rows for _ in range(2))
        table = list(islice(ko._y_powers(sd, g), K))
        packed = list(islice(_table(sd, g), K))
        assert packed == _packed(sd, table)
        full = ko._mul_rows(sd, f, table)
        zero = vzero(sd.ctx)
        for hi in sorted({1, K // 2 + 1, K - 1, K} - {0}):
            for lo in (0, 1, hi) if K > 1 else (0,):
                want = tuple(
                    vcanon(sd.ctx, full[j], hi - j) if lo <= j < hi else zero for j in range(K)
                )
                assert _mul_rows(sd, f, packed, lo, hi) == want


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 1000003))
def test_y_step_with_a_row_bound_is_the_step_mod_g_hi(p, mode):
    # rows j < hi of the full step, each reduced at hi - j, the rest
    # zero; as Y * G_(hi-1) lies in G_hi, rows known only mod G_(hi-1)
    # give the same step, which is what Horner's rule feeds it
    cells = [(K, False) for K in (1, 2, 5, 9)]
    if mode == INTEGRAL and p < 5:
        cells.append(({2: 27, 3: 37}[p], True))
    for K, edge in cells:
        sd = build_skew(PrecisionContext(p, K, mode), 1 + p)
        ctx, zero = sd.ctx, vzero(sd.ctx)
        f = _max_rows(sd) if edge else rand_series(sd, Random(f"step-bound:{p}:{mode}:{K}")).rows
        with_zero_row = tuple(zero if j == K // 2 else r for j, r in enumerate(f))
        for rows in (f, with_zero_row, (zero,) * K):
            full = ko._y_step(sd, rows, ko.sigma(sd))
            assert _padded(sd, _y_step(sd, rows)) == full
            for hi in range(1, K + 1):
                want = tuple(vcanon(ctx, full[j], hi - j) if j < hi else zero for j in range(K))
                assert _padded(sd, _y_step(sd, rows, hi)) == want
                coarse = tuple(
                    vcanon(ctx, rows[j], hi - 1 - j) if j < hi - 1 else zero for j in range(K)
                )
                assert _padded(sd, _y_step(sd, coarse, hi)) == want


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 1000003))
def test_y_step_adds_a_packed_term_and_horner_multiplies_by_central_g(p, mode):
    # a step with ``plus`` is the oracle's step plus the unpacked term,
    # reduced at hi - j; Horner's rule over the terms c_k*f is G*f for
    # G = sum_k c_k Y**k with integers 0 <= c_k < p, which commute with Y.
    # Maximal rows with c = p - 1 at the zero-slack widths fill the slots.
    cells = [(K, False) for K in (1, 2, 3, 9)]
    if mode == INTEGRAL and p < 5:
        cells.append(({2: 27, 3: 37}[p], True))
    for K, edge in cells:
        sd = build_skew(PrecisionContext(p, K, mode), 1 + p)
        ctx, zero = sd.ctx, vzero(sd.ctx)
        rng = Random(f"plus:{p}:{mode}:{K}")
        if edge:
            f = t = _max_rows(sd)
            cs = [p - 1] * K
        else:
            f, t = (rand_series(sd, rng).rows for _ in range(2))
            cs = [rng.randrange(p) for _ in range(K)]
        fp = [sd.pack(r) for r in f]
        for c in {cs[0], p - 1}:
            plus = [c * sd.pack(r) for r in t]
            for rows in (f, (zero,) * K):
                full = ko._y_step(sd, rows, ko.sigma(sd))
                for hi in range(1, K + 1):
                    want = tuple(
                        ko._canon(ctx, [x + c * y for x, y in zip(full[j], t[j])], hi - j)
                        if j < hi
                        else zero
                        for j in range(K)
                    )
                    assert _padded(sd, _y_step(sd, rows, hi, plus)) == want
        G = tuple((c,) + zero[1:] for c in cs)
        want = ko._mul_rows(sd, G, list(islice(ko._y_powers(sd, f), K)))
        assert _horner(sd, [[c * x for x in fp] for c in cs]) == want


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 1000003))
def test_y_step_folds_packed_rows_into_the_packed_sum(p, mode):
    # with ``packed`` -f_j is subtracted inside the packed sum; padded to
    # K, each step is the oracle's, with or without a term, at every row
    # bound.  Maximal rows with c = p - 1 at the zero-slack widths fill
    # every slot.
    cells = [(K, False) for K in (1, 2, 3, 5, 9)]
    if mode == INTEGRAL and p < 5:
        cells.append(({2: 27, 3: 37}[p], True))
    for K, edge in cells:
        sd = build_skew(PrecisionContext(p, K, mode), 1 + p)
        ctx, zero = sd.ctx, vzero(sd.ctx)
        rng = Random(f"packed-step:{p}:{mode}:{K}")
        # the X**a digit of sigma(X)**a is 1 mod p, so slot a of sigma(f_j)
        # is at least f_j[a] and subtracting f_j borrows from no slot
        for twist in (sd, sd.opposite()):
            assert all(twist.unpack(col, K)[a] % p == 1 for a, col in enumerate(twist._sig_cols))
        if edge:
            f = t = _max_rows(sd)
            c = p - 1
        else:
            f, t = (rand_series(sd, rng).rows for _ in range(2))
            c = rng.randrange(p)
        with_zero_row = tuple(zero if j == K // 2 else r for j, r in enumerate(f))
        for rows in (f, with_zero_row, (zero,) * K):
            full = ko._y_step(sd, rows, ko.sigma(sd))
            packed = tuple(map(sd.pack, rows))
            for plus in ((), [c * sd.pack(r) for r in t]):
                terms = t if plus else (zero,) * K
                for hi in range(1, K + 1):
                    want = tuple(
                        ko._canon(ctx, [x + c * y for x, y in zip(full[j], terms[j])], hi - j)
                        if j < hi
                        else zero
                        for j in range(K)
                    )
                    assert _padded(sd, _y_step(sd, rows, hi, plus, packed)) == want


@pytest.mark.parametrize("mode", (INTEGRAL, CHARP))
@pytest.mark.parametrize("p", (2, 3, 1000003))
def test_capped_kernels_are_the_uncapped_rows_cut_to_the_cap(p, mode):
    # with a cap c, row j keeps the min(hi - j, c) low digits of the
    # uncapped row, each reduced by its own slot modulus at hi - j, not
    # at c: in integral mode a kernel that reduces them at c fails here.
    # Maximal rows with c0 = p - 1 at the zero-slack widths fill every slot
    cells = [(K, False) for K in (1, 2, 5, 9)]
    if mode == INTEGRAL and p < 5:
        cells.append(({2: 27, 3: 37}[p], True))
    for K, edge in cells:
        sd = build_skew(PrecisionContext(p, K, mode), 1 + p)
        rng = Random(f"cap:{p}:{mode}:{K}")
        if edge:
            f = g = t = _max_rows(sd)
            c0 = p - 1
        else:
            f, g, t = (rand_series(sd, rng).rows for _ in range(3))
            c0 = rng.randrange(p)
        plus = [c0 * sd.pack(r) for r in t]
        # Horner's rule for right coefficients, and for G*f with G = c0 * sum_k Y**k
        horner = ([(sd.pack(r),) for r in t], [[c0 * x for x in map(sd.pack, f)]] * K)
        table = list(islice(_table(sd, g), K))
        bounds = sorted({1, K // 2 + 1, K - 1, K} - {0})
        for c in bounds:
            fc = tuple(r[:c] for r in f)  # as the capped table feeds its steps
            capped = list(islice(_table(sd, g, c), K))
            assert capped == [tuple(x & sd._masks[c] for x in power) for power in table]
            for hi in bounds:
                for pl in ((), plus):
                    full = _cut(sd, _y_step(sd, f, hi, pl), c)
                    assert _padded(sd, _y_step(sd, f, hi, pl, cap=c)) == full
                    full = _cut(sd, _y_step(sd, f, hi, pl, tuple(map(sd.pack, f))), c)
                    assert _padded(sd, _y_step(sd, fc, hi, pl, tuple(map(sd.pack, fc)), c)) == full
                for lo in (0, 1, hi) if K > 1 else (0,):
                    full = _cut(sd, _mul_rows(sd, f, table, lo, hi), c)
                    assert _mul_rows(sd, f, table, lo, hi, c) == full
                    assert _mul_rows(sd, f, capped, lo, hi, c) == full
            for terms in horner:
                assert _horner(sd, terms, c) == _cut(sd, _horner(sd, terms), c)
