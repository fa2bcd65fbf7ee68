"""Exact work counts of a few fixed operations.

Spies count the calls of the row kernels and the builds of twist data:
``_mul_rows`` (through both its ``series`` and its ``weierstrass``
binding), ``series._y_step`` (with the row bound ``hi`` of each Horner
step and the digit cap of the lifted division), ``series._canon_rows`` and ``SkewData.__init__``, which runs for
every fresh or lifted ring.  The inputs come from fixed seeds of
``tests/util.py``, so unlike wall time the counts do not depend on the
host or its load.

A change that raises one of these counts must say so in CHANGES.md,
with the old and the new figure, and update the pin here; a change that
lowers one updates the pin too.

The opposite twist (``SkewData.opposite``, whose sigma is sigma^-1) is
twist data too: only the right-coefficient direction builds it, once.

A second spy counts the digit rows reduced by ``coeff.vcanon``
(through every module that binds it) and the rows packed by
``SkewData.pack``: the rows of a Y-power table are reduced inline by
``_y_step`` and packed once, so they pass through ``vcanon`` no more.

The elimination of ``skewseries.linalg`` takes a row's gcd only when its
pivot search could pick that row; the count of ``linalg.gcd`` calls pins
that, since a search that takes more gcds than it needs finds the same
pivots.  A spy on ``iwasawa._smith_rank`` records the size of each
Smith form ``rank_growth`` takes, and one on ``iwasawa.vmul`` the
precision of each product ``descend_ideal`` takes.  One on ``coeff.vmul``
counts the powers that ``coeff.vpowers`` takes for ``xi``,
``normal_witness`` and ``CoeffSeries.compose``.
"""

from __future__ import annotations

import pickle
import sys
import threading
from collections import Counter
from math import comb
from random import Random

import pytest

from skewseries import (
    CoeffSeries,
    ModuleSpec,
    SkewData,
    SkewSeries,
    build_skew,
    descend_ideal,
    divide,
    divide_oracle,
    dump_coeff,
    dump_division_problem,
    load_object,
    normal_witness,
    prepare,
    rank_growth,
)
from skewseries import coeff, iwasawa, linalg, series, skew, weierstrass
from skewseries.precision import PrecisionContext
from skewseries.series import change_precision

from util import rand_coeff, rand_reduced_order, rand_series, rand_unit


@pytest.fixture
def work(monkeypatch):
    """A function that returns and resets (mul_rows, y_step, canon_rows, builds)."""
    counts = Counter()

    def spy(owner, name, key):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(series, "_mul_rows", "mul_rows")
    spy(weierstrass, "_mul_rows", "mul_rows")
    spy(series, "_y_step", "y_step")
    spy(series, "_canon_rows", "canon_rows")
    spy(SkewData, "__init__", "builds")

    def take() -> tuple[int, int, int, int]:
        seen = tuple(counts[k] for k in ("mul_rows", "y_step", "canon_rows", "builds"))
        counts.clear()
        return seen

    return take


def _division_inputs():
    """A divisor of reduced order s = 2 and a dividend at p = 3, K = 8, fresh twist data."""
    sd = build_skew(PrecisionContext(3, 8), 4)
    rng = Random(1)
    f = rand_reduced_order(sd, rng, 2)
    return f, rand_series(sd, rng)


def test_divide_counts_cold_then_warm(work):
    f, g = _division_inputs()
    work()
    divide(g, f)
    # the lift to K' = 17 only: G inverts g0 mod m, no Newton rungs; G*f by
    # Horner's rule, K - 1 = 7 contraction steps, total*h and the quotient
    # at K over G moved up, so the one row canonicalization is the remainder's
    assert work() == (9, 27, 1, 1)
    divide(g, f)
    assert work() == (9, 27, 1, 0)  # at_precision keeps the lifted ring


def test_divide_counts_at_large_p(work):
    sd = build_skew(PrecisionContext(1000003, 4), 1000004)
    rng = Random(6)
    f = rand_reduced_order(sd, rng, 3)
    g = rand_series(sd, rng)
    work()
    divide(g, f)
    # K' = 13, K - 1 = 3 contraction steps, all reading h alone; G is one
    # constant, so G*f is Horner's one step on zero rows, adding c_0*f
    assert work() == (5, 1, 1, 1)


def test_divide_steps_g_f_at_shrinking_precision(monkeypatch):
    # G*f adds c_j*f at hi = K' - j, the h-table steps at K' = 17, and the
    # quotient, formed at K = 8 from G moved up, takes no Y-step
    f, g = _division_inputs()
    big = f.sd.at_precision(17)
    g0 = weierstrass._shift_down(big, change_precision(f, big), 2)
    cs = weierstrass._residue_inverse(big, g0, 15)
    steps = []
    real = series._y_step

    def bounded(sd, rows, hi=None, plus=(), packed=None, cap=None):
        steps.append((sd.ctx.K, hi, bool(plus), cap))
        return real(sd, rows, hi, plus, packed, cap)

    monkeypatch.setattr(series, "_y_step", bounded)
    divide(g, f)
    # every step at the lift keeps the K = 8 digits that reach the output
    n = max(k for k, c in enumerate(cs) if c)
    assert steps[: n + 1] == [(17, 17 - j, True, 8) for j in range(n, -1, -1)]
    assert steps[n + 1 :] and set(steps[n + 1 :]) == {(17, None, False, 8)}


def test_divide_keeps_k_digits_per_row_at_the_lift(monkeypatch):
    # at K' = 17 every Y-step row and every product row carries at most
    # K = 8 live digits; uncapped, the rows near the top carry up to 17
    f, g = _division_inputs()
    widths = {"y_step": [], "mul_rows": []}
    y_step, mul_rows = series._y_step, weierstrass._mul_rows

    def stepped(sd, *args, **kwargs):
        out = y_step(sd, *args, **kwargs)
        if sd.ctx.K == 17:
            widths["y_step"] += [len(r) for r in out]
        return out

    def multiplied(sd, *args, **kwargs):
        out = mul_rows(sd, *args, **kwargs)
        if sd.ctx.K == 17:
            widths["mul_rows"] += [max((a + 1 for a, x in enumerate(r) if x), default=0) for r in out]
        return out

    monkeypatch.setattr(series, "_y_step", stepped)
    monkeypatch.setattr(weierstrass, "_mul_rows", multiplied)
    divide(g, f)
    assert all(widths.values())
    assert {k: max(v) for k, v in widths.items()} == {"y_step": 8, "mul_rows": 8}


@pytest.fixture
def digit_work(monkeypatch):
    """A function that returns and resets (vcanon calls, pack calls)."""
    counts = Counter()
    vcanon, pack = coeff.vcanon, SkewData.pack

    def reduced(*args):
        counts["vcanon"] += 1
        return vcanon(*args)

    def packed(*args):
        counts["pack"] += 1
        return pack(*args)

    for module in (coeff, series, skew, weierstrass):
        monkeypatch.setattr(module, "vcanon", reduced)
    monkeypatch.setattr(SkewData, "pack", packed)

    def take() -> tuple[int, int]:
        seen = counts["vcanon"], counts["pack"]
        counts.clear()
        return seen

    return take


def test_digit_rows_reduced_and_packed(digit_work):
    # warm calls, so no twist data is built: the table rows are packed
    # once and reduced inline, where they went through vcanon (253, 485
    # and 472 calls) before
    sd = build_skew(PrecisionContext(3, 16), 4)
    rng = Random(8)
    f, g = rand_series(sd, rng), rand_series(sd, rng)
    u = rand_unit(sd, Random(2))
    h, d = _division_inputs()[::-1]
    for job, want in (
        (lambda: f * g, (16, 272)),  # the K product rows; 16 rows of f, 16 of each power
        (u.inverse, (16, 256)),  # the K rows of the result; 16 rows of f and 15 powers
        (lambda: divide(h, d), (127, 305)),
    ):
        job()
        digit_work()
        job()
        assert digit_work() == want


@pytest.fixture
def gcds(monkeypatch):
    """A function that returns and resets the count of row gcds."""
    calls = [0]
    real = linalg.gcd

    def counted(*args):
        calls[0] += 1
        return real(*args)

    monkeypatch.setattr(linalg, "gcd", counted)

    def take() -> int:
        seen, calls[0] = calls[0], 0
        return seen

    return take


def test_division_oracle_row_gcds(gcds):
    # one 9 x 9 elimination at K' = 11, replayed on five blocks: the first
    # search reads all nine rows, and as row n has valuation n, each later
    # one reads only the next row.  Nine eliminations, one per block, took
    # 73 gcds; the one 45 x 66 solve of the whole system 130, and its eager
    # search 405
    sd = build_skew(PrecisionContext(3, 5), 4)
    rng = Random(2)
    f = rand_reduced_order(sd, rng, 2)
    divide_oracle(rand_series(sd, rng), f)
    assert gcds() == 16


def test_division_oracle_takes_its_remainder_at_k(monkeypatch):
    # q and the rows < s of rem come at the output precision K = 5 from the
    # packed forward sums of the solve at K' = 11: no product is formed
    calls = []
    real = weierstrass._mul_rows

    def spy(sd, fr, gpows, lo=0, hi=None):
        calls.append((sd.ctx.K, lo, hi))
        return real(sd, fr, gpows, lo, hi)

    sd = build_skew(PrecisionContext(3, 5), 4)
    rng = Random(2)
    f = rand_reduced_order(sd, rng, 2)
    g = rand_series(sd, rng)
    want = divide(g, f)
    monkeypatch.setattr(weierstrass, "_mul_rows", spy)
    assert divide_oracle(g, f) == want
    assert calls == []


def test_descent_product_precisions(monkeypatch):
    # the survivor c_0 of a degree-8 descent at p = 3, K = 32, eps = 4 is
    # multiplied by the factors of the path 8 .. 1, whose orders (gaps) are
    # 2, 2, 3, 2, 2, 3, 2, 2: each product runs at K less the gaps still to
    # come, and only the last at K.  All eight ran at K = 32 before
    precisions = []
    vmul = iwasawa.vmul

    def spy(ctx, u, v, q):
        precisions.append(q)
        return vmul(ctx, u, v, q)

    sd = build_skew(PrecisionContext(3, 32), 4)
    rng = Random(3)
    zc = [rand_coeff(sd.ctx, rng) for _ in range(8)] + [CoeffSeries.one(sd.ctx)]
    monkeypatch.setattr(iwasawa, "vmul", spy)
    trace: list[int] = []
    descend_ideal(sd, zc, trace=trace)
    assert trace == [8, 7, 6, 5, 4, 3, 2, 1, 0]
    assert precisions == [16, 18, 21, 23, 25, 28, 30, 32]


def test_power_kernel_products(monkeypatch):
    # coeff.vpowers takes each power of t by one vmul, only when the sum
    # asks for it, and stops at the first power that vanishes mod m**K.
    # Before it, _quotient took min(e, ceil(K/d)) products for w in m**d
    # and compose took K by Horner's rule: 3, 3, 4, 16 and 9 below
    calls = 0
    vmul = coeff.vmul

    def spy(ctx, u, v, q):
        nonlocal calls
        calls += 1
        return vmul(ctx, u, v, q)

    def products(run) -> int:
        nonlocal calls
        calls = 0
        run()
        return calls

    sds = [build_skew(PrecisionContext(3, 32), eps) for eps in (4, 4 + 3**20)]
    ctx = PrecisionContext(3, 9)
    f, t = CoeffSeries(ctx, range(1, 10)), CoeffSeries(ctx, (0, 0, 0, 1))
    monkeypatch.setattr(coeff, "vmul", spy)
    # xi_1 = 3 + 3X + X**2: the binomials end after three terms
    assert products(lambda: iwasawa.xi(PrecisionContext(3, 8), 1)) == 2
    # omega_1 lies in m**2, so its cube vanishes mod m**6
    assert products(lambda: iwasawa.xi(PrecisionContext(1000003, 6), 2)) == 3
    # e = 4 gives four binomials; e = 4 + 3**20 runs until omega_1**16 vanishes
    assert [products(lambda: normal_witness(sd, 1)) for sd in sds] == [3, 16]
    # X**3, X**6, then X**9 = 0 mod m**9
    assert products(lambda: f.compose(t)) == 3


def test_rank_growth_row_gcds(gcds):
    # omega_0, omega_1 and omega_2 divide F = omega_3, so their levels take
    # the zero matrix on (Z/p**M)[X]/omega_n, and omega_n = 0 mod F from
    # n = 3: no Smith form at all.  Three 27 x 27 ones, on the full route
    # at n = 3..5, took 167 gcds, and their eager search 263
    omega_3 = (0, *(comb(27, a) for a in range(1, 28)))
    rank_growth(ModuleSpec(3, 1, (omega_3,)), 5, 24, strict=False)
    assert gcds() == 0


# a distinguished polynomial of degree 27 drawn once at p = 3
GENERIC_F = (
    9, 3, 0, -6, -6, -12, 3, 12, 9, -9, 3, 12, -12, 6, -6, 9, 6, -6, -6, -3,
    -12, -9, -6, 12, -9, 6, -9, 1,
)


def test_rank_growth_smith_sizes_on_a_generic_f(gcds, monkeypatch):
    # omega_n is monic of degree 3**n < 27 for n <= 2 and does not divide
    # this F, so those levels take a 3**n x 3**n Smith form; from n = 3 the
    # full 27 x 27 one.  Six 27 x 27 forms took 375 gcds
    sizes = []
    smith_rank = iwasawa._smith_rank

    def spy(mat, *args):
        sizes.append(len(mat))
        return smith_rank(mat, *args)

    monkeypatch.setattr(iwasawa, "_smith_rank", spy)
    rank_growth(ModuleSpec(3, 1, (GENERIC_F,)), 5, 24, strict=False)
    assert (sizes, gcds()) == ([1, 3, 9, 27, 27, 27], 265)


def test_divide_stops_after_k_iterates(monkeypatch):
    # at K' = s*K + 1 = 31 the iterates q_0 .. q_(K-1) settle the output;
    # perfbench counts a step as a _shift_down call past the first two
    calls = []
    real = weierstrass._shift_down

    def counted(*args):
        calls.append(1)
        return real(*args)

    sd = build_skew(PrecisionContext(3, 6), 4)
    rng = Random(7)
    f = rand_reduced_order(sd, rng, 5)
    g = rand_series(sd, rng)
    monkeypatch.setattr(weierstrass, "_shift_down", counted)
    divide(g, f)
    assert len(calls) - 2 <= sd.ctx.K - 1


def test_prepare_counts(work):
    f, _ = _division_inputs()
    work()
    prepare(f)
    # the contraction at K = 8 as before; prepare inverts only g0 and forms no
    # quotient: g0**-1 and eps = g0 * total**-1 are block solves at K = 8,
    # which build no lift and form no product
    assert work() == (8, 24, 3, 0)


def test_inverse_counts(work):
    u = rand_unit(build_skew(PrecisionContext(3, 16), 4), Random(2))
    work()
    u.inverse()
    # one block solve at K = 16: a table of K - 1 = 15 Y-steps, no product, no
    # lift, and the result's rows canonicalized once
    assert work() == (0, 15, 1, 0)


def test_load_division_problem_counts(work):
    obj = dump_division_problem(*reversed(_division_inputs()))
    work()
    load_object(obj)
    assert work() == (0, 0, 2, 1)  # the divisor reuses the dividend's twist data


def test_load_coeff_with_epsilon_builds_no_twist_data(work):
    # the epsilon is checked against the context, and nothing reads a twist
    c = rand_coeff(PrecisionContext(3, 8), Random(7))
    obj = dump_coeff(c, epsilon=4)
    work()
    assert load_object(obj) == c
    assert work()[3] == 0


def test_iwasawa_side_builds_no_twist_data(work):
    sd = build_skew(PrecisionContext(3, 8), 4)
    rng = Random(3)
    zc = [rand_coeff(sd.ctx, rng) for _ in range(3)] + [CoeffSeries.one(sd.ctx)]
    work()
    descend_ideal(sd, zc)
    normal_witness(sd, 2)
    assert work()[3] == 0


def test_right_coefficients_build_the_opposite_once(work, monkeypatch):
    sd = build_skew(PrecisionContext(3, 8), 4)
    f = rand_series(sd, Random(4))
    his = []
    counted = series._y_step

    def bounded(sd, rows, hi=None, plus=(), packed=None, cap=None):
        his.append(hi)
        return counted(sd, rows, hi, plus, packed, cap)

    monkeypatch.setattr(series, "_y_step", bounded)
    work()
    ls = [f.row(j) for j in range(sd.ctx.K)]
    g = SkewSeries.from_right_coefficients(sd, ls)
    # the left direction steps with sigma from zero rows; the step that
    # adds c_j runs mod G_(K-j), and no row is canonicalized a second time
    assert work() == (0, 7, 0, 0) and his == [2, 3, 4, 5, 6, 7, 8]
    his.clear()
    bs = f.right_coefficients()
    assert work() == (0, 7, 0, 1) and his == [2, 3, 4, 5, 6, 7, 8]  # cold: sd.opposite()
    assert g.right_coefficients() == ls
    assert f.right_coefficients() == bs
    assert work()[3] == 0  # warm
    assert list(sd._derived) == [(8, sd.opposite().epsilon_raw)]  # no lift


def test_algorithms_never_take_the_opposite(monkeypatch):
    def refused(self):
        raise AssertionError("opposite twist taken")

    f, g = _division_inputs()
    rng = Random(5)
    zc = [rand_coeff(f.sd.ctx, rng) for _ in range(3)] + [CoeffSeries.one(f.sd.ctx)]
    monkeypatch.setattr(SkewData, "opposite", refused)
    divide(g, f)
    prepare(f)
    rand_unit(f.sd, rng).inverse()
    descend_ideal(f.sd, zc)
    normal_witness(f.sd, 2)


def test_opposite_is_built_once_under_threads(work):
    sd = build_skew(PrecisionContext(3, 9), 4)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    got: list[object] = [None] * n_threads

    def take(i: int) -> None:
        barrier.wait()
        got[i] = sd.opposite()

    work()
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=take, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert all(x is got[0] for x in got) and got[0] is sd.opposite()
    assert work()[3] == 1


def test_pickled_twist_builds_its_own_opposite(work):
    sd = build_skew(PrecisionContext(3, 8), 4)
    op = sd.opposite()
    copy = pickle.loads(pickle.dumps(sd))
    assert copy._derived == {}
    work()
    assert copy.opposite() == op and copy.opposite() is not op
    assert work()[3] == 1
