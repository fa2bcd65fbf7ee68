"""Exact work counts of a few fixed operations.

Spies count the calls of the row kernels and the builds of twist data:
``_mul_rows`` (through both its ``series`` and its ``weierstrass``
binding), ``series._y_step`` (with the row bound ``hi`` of each Horner
step), ``series._canon_rows`` and ``SkewData.__init__``, which runs for
every fresh or lifted ring.  The inputs come from fixed seeds of
``tests/util.py``, so unlike wall time the counts do not depend on the
host or its load.

A change that raises one of these counts must say so in CHANGES.md,
with the old and the new figure, and update the pin here; a change that
lowers one updates the pin too.

The opposite twist (``SkewData.opposite``, whose sigma is sigma^-1) is
twist data too: only the right-coefficient direction builds it, once.

The elimination of ``skewseries.linalg`` takes a row's gcd only when its
pivot search could pick that row; the count of ``linalg.gcd`` calls pins
that, since a search that takes more gcds than it needs finds the same
pivots.
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
from skewseries import linalg, series, weierstrass
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

    def bounded(sd, rows, hi=None, plus=()):
        steps.append((sd.ctx.K, hi, bool(plus)))
        return real(sd, rows, hi, plus)

    monkeypatch.setattr(series, "_y_step", bounded)
    divide(g, f)
    n = max(k for k, c in enumerate(cs) if c)
    assert steps[: n + 1] == [(17, 17 - j, True) for j in range(n, -1, -1)]
    assert steps[n + 1 :] and set(steps[n + 1 :]) == {(17, None, False)}


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
    # one 45 x 66 solve at K' = 11; the eager search took 405 gcds
    sd = build_skew(PrecisionContext(3, 5), 4)
    rng = Random(2)
    f = rand_reduced_order(sd, rng, 2)
    divide_oracle(rand_series(sd, rng), f)
    assert gcds() == 130


def test_rank_growth_row_gcds(gcds):
    # three 27 x 27 Smith forms; the eager search took 263 gcds
    omega_3 = (0, *(comb(27, a) for a in range(1, 28)))
    rank_growth(ModuleSpec(3, 1, (omega_3,)), 5, 24, strict=False)
    assert gcds() == 167


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
    assert work() == (21, 39, 5, 3)  # the rungs 1, 2, 4 below K = 8


def test_inverse_counts(work):
    u = rand_unit(build_skew(PrecisionContext(3, 16), 4), Random(2))
    work()
    u.inverse()
    assert work() == (8, 33, 3, 4)  # the rungs 1, 2, 4, 8 below K = 16


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

    def bounded(sd, rows, hi=None, plus=()):
        his.append(hi)
        return counted(sd, rows, hi, plus)

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
