"""Exact work counts of a few fixed operations.

Spies count the calls of the row kernels and the builds of twist data:
``_mul_rows`` (through both its ``series`` and its ``weierstrass``
binding), ``series._y_step``, ``series._canon_rows`` and
``SkewData.__init__``, which runs for every fresh or lifted ring.  The
inputs come from fixed seeds of ``tests/util.py``, so unlike wall time
the counts do not depend on the host or its load.

A change that raises one of these counts must say so in CHANGES.md,
with the old and the new figure, and update the pin here; a change that
lowers one updates the pin too.

The opposite twist (``SkewData.opposite``, whose sigma is sigma^-1) is
twist data too: only the right-coefficient direction builds it, once.
"""

from __future__ import annotations

import pickle
import sys
import threading
from collections import Counter
from random import Random

import pytest

from skewseries import (
    CoeffSeries,
    SkewData,
    SkewSeries,
    build_skew,
    descend_ideal,
    divide,
    dump_division_problem,
    load_object,
    normal_witness,
    prepare,
)
from skewseries import series, weierstrass
from skewseries.precision import PrecisionContext

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
    # the lift to K' = 17 only: G inverts g0 mod m, no Newton rungs; G*f,
    # K - 1 = 7 contraction steps, total*h and the quotient at K
    assert work() == (10, 32, 5, 1)
    divide(g, f)
    assert work() == (10, 32, 5, 0)  # at_precision keeps the lifted ring


def test_divide_counts_at_large_p(work):
    sd = build_skew(PrecisionContext(1000003, 4), 1000004)
    rng = Random(6)
    f = rand_reduced_order(sd, rng, 3)
    g = rand_series(sd, rng)
    work()
    divide(g, f)
    assert work() == (6, 0, 5, 1)  # K' = 13, K - 1 = 3 contraction steps, all reading h alone


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
    assert work() == (21, 39, 16, 3)  # the rungs 1, 2, 4 below K = 8


def test_inverse_counts(work):
    u = rand_unit(build_skew(PrecisionContext(3, 16), 4), Random(2))
    work()
    u.inverse()
    assert work() == (8, 33, 8, 4)  # the rungs 1, 2, 4, 8 below K = 16


def test_load_division_problem_counts(work):
    obj = dump_division_problem(*reversed(_division_inputs()))
    work()
    load_object(obj)
    assert work() == (0, 0, 2, 1)  # the divisor reuses the dividend's twist data


def test_iwasawa_side_builds_no_twist_data(work):
    sd = build_skew(PrecisionContext(3, 8), 4)
    rng = Random(3)
    zc = [rand_coeff(sd.ctx, rng) for _ in range(3)] + [CoeffSeries.one(sd.ctx)]
    work()
    descend_ideal(sd, zc)
    normal_witness(sd, 2)
    assert work()[3] == 0


def test_right_coefficients_build_the_opposite_once(work):
    sd = build_skew(PrecisionContext(3, 8), 4)
    f = rand_series(sd, Random(4))
    work()
    g = SkewSeries.from_right_coefficients(sd, f.coefficients())
    assert work()[3] == 0  # the left direction steps with sigma
    bs = f.right_coefficients()
    assert work()[3] == 1  # cold: sd.opposite()
    assert g.right_coefficients() == list(f.coefficients())
    assert f.right_coefficients() == bs
    assert work()[3] == 0  # warm


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
