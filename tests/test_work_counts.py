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
"""

from __future__ import annotations

from collections import Counter
from random import Random

import pytest

from skewseries import SkewData, build_skew, divide, dump_division_problem, load_object, prepare
from skewseries import series, weierstrass
from skewseries.precision import PrecisionContext

from util import rand_reduced_order, rand_series, rand_unit


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
    assert work() == (25, 56, 14, 6)  # K' = 17, 15 and the rungs 1, 2, 4, 8 below 15
    divide(g, f)
    assert work() == (25, 56, 14, 0)  # at_precision keeps the lifted rings


def test_prepare_counts(work):
    f, _ = _division_inputs()
    work()
    prepare(f)
    assert work() == (21, 40, 16, 3)  # the rungs 1, 2, 4 below K = 8


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
