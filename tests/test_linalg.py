"""The elimination of `skewseries.linalg`, which finds each pivot from
lower bounds on the row valuations and takes a row's gcd only when that
row could hold the pivot, against the entry-by-entry pivot search and
full diagonalization kept in `linalg_oracle.py`."""

from __future__ import annotations

from random import Random

import pytest

from skewseries import build_skew, divide_oracle
from skewseries.errors import SystemSingularAtPrecision
from skewseries.linalg import smith_valuations, solve_mod_prime_power
from skewseries.precision import CHARP, INTEGRAL, PrecisionContext

import division_system_oracle as so
import linalg_oracle as lo
from util import rand_reduced_order, rand_series

SHAPES = [(m, n) for m in range(10) for n in range(10)]


def _solve(solver, rows, rhs, p, N):
    try:
        return solver(rows, rhs, p, N)
    except SystemSingularAtPrecision as exc:
        return ("singular", str(exc))


def _rand_matrix(rng, m, n, p, N):
    """Entries of every valuation, with zero rows, zero columns and
    all-zero blocks, and unreduced and negative representatives."""
    mod = p**N
    kind = rng.randrange(4)
    zero_rows = {i for i in range(m) if rng.random() < 0.2}
    zero_cols = {j for j in range(n) if rng.random() < 0.2}
    lo_i, lo_j = rng.randrange(m + 1), rng.randrange(n + 1)
    mat = []
    for i in range(m):
        row = []
        for j in range(n):
            if i in zero_rows or j in zero_cols or (kind == 0 and i >= lo_i and j >= lo_j):
                x = 0
            else:
                x = p ** rng.randrange(N + 1) * rng.randrange(mod)
            if kind == 1:
                x = x - mod * rng.randrange(3)
            row.append(x)
        mat.append(row)
    return mat


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("N", range(1, 7))
def test_diagonalization_matches_entry_scan_oracle(p, N):
    rng = Random(f"linalg:{p}:{N}")
    mod = p**N
    messages = set()
    for m, n in SHAPES:
        A = _rand_matrix(rng, m, n, p, N)
        assert smith_valuations(A, p, N) == lo.smith_valuations(A, p, N)
        xs = [rng.randrange(mod) for _ in range(n)]
        consistent = [sum(a * x for a, x in zip(row, xs)) for row in A]
        arbitrary = [rng.randrange(-mod, mod) for _ in range(m)]
        for rhs in (consistent, arbitrary):
            got = _solve(solve_mod_prime_power, A, rhs, p, N)
            assert got == _solve(lo.solve_mod_prime_power, A, rhs, p, N)
            if isinstance(got, tuple):
                assert rhs is arbitrary
                messages.add(got[1])
            else:
                assert all(
                    (sum(a * x for a, x in zip(row, got)) - c) % mod == 0
                    for row, c in zip(A, rhs)
                )
    # at N = 1 every pivot is a unit, so it always divides the residual
    want = {"inconsistent linear system", "pivot does not divide the residual"}
    assert messages == (want if N > 1 else want - {"pivot does not divide the residual"})


@pytest.mark.parametrize("mode", [INTEGRAL, CHARP])
def test_division_oracle_systems_match(mode, monkeypatch):
    """The blocks `divide_oracle` solves, captured and run through both,
    and the whole system of one division, built by its slow twin."""
    systems = []

    def capture(rows, rhs, p, N):
        systems.append((rows, rhs, p, N))
        return solve_mod_prime_power(rows, rhs, p, N)

    monkeypatch.setattr("skewseries.weierstrass.solve_mod_prime_power", capture)
    # (3, 5, 2) is the shape of the benchmark's oracle solve, at K' = 11
    cases = [(2, 3, 1), (3, 3, 2), (5, 2, 1), (3, 5, 2), (2, 4, 3), (1000003, 2, 1)]
    for p, K, s in cases:
        sd = build_skew(PrecisionContext(p, K, mode), 1 + p)
        rng = Random(f"linalg-divide:{p}:{K}:{s}:{mode}")
        g, f = rand_series(sd, rng), rand_reduced_order(sd, rng, s)
        divide_oracle(g, f)
        if (p, K, s) == (3, 5, 2):
            whole = so.division_system(g, f, s)[:4]
    # one block per X-degree b = 0 .. K' - s - 1, with K' = s*K + 1
    assert len(systems) == sum(s * K + 1 - s for _, K, s in cases)
    # and the whole system of the benchmark's shape, as one solve took it
    systems.append(whole)
    for rows, rhs, p, N in systems:
        assert solve_mod_prime_power(rows, rhs, p, N) == lo.solve_mod_prime_power(rows, rhs, p, N)
        assert smith_valuations(rows, p, N) == lo.smith_valuations(rows, p, N)
    rows, _, _, N = systems[-1]
    assert (len(rows), len(rows[0])) == (45, 66)
    if mode == INTEGRAL:  # a unit pivot in char p
        vals = smith_valuations(rows, 3, N)
        assert (min(vals), max(vals)) == (2, 10)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ties_go_to_the_first_row(p):
    """Every entry of a row has the row's valuation, drawn from two values,
    so most pivot searches meet several rows of the least valuation."""
    rng = Random(f"linalg-ties:{p}")
    for _ in range(60):
        N = rng.randrange(1, 5)
        mod = p**N
        m, n = rng.randrange(1, 9), rng.randrange(1, 9)
        v0 = rng.randrange(N)
        A = []
        for _ in range(m):
            v = min(v0 + rng.randrange(2), N - 1)
            A.append([p**v * (p * rng.randrange(mod) + rng.randrange(1, p)) for _ in range(n)])
        assert smith_valuations(A, p, N) == lo.smith_valuations(A, p, N)
        rhs = [rng.randrange(mod) for _ in range(m)]
        assert _solve(solve_mod_prime_power, A, rhs, p, N) == _solve(
            lo.solve_mod_prime_power, A, rhs, p, N
        )
