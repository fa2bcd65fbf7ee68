"""The elimination of `skewseries.linalg`, which finds each pivot from
lower bounds on the row valuations and takes a row's gcd only when that
row could hold the pivot, and the solve that replays its recorded row
operations on a right side, against the entry-by-entry pivot search and
full diagonalization kept in `linalg_oracle.py`."""

from __future__ import annotations

from operator import mul
from random import Random

import pytest

from skewseries import build_skew, divide_oracle
from skewseries.errors import SystemSingularAtPrecision
from skewseries.linalg import _eliminate, smith_valuations, solve_mod_prime_power
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
            got = _solve(so.solve_whole, A, rhs, p, N)
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


def _check_replay(A, rhs, p, M, N, fac):
    """The replay at M of `fac`, the elimination of A mod p**N, solves
    A x = rhs mod p**M exactly when the oracle finds a solution; at M = N
    its pivots and row operations are the oracle's, and so is its answer."""
    got = _solve(solve_mod_prime_power, fac, rhs, p, M)
    want = _solve(lo.solve_mod_prime_power, A, rhs, p, M)
    assert isinstance(got, list) == isinstance(want, list)
    if M == N:
        assert got == want
    if isinstance(got, list):
        mod = p**M
        assert all(type(a) is int and 0 <= a < mod for a in got)
        assert all((sum(map(mul, row, got)) - c) % mod == 0 for row, c in zip(A, rhs))
    return isinstance(got, list)


def _triangular(rng, m, n, p, N):
    """Row i is p**min(i, N - 1) times a row with a unit at column i and
    multiples of p to its right, so the pivots are (i, i) in row order."""
    mod = p**N
    mat = []
    for i in range(m):
        row = [rng.randrange(mod) for _ in range(n)]
        row[i + 1:] = [p * x for x in row[i + 1:]]
        row[i] = p * rng.randrange(mod) + rng.randrange(1, p)
        mat.append([p ** min(i, N - 1) * x for x in row])
    return mat


@pytest.mark.parametrize("p", [2, 3, 5])
def test_one_factorization_solves_every_lower_precision_and_leading_rows(p):
    """A factorization mod p**N solves A x = c mod p**M for every M <= N,
    exactly when the oracle finds a solution; its first t pivots solve the
    leading t rows when they sit at rows 0 .. t-1 in order, and otherwise
    the solve refuses the leading rows."""
    rng = Random(f"linalg-replay:{p}")
    counts = {"solved": 0, "unsolvable": 0, "leading": 0, "refused": 0}
    for case in range(120):
        N = rng.randrange(1, 6)
        mod = p**N
        m, n = rng.randrange(1, 9), rng.randrange(1, 11)
        if case % 2:
            A = _rand_matrix(rng, m, n, p, N)
        else:
            m = min(m, n)
            A = _triangular(rng, m, n, p, N)
        fac = _eliminate([[a % mod for a in row] for row in A], p, N)
        xs = [rng.randrange(mod) for _ in range(n)]
        for M in range(1, N + 1):
            consistent = [sum(map(mul, row, xs)) for row in A]
            arbitrary = [rng.randrange(-mod, mod) for _ in range(m)]
            assert _check_replay(A, consistent, p, M, N, fac)
            for rhs in (consistent, arbitrary):
                ok = _check_replay(A, rhs, p, M, N, fac)
                counts["solved" if ok else "unsolvable"] += 1
                for t in range(1, m):
                    if [i for _, _, i, *_ in fac[0][:t]] == list(range(t)):
                        _check_replay(A[:t], rhs[:t], p, M, N, fac)
                        counts["leading"] += 1
                    else:
                        with pytest.raises(ValueError, match="not at rows"):
                            solve_mod_prime_power(fac, rhs[:t], p, M)
                        counts["refused"] += 1
        if case % 2 == 0 and m > 1:
            assert [i for _, _, i, *_ in fac[0]] == list(range(m))
    assert min(counts.values()) > 0, counts


@pytest.mark.parametrize("mode", [INTEGRAL, CHARP])
def test_division_oracle_systems_match(mode, monkeypatch):
    """`divide_oracle` factors one matrix per call and replays it on each
    X-degree block below K; every block solution solves its own corner of
    that matrix and agrees mod p with a fresh oracle solve of the corner.
    And the whole system of one division, built by its slow twin."""
    facs, solves = [], []

    def eliminate(A, p, N):
        facs.append(([row[:] for row in A], p, N))
        return _eliminate(A, p, N)

    def replay(fac, rhs, p, M):
        solves.append((len(facs), rhs, M, solve_mod_prime_power(fac, rhs, p, M)))
        return solves[-1][-1]

    monkeypatch.setattr("skewseries.series._eliminate", eliminate)
    monkeypatch.setattr("skewseries.series.solve_mod_prime_power", replay)
    # (3, 5, 2) is the shape of the benchmark's oracle solve, at K' = 11
    cases = [(2, 3, 1), (3, 3, 2), (5, 2, 1), (3, 5, 2), (2, 4, 3), (1000003, 2, 1)]
    for p, K, s in cases:
        sd = build_skew(PrecisionContext(p, K, mode), 1 + p)
        rng = Random(f"linalg-divide:{p}:{K}:{s}:{mode}")
        g, f = rand_series(sd, rng), rand_reduced_order(sd, rng, s)
        divide_oracle(g, f)
        if (p, K, s) == (3, 5, 2):
            whole = so.division_system(g, f, s)[:4]
    assert len(facs) == len(cases)  # one elimination per call
    # one replay per X-degree b = 0 .. K - 1, the blocks that reach the output
    assert len(solves) == sum(K for _, K, _ in cases)
    for at, rhs, M, x in solves:
        A, p, N = facs[at - 1]
        t = len(rhs)  # block b solves the leading t = K' - b - s rows
        assert M == (N - len(A) + t if mode == INTEGRAL else 1)
        corner = [row[:t] for row in A[:t]]
        assert not any(x[t:])
        assert all((sum(map(mul, row, x)) - c) % p**M == 0 for row, c in zip(corner, rhs))
        # row n of the corner is divisible by p**n, n < M, and the matrix is
        # invertible mod p after the scale: solutions agree mod p
        fresh = lo.solve_mod_prime_power(corner, rhs, p, M)
        assert [a % p for a in x[:t]] == [a % p for a in fresh]
    # and the whole system of the benchmark's shape, as one solve takes it
    rows, rhs, p, N = whole
    assert so.solve_whole(rows, rhs, p, N) == lo.solve_mod_prime_power(rows, rhs, p, N)
    assert smith_valuations(rows, p, N) == lo.smith_valuations(rows, p, N)
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
        assert _solve(so.solve_whole, A, rhs, p, N) == _solve(
            lo.solve_mod_prime_power, A, rhs, p, N
        )
