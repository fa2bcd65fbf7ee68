"""End-to-end acceptance checks, one per shipped guarantee.

Run with ``pytest tests/test_acceptance.py -s`` to see one
``[PASS]``/``[FAIL]`` line per criterion.  Every tolerance here is
exact (zero slack mod the stated ideal); frozen constants were computed
with independent oracles before being fixed into the assertions.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from random import Random

import pytest

import group_ring_oracle as gro
from skewseries import (
    AtLeast,
    CHARP,
    CoeffSeries,
    INTEGRAL,
    ModuleSpec,
    NotAUnit,
    PrecisionContext,
    SchemaError,
    SkewSeries,
    VanishedAtPrecision,
    build_skew,
    canonical_json,
    descend_ideal,
    divide,
    divide_oracle,
    normal_witness,
    omega,
    prepare,
    rank_growth,
    run_selfcheck,
    xi,
)
from skewseries.serialize import (
    dump_coeff,
    dump_distinguished,
    dump_division_problem,
    dump_series,
    load_object,
)
from util import rand_coeff, rand_reduced_order, rand_series, rand_unit


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {label}")
        raise
    print(f"[PASS] criterion {num}: {label}")


def _floor(order) -> int:
    """Numeric floor of an order that may be exact or a lower bound."""
    return order.bound if isinstance(order, AtLeast) else order


def test_criterion_1_preparation_round_trip():
    with criterion(1, "preparation round-trip, 27 ring configurations x 100"):
        t0 = time.perf_counter()
        for p in (2, 3, 5):
            for eps in (1, 1 + p, 1 + 2 * p):
                for K in (4, 6, 8):
                    sd = build_skew(PrecisionContext(p, K, INTEGRAL), eps)
                    rng = Random(f"acceptance1:{p}:{eps}:{K}")
                    smax = min(4, K - 1)  # order K needs an invisible unit row
                    for i in range(100):
                        s = 1 + i % smax
                        f = rand_reduced_order(sd, rng, s)
                        e, F = prepare(f)
                        assert (e * F.as_series() - f).is_zero()
                        assert F.degree == s
                        for c in F.lower:
                            assert _floor(c.m_order()) >= 1
        assert time.perf_counter() - t0 < 120.0


def test_criterion_2_division_oracle_equivalence():
    with criterion(2, "division vs independent linear-solve oracle"):
        ctx = PrecisionContext(2, 3, INTEGRAL)
        sd = build_skew(ctx, 3)

        def sweep_series():
            # every slot over {0,1,2}; rows (3,2,1) slots at K=3
            for v in itertools.product((0, 1, 2), repeat=6):
                yield SkewSeries(
                    sd,
                    [
                        CoeffSeries(ctx, v[0:3]).coeffs,
                        CoeffSeries(ctx, v[3:5]).coeffs,
                        CoeffSeries(ctx, v[5:6]).coeffs,
                    ],
                )

        gs = {t.rows: t for t in sweep_series()}
        fs = {
            t.rows: t
            for t in sweep_series()
            if t.rows[0][0] % 2 == 0 and t.rows[1][0] % 2 == 1  # s = 1
        }
        assert len(fs) == 48 and len(gs) == 216
        for f in fs.values():
            for g in gs.values():
                assert divide(g, f) == divide_oracle(g, f)

        for p in (2, 3):
            sd4 = build_skew(PrecisionContext(p, 4, INTEGRAL), 1 + p)
            rng = Random(f"acceptance2:{p}")
            for i in range(60):
                f = rand_reduced_order(sd4, rng, 1 + i % 3)
                g = rand_series(sd4, rng)
                assert divide(g, f) == divide_oracle(g, f)


def test_criterion_3_group_ring_agreement():
    with criterion(3, "agreement with the independent group-ring model"):
        configs = [(2, INTEGRAL, 4), (3, INTEGRAL, 4), (5, INTEGRAL, 3),
                   (3, CHARP, 4), (2, CHARP, 5)]
        n_mul = n_prep = 0
        for (p, mode, K), e in itertools.product(configs, (0, 1)):
            eps = 1 + e * p  # the trivial twist and a nontrivial one
            sd = build_skew(PrecisionContext(p, K, mode), eps)
            rng = Random(f"acceptance3:{p}:{mode}:{K}:{eps}")
            for _ in range(30):
                a, b = rand_series(sd, rng), rand_series(sd, rng)
                assert (a * b).rows == gro.mul(p, K, mode, eps, a.rows, b.rows)
                n_mul += 1
            for _ in range(25):
                s = rng.randrange(1, K)
                f = rand_reduced_order(sd, rng, s)
                unit, F = prepare(f)
                assert F.degree == s
                assert gro.mul(p, K, mode, eps, unit.rows, F.as_series().rows) == f.rows
                n_prep += 1
        assert n_mul >= 300 and n_prep >= 250


def test_criterion_4_twist_depth_bounds():
    with criterion(4, "row depth of Y^n * r >= min(K, depth(r) + n - i)"):
        configs = [
            (2, 4, INTEGRAL, 3),
            (3, 4, INTEGRAL, 4),
            (2, 5, CHARP, 3),
            (5, 3, INTEGRAL, 6),
        ]
        for p, K, ring, eps in configs:
            sd = build_skew(PrecisionContext(p, K, ring), eps)
            rng = Random(f"acceptance4:{p}:{K}:{ring}:{eps}")
            samples = 0
            while samples < 1000:
                r = rand_coeff(sd.ctx, rng)
                table = sd.twist_table(r, 6)
                base = _floor(r.m_order())
                for _ in range(5):
                    n = rng.randrange(0, 7)
                    i = rng.randrange(0, n + 1)
                    got = _floor(table[n][i].m_order())
                    assert got >= min(K, base + n - i), (p, K, r.coeffs, n, i)
                    samples += 1


def test_criterion_5_cyclotomic_tower():
    with criterion(5, "tower recursion xi_n * omega_{n-1} = omega_n"):
        for p in (2, 3):
            ctx = PrecisionContext(p, p**3, INTEGRAL)
            for n in (1, 2, 3):
                assert xi(ctx, n) * omega(ctx, n - 1) == omega(ctx, n)
            want = (2, 1) if p == 2 else (3, 3, 1)
            assert xi(ctx, 1) == CoeffSeries(ctx, want)


def test_criterion_6_normality_witnesses():
    with criterion(6, "witness identity Y*omega_n = omega_n*(uY + u - 1)"):
        for p in (2, 3):
            for ring in (INTEGRAL, CHARP):
                sd = build_skew(PrecisionContext(p, 6, ring), 1 + p)
                for n in (0, 1, 2):
                    u, w = normal_witness(sd, n)
                    om = sd.embed(omega(sd.ctx, n))
                    assert (sd.y(1) * om - om * w).is_zero()


def test_criterion_7_ideal_descent():
    with criterion(7, "descent of X + Z and strict degree decrease"):
        ctx = PrecisionContext(3, 6, INTEGRAL)
        sd = build_skew(ctx, 4)
        r, steps = descend_ideal(
            sd, [CoeffSeries.x(ctx), CoeffSeries.one(ctx)]
        )
        # X(1+X)(3X+3X^2+X^3) = 3X^2+6X^3+4X^4+X^5
        assert r == CoeffSeries(ctx, (0, 0, 3, 6, 4, 1))
        assert steps == 1

        rng = Random("acceptance7")
        for _ in range(100):
            deg = rng.randrange(1, 5)
            zc = [rand_coeff(ctx, rng) for _ in range(deg)]
            zc.append(CoeffSeries.one(ctx))
            trace: list[int] = []
            try:
                descend_ideal(sd, zc, trace=trace)
            except VanishedAtPrecision:
                pass
            assert trace[0] == deg
            assert all(a > b for a, b in zip(trace, trace[1:]))


def test_criterion_8_rank_growth():
    with criterion(8, "coinvariant rank growth d*p^n + c on reference modules"):
        t0 = time.perf_counter()
        cases = [
            (ModuleSpec(p=2, d=1), 1, 0, 0),
            (ModuleSpec(p=2, d=0, torsion_polys=((0, 1),)), 0, 1, 0),
            (ModuleSpec(p=2, d=1, torsion_polys=((2, 1),)), 1, 1, 1),
        ]
        for spec, d, c, n0 in cases:
            res = rank_growth(spec, n_max=3, M=8)
            assert (res.d, res.c, res.stable_from) == (d, c, n0)
            assert res.stabilized
        assert time.perf_counter() - t0 < 30.0


def test_criterion_9_unit_inversion():
    with criterion(9, "two-sided inversion; NotAUnit iff constant non-unit"):
        for p in (2, 3, 5):
            for ring in (INTEGRAL, CHARP):
                sd = build_skew(PrecisionContext(p, 4, ring), 1 + p)
                one = sd.one()
                rng = Random(f"acceptance9:{p}:{ring}")
                for _ in range(100):
                    u = rand_unit(sd, rng)
                    v = u.inverse()
                    assert u * v == one and v * u == one
                for _ in range(100):
                    f = rand_series(sd, rng)
                    try:
                        f.inverse()
                        inverted = True
                    except NotAUnit:
                        inverted = False
                    assert inverted == (f.rows[0][0] % p != 0)


def test_criterion_10_serialization_and_selfcheck():
    with criterion(10, "byte-stable round trips, schema rejection, selfcheck"):
        ctx = PrecisionContext(3, 4, INTEGRAL)
        sd = build_skew(ctx, 4)
        rng = Random("acceptance10")
        f = rand_reduced_order(sd, rng, 2)
        eps, F = prepare(f)
        objs = [
            dump_coeff(rand_coeff(ctx, rng), epsilon=4),
            dump_series(rand_series(sd, rng)),
            dump_distinguished(F),
            dump_division_problem(rand_series(sd, rng), f),
        ]
        for obj in objs:
            blob = canonical_json(obj)
            reloaded = load_object(obj)
            redumped = {
                "coeff_series": lambda: dump_coeff(reloaded, epsilon=4),
                "skew_series": lambda: dump_series(reloaded),
                "distinguished": lambda: dump_distinguished(reloaded),
                "division_problem": lambda: dump_division_problem(*reloaded),
            }[obj["kind"]]()
            assert canonical_json(redumped) == blob

        bad = dump_coeff(rand_coeff(ctx, rng), epsilon=4)
        bad["coeffs"] = [81, 0, 0, 0]  # exceeds the slot modulus
        with pytest.raises(SchemaError):
            load_object(bad)
        with pytest.raises(SchemaError):
            load_object({"kind": "no-such-kind"})
        with pytest.raises(SchemaError):
            load_object({"kind": "coeff_series", "p": 3, "K": 4, "mode": "zp"})

        t0 = time.perf_counter()
        result = run_selfcheck(seed=42)
        assert result["passed"] is True
        assert time.perf_counter() - t0 < 300.0
