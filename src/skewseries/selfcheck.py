"""Seeded self-verification suites.

Each suite exercises one layer of the package against invariants that hold
exactly at finite precision: ring laws, twist axioms, division identities,
cyclotomic structure, rank accounting, and serialization round trips.  Every
random draw is derived deterministically from the top-level seed, so a given
seed always runs the identical checks.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .coeff import CoeffSeries
from .errors import SchemaError
from .iwasawa import (
    ModuleSpec,
    coinvariant_rank,
    descend_ideal,
    normal_witness,
    omega,
    omega_tower_check,
    rank_growth,
    snf_rank,
    xi,
)
from .precision import CHARP, INTEGRAL, AtLeast, PadicInt, PrecisionContext
from .serialize import (
    canonical_json,
    dump_coeff,
    dump_distinguished,
    dump_division_problem,
    dump_module_spec,
    dump_series,
    load_object,
)
from .series import SkewSeries, change_precision
from .skew import SkewData, _random_vec, build_skew, validate_axioms
from .weierstrass import _divide_core, _gauge_free_precision, divide, divide_oracle, prepare

__all__ = ["SuiteResult", "run_selfcheck", "ALL_SUITES"]


class SuiteResult:
    """Pass/fail tally for one suite, with a few failure messages kept."""

    def __init__(self, name: str):
        self.name = name
        self.passed = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str = "") -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(message)


def _rand_coeff(ctx: PrecisionContext, rng: Random, in_m: bool = False) -> CoeffSeries:
    return CoeffSeries._trusted(ctx, _random_vec(ctx, rng, in_m))


def _rand_series(sd: SkewData, rng: Random) -> SkewSeries:
    K = sd.ctx.K
    rows = [
        [rng.randrange(m) for m in sd.ctx.slot_moduli(K - j)] for j in range(K)
    ]
    return SkewSeries(sd, rows)


def _rand_divisor(sd: SkewData, rng: Random, s: int, monic: bool) -> SkewSeries:
    """A random series of reduced order s: rows below s lie in m, and row s
    is 1 if ``monic``, else 1 + x(X + ... + X**(K-1)), x drawn last."""
    K, p = sd.ctx.K, sd.ctx.p
    rows = [list(r) for r in _rand_series(sd, rng).rows]
    rows[s] = [1] if monic else [1] + [rng.randrange(p)] * (K - 1)
    for j in range(s):
        rows[j][0] -= rows[j][0] % p
    return SkewSeries(sd, rows)


def _rand_unit(sd: SkewData, rng: Random) -> SkewSeries:
    f = _rand_series(sd, rng)
    return f + 1 if f.rows[0][0] % sd.ctx.p == 0 else f


# -- suites -------------------------------------------------------------
# Each suite records its checks in the tally it is given and draws only
# from the generator it is given; ``run_selfcheck`` creates both.


def suite_scalars(res: SuiteResult, rng: Random) -> None:
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        prec = rng.randrange(1, 7)
        mod = p**prec
        a = PadicInt(p, rng.randrange(mod), prec)
        b = PadicInt(p, rng.randrange(mod), prec)
        res.check(
            (a + b).residue == (a.residue + b.residue) % mod
            and (a * b).residue == (a.residue * b.residue) % mod,
            f"scalar arithmetic p={p} prec={prec}",
        )
        v = a.valuation()
        if a.residue == 0:
            res.check(isinstance(v, AtLeast) and v.bound == prec, "zero valuation")
        else:
            r, count = a.residue, 0
            while r % p == 0:
                r //= p
                count += 1
            res.check(v == count, f"valuation {v} != {count}")
        if a.is_unit():
            inv = a.inverse()
            res.check(
                inv.residue == pow(a.residue, -1, mod),
                f"inverse mismatch p={p} prec={prec}",
            )


def suite_coeff_ring(res: SuiteResult, rng: Random) -> None:
    for _ in range(120):
        p = rng.choice((2, 3, 5))
        K = rng.randrange(2, 7)
        ctx = PrecisionContext(p, K, rng.choice((INTEGRAL, CHARP)))
        a, b, c = (_rand_coeff(ctx, rng) for _ in range(3))
        res.check((a + b) * c == a * c + b * c, "distributivity")
        res.check((a * b) * c == a * (b * c), "associativity")
        res.check(a * b == b * a, "commutativity")
        oa, ob, oab = a.m_order(), b.m_order(), (a * b).m_order()
        if isinstance(oa, int) and isinstance(ob, int) and oa + ob < K:
            res.check(oab == oa + ob, f"m_order product {oab} != {oa}+{ob}")
        if a.is_unit():
            inv = a.inverse()
            res.check(
                a * inv == CoeffSeries.one(ctx) and inv * a == CoeffSeries.one(ctx),
                "coeff inverse",
            )
        t = _rand_coeff(ctx, rng, in_m=True)
        u = _rand_coeff(ctx, rng, in_m=True)
        res.check(
            a.compose(t).compose(u) == a.compose(t.compose(u)),
            "composition associativity",
        )


def suite_twist(res: SuiteResult, rng: Random) -> None:
    configs = [
        (2, 4, INTEGRAL, 3),
        (2, 5, CHARP, 1),
        (3, 4, INTEGRAL, 4),
        (3, 4, CHARP, 7),
        (5, 3, INTEGRAL, 6),
    ]
    for p, K, mode, eps in configs:
        sd = build_skew(PrecisionContext(p, K, mode), eps)
        report = validate_axioms(sd, samples=40, seed=rng.randrange(2**30))
        res.check(
            report.passed,
            f"axioms failed for p={p} K={K} mode={mode} eps={eps}: "
            + ", ".join(c.name for c in report.checks if c.failures),
        )


def suite_skew_ring(res: SuiteResult, rng: Random) -> None:
    configs = [
        build_skew(PrecisionContext(2, 5, INTEGRAL), 3),
        build_skew(PrecisionContext(3, 4, CHARP), 4),
        build_skew(PrecisionContext(5, 3, INTEGRAL), 6),
    ]
    for sd in configs:
        one = sd.one()
        y = sd.y()
        for _ in range(12):
            f, g, h = (_rand_series(sd, rng) for _ in range(3))
            res.check((f * g) * h == f * (g * h), "associativity")
            res.check(f * (g + h) == f * g + f * h, "left distributivity")
            res.check((f + g) * h == f * h + g * h, "right distributivity")
            r = _rand_coeff(sd.ctx, rng)
            lhs = y * sd.embed(r)
            rhs = SkewSeries(sd, [sd.apply_delta(r).coeffs, sd.apply_sigma(r).coeffs])
            res.check(lhs == rhs, "Y*r twist rule")
            of, og, ofg = f.g_order(), g.g_order(), (f * g).g_order()
            bound = (of.bound if isinstance(of, AtLeast) else of) + (
                og.bound if isinstance(og, AtLeast) else og
            )
            oval = ofg.bound if isinstance(ofg, AtLeast) else ofg
            res.check(oval >= min(bound, sd.ctx.K), "G-filtration multiplicative")
            res.check(
                SkewSeries.from_right_coefficients(sd, f.right_coefficients()) == f,
                "right-coefficient round trip",
            )
        for _ in range(6):
            u = _rand_unit(sd, rng)
            inv = u.inverse()
            res.check(u * inv == one and inv * u == one, "two-sided inverse")


def suite_weierstrass(res: SuiteResult, rng: Random) -> None:
    for p, K in ((2, 4), (3, 4), (5, 3)):
        sd = build_skew(PrecisionContext(p, K, INTEGRAL), 1 + p)
        for _ in range(8):
            s = rng.randrange(1, min(4, K))
            f = _rand_divisor(sd, rng, s, monic=False)
            g = _rand_series(sd, rng)
            q, rem = divide(g, f)
            res.check(g == q * f + rem, "division identity")
            res.check(
                all(rem.row(j).is_zero() for j in range(s, K)),
                "remainder degree below s",
            )
            eps, F = prepare(f)
            res.check(eps * F.as_series() == f, "preparation identity")
            res.check(F.degree == s, "distinguished degree equals reduced order")
            res.check(
                all(
                    not isinstance(c.m_order(), int) or c.m_order() >= 1
                    for c in F.lower
                ),
                "lower coefficients in the maximal ideal",
            )
            eps2, F2 = prepare(F.as_series())
            res.check(
                eps2 == sd.one() and F2.as_series() == F.as_series(),
                "preparation idempotence",
            )
    sd = build_skew(PrecisionContext(2, 3, INTEGRAL), 3)
    for _ in range(10):
        s = rng.randrange(1, 3)
        f = _rand_divisor(sd, rng, s, monic=True)
        g = _rand_series(sd, rng)
        res.check(divide(g, f) == divide_oracle(g, f), "oracle agreement")
        # Uniqueness: a product formed at gauge-free working precision
        # divides back to its factor on every digit visible at base K.
        sd2 = sd.at_precision(_gauge_free_precision(s, sd.ctx.K))
        qh = _rand_series(sd2, rng)
        fh = change_precision(f, sd2)
        Q, R = _divide_core(sd2, qh * fh, fh, s)
        res.check(
            change_precision(Q, sd) == change_precision(qh, sd)
            and change_precision(R, sd).is_zero(),
            "quotient uniqueness",
        )


def suite_cyclotomic(res: SuiteResult, rng: Random) -> None:
    for p, K in ((2, 8), (3, 9)):
        ctx = PrecisionContext(p, K, INTEGRAL)
        report = omega_tower_check(ctx, 2)
        res.check(report.passed, f"tower recursion p={p}")
        for n in range(3):
            om = omega(ctx, n)
            o = om.m_order()
            res.check(
                (o.bound if isinstance(o, AtLeast) else o) >= min(n + 1, K),
                f"omega_{n} not in m^{n + 1}",
            )
            c0 = xi(ctx, n).coeffs[0]
            res.check(c0 == (p if n >= 1 else 0), f"xi_{n} constant term")
    for p in (2, 3):
        for mode in (INTEGRAL, CHARP):
            sd = build_skew(PrecisionContext(p, 6, mode), 1 + p)
            for n in (0, 1):
                u, w = normal_witness(sd, n)
                om = sd.embed(omega(sd.ctx, n))
                res.check(
                    sd.y() * om == om * w,
                    f"witness identity p={p} mode={mode} n={n}",
                )
                res.check(
                    sd.embed(sd.apply_sigma(omega(sd.ctx, n)))
                    == om * sd.embed(u),
                    f"sigma action p={p} mode={mode} n={n}",
                )
    sd = build_skew(PrecisionContext(3, 6, INTEGRAL), 4)
    x = CoeffSeries.x(sd.ctx)
    r, steps = descend_ideal(sd, [x, CoeffSeries.one(sd.ctx)])
    expected = x * (CoeffSeries.one(sd.ctx) + x) * omega(sd.ctx, 1)
    res.check(r == expected and steps == 1, "descent of X + Z")
    for _ in range(6):
        deg = rng.randrange(1, 5)
        zc = [_rand_coeff(sd.ctx, rng) for _ in range(deg)] + [
            CoeffSeries.one(sd.ctx)
        ]
        trace: list[int] = []
        try:
            descend_ideal(sd, zc, trace=trace)
        except Exception:
            pass
        res.check(
            all(a > b for a, b in zip(trace, trace[1:])),
            "descent degree strictly decreases",
        )


def suite_rank_growth(res: SuiteResult, rng: Random) -> None:
    specs = [
        (ModuleSpec(2, d=1), 1, 0, 0),
        (ModuleSpec(2, d=0, torsion_polys=((0, 1),)), 0, 1, 0),
        (ModuleSpec(2, d=1, torsion_polys=((2, 1),)), 1, 1, 1),
    ]
    for spec, d, c, stable_from in specs:
        g = rank_growth(spec, n_max=3, M=8)
        res.check(
            g.d == d and g.c == c and g.stable_from == stable_from and g.stabilized,
            f"growth profile {d},{c},{stable_from}",
        )
    res.check(coinvariant_rank(2, (0, 1), 0, 8) == 1, "coinvariant F=X n=0")
    res.check(coinvariant_rank(2, (2, 1), 0, 8) == 0, "coinvariant F=X+2 n=0")
    res.check(coinvariant_rank(2, (2, 1), 1, 8) == 1, "coinvariant F=X+2 n=1")
    res.check(coinvariant_rank(2, (-2, 1), 2, 8) == 0, "coinvariant F=X-2 n=2")
    for _ in range(20):
        p = rng.choice((2, 3, 5))
        size = rng.randrange(1, 5)
        M = 12
        ints = [[rng.randrange(-9, 10) for _ in range(size)] for _ in range(size)]
        mat = [
            [PadicInt(p, v % p**M, M) for v in row] for row in ints
        ]
        snf = snf_rank(mat)
        work = [[Fraction(v) for v in row] for row in ints]
        rank = 0
        for col in range(size):
            piv = next(
                (r for r in range(rank, size) if work[r][col] != 0), None
            )
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            for r in range(size):
                if r != rank and work[r][col] != 0:
                    factor = work[r][col] / work[rank][col]
                    work[r] = [
                        a - factor * b for a, b in zip(work[r], work[rank])
                    ]
            rank += 1
        res.check(
            not snf.precision_flag and snf.rank_at_precision == size - rank,
            f"corank vs rational rank p={p} size={size}",
        )


def suite_serialization(res: SuiteResult, rng: Random) -> None:
    for _ in range(15):
        p = rng.choice((2, 3))
        K = rng.randrange(2, 6)
        mode = rng.choice((INTEGRAL, CHARP))
        sd = build_skew(PrecisionContext(p, K, mode), 1 + p * rng.randrange(3))
        c = _rand_coeff(sd.ctx, rng)
        obj = dump_coeff(c, epsilon=sd.epsilon_raw)
        res.check(load_object(obj) == c, "coeff round trip")
        f = _rand_series(sd, rng)
        obj = dump_series(f)
        res.check(load_object(obj) == f, "series round trip")
        res.check(
            canonical_json(obj) == canonical_json(dump_series(load_object(obj))),
            "byte-stable dump",
        )
        g = _rand_series(sd, rng)
        obj = dump_division_problem(g, f)
        g2, f2 = load_object(obj)
        res.check(g2 == g and f2 == f, "division problem round trip")
        eps, F = prepare(_rand_unit(sd, rng) * sd.y())
        res.check(
            load_object(dump_distinguished(F)).as_series() == F.as_series(),
            "distinguished round trip",
        )
    spec = ModuleSpec(3, d=2, torsion_polys=((3, 0, 1), (-3, 1)), p_power_ranks=(1,))
    res.check(load_object(dump_module_spec(spec)) == spec, "module spec round trip")
    sd = build_skew(PrecisionContext(2, 3, INTEGRAL), 1)
    good = dump_series(sd.one())
    bad_cases = []
    b = dict(good)
    b["rows"] = [["8", "0", "0"], ["0", "0"], ["0"]]
    bad_cases.append(b)  # residue at or above its modulus
    b = dict(good)
    b["rows"] = [["-1", "0", "0"], ["0", "0"], ["0"]]
    bad_cases.append(b)  # signed residue
    b = dict(good)
    b["rows"] = [["01", "0", "0"], ["0", "0"], ["0"]]
    bad_cases.append(b)  # leading zero
    b = dict(good)
    b["extra"] = 1
    bad_cases.append(b)  # unknown key
    b = dict(good)
    del b["epsilon"]
    bad_cases.append(b)  # missing field
    b = dict(good)
    b["mode"] = "padic"
    bad_cases.append(b)  # unknown mode
    for bad in bad_cases:
        try:
            load_object(bad)
            res.check(False, f"accepted malformed object {sorted(bad)}")
        except SchemaError:
            res.check(True)


ALL_SUITES = [
    ("scalars", suite_scalars),
    ("coeff-ring", suite_coeff_ring),
    ("twist-axioms", suite_twist),
    ("skew-ring", suite_skew_ring),
    ("weierstrass", suite_weierstrass),
    ("cyclotomic", suite_cyclotomic),
    ("rank-growth", suite_rank_growth),
    ("serialization", suite_serialization),
]


def run_selfcheck(seed: int = 42, emit=None) -> dict:
    """Run every suite; returns ``{"passed", "suites"}`` with per-suite tallies.

    Suite ``name`` draws from ``Random(f"{seed}:{name}")``: string seeding
    is deterministic across runs and platforms.
    """
    suites = []
    for name, fn in ALL_SUITES:
        result = SuiteResult(name)
        fn(result, Random(f"{seed}:{name}"))
        suites.append(vars(result))
        if emit is not None:
            line = f"{name}: {result.passed} passed, {result.failed} failed"
            for msg in result.failures:
                line += f"\n  - {msg}"
            emit(line)
    return {"passed": all(s["failed"] == 0 for s in suites), "suites": suites}
