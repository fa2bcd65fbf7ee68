"""The benchmark's workloads: seeded inputs, the timed job, and output checks.

Each in-process workload is a class with the same shape:

* ``__init__`` builds the ring data (this is part of ``setup_s``);
* ``make(rng, i)`` draws the inputs of job ``i`` (never timed);
* ``run(x)`` is the timed job: calls into the public API only;
* ``check(x, out)`` returns a list of failure messages, empty when every
  output has the property the method guarantees.  Checks recompute
  nothing through the code path under test where an independent route
  exists, and never compare against stored outputs.

The ``cli`` workload runs fresh ``python -m skewseries.cli`` processes;
its inputs and checks live in :class:`Cli`.
"""
from __future__ import annotations

import json
import sys
from math import comb
from pathlib import Path
from random import Random

from skewseries import (
    CoeffSeries,
    ModuleSpec,
    SkewSeries,
    build_skew,
    descend_ideal,
    divide,
    divide_oracle,
    dump_division_problem,
    dump_module_spec,
    dump_series,
    dump_z_poly,
    load_object,
    normal_witness,
    prepare,
    rank_growth,
)
from skewseries.precision import PrecisionContext
from steady import run_child

P = 3
EPSILON = 4


# -- input generators ----------------------------------------------------


def rand_rows(sd, rng):
    K = sd.ctx.K
    return [[rng.randrange(m) for m in sd.ctx.slot_moduli(K - j)] for j in range(K)]


def rand_series(sd, rng):
    return SkewSeries(sd, rand_rows(sd, rng))


def rand_reduced_order(sd, rng, s):
    """Random series whose rows below s lie in m and whose row s is a unit."""
    rows = rand_rows(sd, rng)
    for j in range(s):
        rows[j][0] -= rows[j][0] % sd.ctx.p
    if rows[s][0] % sd.ctx.p == 0:
        rows[s][0] += 1 + rng.randrange(sd.ctx.p - 1)
    return SkewSeries(sd, rows)


def rand_unit(sd, rng):
    return rand_reduced_order(sd, rng, 0)


def rand_coeff(ctx, rng, unit=False):
    vals = [rng.randrange(m) for m in ctx.slot_moduli(ctx.K)]
    if unit and vals[0] % ctx.p == 0:
        vals[0] += 1 + rng.randrange(ctx.p - 1)
    return CoeffSeries(ctx, vals)


# -- independent reference values ----------------------------------------


def binomial_series(ctx, e):
    """(1+X)**e from binomial coefficients, without series arithmetic."""
    return CoeffSeries(ctx, [comb(e, a) for a in range(ctx.K)])


def omega_ref(ctx, n):
    """omega_n = (1+X)**(p**n) - 1 from binomial coefficients."""
    return CoeffSeries(ctx, [0] + [comb(ctx.p**n, a) for a in range(1, ctx.K)])


def residue_digits(f):
    """Image of f in k[[Y]]/(Y**K): the constant digit of every row, mod p."""
    return [row[0] % f.sd.ctx.p for row in f.rows]


def residue_product(a, b, p):
    out = [0] * len(a)
    for i, x in enumerate(a):
        for j in range(len(a) - i):
            out[i + j] += x * b[j]
    return [x % p for x in out]


def omega_poly(p, n):
    """omega_n as an integer polynomial, constant term first."""
    return tuple([0] + [comb(p**n, a) for a in range(1, p**n + 1)])


def descend_ref(sd, c0, path):
    """The scalar the descent must reach when it ends on the constant term:
    c0 * prod_{s in path} (sigma**s(gamma) - gamma), where path lists the
    top degrees it removed and sigma**s(gamma) = (1+X)**(eps**s)."""
    gamma = binomial_series(sd.ctx, 1)
    r = c0
    for s in path:
        r = r * (binomial_series(sd.ctx, sd.epsilon_raw**s) - gamma)
    return r


def _check_division(g, f, q, rem, s):
    bad = []
    if q * f + rem != g:
        bad.append("q*f + rem != g mod G_K")
    if rem.y_degree() >= s:
        bad.append(f"remainder has Y-degree {rem.y_degree()} >= s = {s}")
    return bad


def _check_preparation(f, eps, F, s):
    bad = []
    if not eps.is_unit():
        bad.append("eps is not a unit")
    if F.degree != s:
        bad.append(f"F has degree {F.degree}, expected {s}")
    if any(a.coeffs[0] % f.sd.ctx.p for a in F.lower):
        bad.append("a lower coefficient of F is not in m")
    if eps * F.as_series() != f:
        bad.append("eps*F != f mod G_K")
    return bad


# -- in-process workloads ------------------------------------------------


class Ring:
    """p=3, K=16: product, unit inverse and right-coefficient round trips."""

    name = "ring"
    ops_per_job = 4
    nominal_ms = 105.0
    POOL = 4

    def __init__(self, seed):
        self.sd = build_skew(PrecisionContext(P, 16), EPSILON)
        rng = Random(f"ring-pool-{seed}")
        self.pool = [rand_series(self.sd, rng) for _ in range(self.POOL)]

    def skew_data(self):
        return [self.sd]

    def make(self, rng, i):
        sd = self.sd
        return (
            rand_series(sd, rng),
            rand_series(sd, rng),
            rand_unit(sd, rng),
            self.pool[i % self.POOL],
        )

    def run(self, x):
        f, g, u, pooled = x
        sd = self.sd
        return (
            f * g,
            u.inverse(),
            SkewSeries.from_right_coefficients(sd, f.right_coefficients()),
            SkewSeries.from_right_coefficients(sd, pooled.right_coefficients()),
        )

    def check(self, x, out):
        f, g, u, pooled = x
        fg, v, f_back, pooled_back = out
        one = self.sd.one()
        bad = []
        if u * v != one or v * u != one:
            bad.append("u*v = v*u = 1 fails")
        if f_back != f:
            bad.append("right-coefficient round trip changed f")
        if pooled_back != pooled:
            bad.append("right-coefficient round trip changed the pooled series")
        if fg * u != f * (g * u):
            bad.append("(f*g)*u != f*(g*u)")
        p = self.sd.ctx.p
        if residue_digits(fg) != residue_product(residue_digits(f), residue_digits(g), p):
            bad.append("reduction to k[[Y]] is not multiplicative on f*g")
        return bad


class Weierstrass:
    """p=3, K=8, divisor of reduced order s=2: prepare(f) and divide(g, f)."""

    name = "weierstrass"
    ops_per_job = 2
    nominal_ms = 120.0
    S = 2

    def __init__(self, seed):
        self.sd = build_skew(PrecisionContext(P, 8), EPSILON)
        # divide works at K' = s*K + 1; the lift is cached on the ring data
        self.big = self.sd.at_precision(self.S * 8 + 1)

    def skew_data(self):
        return [self.sd, self.big]

    def make(self, rng, i):
        return rand_reduced_order(self.sd, rng, self.S), rand_series(self.sd, rng)

    def run(self, x):
        f, g = x
        eps, F = prepare(f)
        q, rem = divide(g, f)
        return eps, F, q, rem

    def check(self, x, out):
        f, g = x
        eps, F, q, rem = out
        return _check_preparation(f, eps, F, self.S) + _check_division(g, f, q, rem, self.S)


class IwasawaLinalg:
    """Rank growth, ideal descent, a normality witness and the division oracle."""

    name = "iwasawa_linalg"
    ops_per_job = 4
    nominal_ms = 50.0
    DESCENT_DEGREE = 8
    N_MAX = 5
    M = 24

    def __init__(self, seed):
        self.sd = build_skew(PrecisionContext(P, 32), EPSILON)
        self.small = build_skew(PrecisionContext(P, 5), EPSILON)
        self.small.at_precision(2 * 5 + 1)
        self.spec = ModuleSpec(P, 1, (omega_poly(P, 3),))

    def skew_data(self):
        return [self.sd, self.small]

    def make(self, rng, i):
        ctx = self.sd.ctx
        d = self.DESCENT_DEGREE
        zpoly = [rand_coeff(ctx, rng, unit=(a == 0)) for a in range(d)]
        zpoly.append(CoeffSeries.one(ctx))
        return (
            zpoly,
            rand_reduced_order(self.small, rng, 2),
            rand_series(self.small, rng),
        )

    def run(self, x):
        zpoly, f, g = x
        growth = rank_growth(self.spec, self.N_MAX, self.M, strict=False)
        degrees: list[int] = []
        r, steps = descend_ideal(self.sd, zpoly, trace=degrees)
        u, w = normal_witness(self.sd, 1)
        qo, remo = divide_oracle(g, f)
        return growth, degrees, r, u, w, qo, remo

    def check(self, x, out):
        zpoly, f, g = x
        growth, degrees, r, u, w, qo, remo = out
        bad = []
        # gcd(omega_3, omega_n) = omega_min(n,3) has degree p**min(n,3)
        want = tuple((n, P**n + P ** min(n, 3), False) for n in range(self.N_MAX + 1))
        if (growth.d, growth.c, growth.stable_from) != (1, 27, 3) or not growth.stabilized:
            bad.append(f"rank growth d={growth.d} c={growth.c} from={growth.stable_from}")
        if growth.table != want:
            bad.append("rank growth table differs from lambda_n = p**n + p**min(n,3)")
        if any(b >= a for a, b in zip(degrees, degrees[1:])) or degrees[-1:] != [0]:
            bad.append(f"descent degrees do not fall strictly to 0: {degrees}")
        elif r != descend_ref(self.sd, zpoly[0], degrees[:-1]):
            bad.append("descent result != c0 * prod(sigma^s(gamma) - gamma)")
        sd = self.sd
        om1 = sd.embed(omega_ref(sd.ctx, 1))
        if not (sd.y() * om1 - om1 * w).is_zero():
            bad.append("Y*omega_1 - omega_1*w != 0")
        if w.rows[1] != u.coeffs or not u.is_unit():
            bad.append("witness w is not u*Y + (u-1) with u a unit")
        if (qo, remo) != divide(g, f):
            bad.append("divide_oracle != divide")
        return bad


IN_PROCESS = {w.name: w for w in (Ring, Weierstrass, IwasawaLinalg)}


# -- the CLI workload ----------------------------------------------------


class Cli:
    """Fresh ``python -m skewseries.cli`` processes on small inputs (K <= 6)."""

    name = "cli"
    ops_per_job = 1
    nominal_ms = 120.0
    DIVIDE_S = 2
    PREPARE_S = 1

    def __init__(self, seed, workdir: Path):
        rng = Random(f"cli-{seed}")
        self.dir = workdir
        sd4 = build_skew(PrecisionContext(P, 4), EPSILON)
        sd6 = build_skew(PrecisionContext(P, 6), EPSILON)
        self.f_prep = rand_reduced_order(sd4, rng, self.PREPARE_S)
        self.f_div = rand_reduced_order(sd4, rng, self.DIVIDE_S)
        self.g_div = rand_series(sd4, rng)
        self.unit = rand_unit(sd4, rng)
        self.sd6 = sd6
        self.zpoly = [rand_coeff(sd6.ctx, rng, unit=True) for _ in range(2)]
        self.zpoly.append(CoeffSeries.one(sd6.ctx))
        self.xi_n = 1 + rng.randrange(2)
        self.omega_n = 1 + rng.randrange(2)
        files = {
            "prepare": dump_series(self.f_prep),
            "divide": dump_division_problem(self.g_div, self.f_div),
            "invert": dump_series(self.unit),
            "descend": dump_z_poly(sd6, self.zpoly),
            "rankgrowth": dump_module_spec(ModuleSpec(P, 1, (omega_poly(P, 1),))),
        }
        for name, obj in files.items():
            (self.dir / f"{name}.in.json").write_text(json.dumps(obj))
        ctx_flags = ["--p", str(P), "--K", "6"]
        self.jobs = []
        for name in ("prepare", "divide", "invert", "xi", "omega", "descend", "rankgrowth", "axioms"):
            argv = [name, "--seed", str(seed), "--out", str(self.out_path(name))]
            if name in files:
                argv += ["--in", str(self.dir / f"{name}.in.json")]
            if name == "xi":
                argv += ctx_flags + ["--n", str(self.xi_n)]
            elif name == "omega":
                argv += ctx_flags + ["--n", str(self.omega_n)]
            elif name == "rankgrowth":
                argv += ["--n-max", "3", "--K", "8"]
            elif name == "axioms":
                argv += ["--p", str(P), "--K", "4", "--epsilon", str(EPSILON)]
            self.jobs.append((name, argv))

    def out_path(self, name: str) -> Path:
        return self.dir / f"{name}.out.json"

    def spawn(self, argv, env):
        return run_child([sys.executable, "-m", "skewseries.cli", *argv], env)

    def clear_outputs(self, name: str) -> None:
        self.out_path(name).unlink(missing_ok=True)
        self.out_path(name).with_suffix(".csv").unlink(missing_ok=True)

    def read_outputs(self, name: str) -> dict:
        """The output files of one subcommand; a missing file reads as empty."""
        paths = {"json": self.out_path(name)}
        if name == "rankgrowth":
            paths["csv"] = paths["json"].with_suffix(".csv")
        return {k: p.read_bytes() if p.exists() else b"" for k, p in paths.items()}

    def check(self, name: str, code: int, stdout: bytes, files: dict) -> list[str]:
        """Recheck one subcommand's output in this process."""
        if code != 0:
            return [f"{name}: exit code {code}"]
        try:
            obj = json.loads(files["json"])
        except ValueError as exc:
            return [f"{name}: output is not JSON: {exc}"]
        try:
            return [f"{name}: {m}" for m in getattr(self, "_check_" + name)(obj, stdout, files)]
        except Exception as exc:  # a malformed output must fail the check, not the run
            return [f"{name}: output does not reload: {type(exc).__name__}: {exc}"]

    def _check_prepare(self, obj, stdout, files):
        eps, F = load_object(obj["eps"]), load_object(obj["F"])
        return _check_preparation(self.f_prep, eps, F, self.PREPARE_S)

    def _check_divide(self, obj, stdout, files):
        q, rem = load_object(obj["q"]), load_object(obj["rem"])
        return _check_division(self.g_div, self.f_div, q, rem, self.DIVIDE_S)

    def _check_invert(self, obj, stdout, files):
        v = load_object(obj)
        one = self.unit.sd.one()
        return [] if v * self.unit == one and self.unit * v == one else ["f*v = v*f = 1 fails"]

    def _check_xi(self, obj, stdout, files):
        x = load_object(obj)
        n = self.xi_n
        ok = x * omega_ref(x.ctx, n - 1) == omega_ref(x.ctx, n) and x.coeffs[0] == P
        return [] if ok else [f"xi_{n} * omega_{n - 1} != omega_{n}"]

    def _check_omega(self, obj, stdout, files):
        x = load_object(obj)
        return [] if x == omega_ref(x.ctx, self.omega_n) else ["omega differs from (1+X)^(p^n) - 1"]

    def _check_descend(self, obj, stdout, files):
        r = load_object(obj["r"])
        bad = [] if r == descend_ref(self.sd6, self.zpoly[0], [2, 1]) else ["r != c0*prod(sigma^s(gamma) - gamma)"]
        if obj["steps"] != 2:
            bad.append(f"descent took {obj['steps']} steps, expected 2")
        return bad

    def _check_rankgrowth(self, obj, stdout, files):
        bad = []
        if (obj["d"], obj["c"], obj["stable_from"], obj["stabilized"]) != (1, 3, 1, True):
            bad.append(f"d={obj['d']} c={obj['c']} stable_from={obj['stable_from']}")
        want = "n,lambda_n,flag\n" + "".join(f"{n},{P**n + P ** min(n, 1)},0\n" for n in range(4))
        if files["csv"].decode() != want:
            bad.append("CSV table differs from lambda_n = p**n + p**min(n,1)")
        return bad

    def _check_axioms(self, obj, stdout, files):
        report = obj["report"]
        bad = []
        if not report["passed"] or any(c["passes"] != 100 or c["failures"] for c in report["checks"]):
            bad.append("twist axioms reported failures")
        lines = stdout.decode().splitlines()
        if len(lines) != len(report["checks"]) or not all(l.endswith(": ok") for l in lines):
            bad.append("stdout report lines are not all ok")
        return bad
