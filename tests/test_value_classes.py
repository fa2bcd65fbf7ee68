"""The plain slot classes behave like the dataclasses they replaced.

Each twin below is the former ``@dataclass`` definition.  Real and twin
must agree on repr, ==, hash and on whether assignment is allowed.

The ring values (``PadicInt``, ``CoeffSeries``, ``SkewSeries``) and the
twist data under them are values too: they copy and pickle to an equal
value with an equal hash, and the frozen ones refuse assignment and del.
"""

from __future__ import annotations

import copy
import pickle
from dataclasses import asdict, dataclass, field
from itertools import product

import pytest

from skewseries import CoeffSeries, SkewSeries, build_skew, validate_axioms
from skewseries import precision, skew, weierstrass
from skewseries.precision import CHARP, INTEGRAL, PadicInt
from skewseries.skew import EPSILON_GUARD


@dataclass(frozen=True)
class AtLeast:
    bound: int

    def __repr__(self) -> str:
        return f"AtLeast({self.bound})"


@dataclass(frozen=True)
class PrecisionContext:
    p: int
    K: int
    mode: str = INTEGRAL


@dataclass(frozen=True)
class DistinguishedPoly:
    sd: object
    degree: int
    lower: tuple

    def __repr__(self) -> str:
        return f"DistinguishedPoly(degree={self.degree}, lower={list(self.lower)!r})"


@dataclass
class AxiomCheck:
    name: str
    passes: int = 0
    failures: int = 0
    counterexample: str | None = None


@dataclass
class AxiomReport:
    samples: int
    seed: int
    checks: list = field(default_factory=list)


def assert_twins(real_cls, twin_cls, args_list, frozen: bool):
    """real_cls(*args) and twin_cls(*args) agree over every args in args_list."""
    reals = [real_cls(*args) for args in args_list]
    twins = [twin_cls(*args) for args in args_list]
    assert real_cls.__match_args__ == twin_cls.__match_args__
    for r, t in zip(reals, twins):
        assert repr(r) == repr(t)
        assert copy.copy(r) == r
        assert (r == t, t == r, r == 0) == (False, False, False)
        if frozen:
            assert hash(r) == hash(t)
        else:
            for x in (r, t):
                with pytest.raises(TypeError):
                    hash(x)
        for x in (r, t):
            name = real_cls.__match_args__[0]
            if frozen:
                with pytest.raises(AttributeError):
                    setattr(x, name, getattr(x, name))
                with pytest.raises(AttributeError):
                    delattr(x, name)
            else:
                setattr(x, name, getattr(x, name))
    for (r1, t1), (r2, t2) in product(zip(reals, twins), repeat=2):
        assert (r1 == r2, r1 != r2) == (t1 == t2, t1 != t2)


def test_at_least():
    assert_twins(precision.AtLeast, AtLeast, [(0,), (3,), (7,), (3,)], frozen=True)
    assert pickle.loads(pickle.dumps(precision.AtLeast(5))) == precision.AtLeast(5)


def test_precision_context_in_both_modes():
    args = [(3, 4, INTEGRAL), (3, 4, CHARP), (2, 5, INTEGRAL), (5, 1, CHARP), (3, 4, INTEGRAL)]
    assert_twins(precision.PrecisionContext, PrecisionContext, args, frozen=True)
    for p, K, mode in args:
        ctx = precision.PrecisionContext(p, K, mode)
        copied = pickle.loads(pickle.dumps(ctx))
        for q in range(K + 1):
            top = (p,) * q if mode == CHARP else tuple(p**e for e in range(q, 0, -1))
            assert ctx.slot_moduli(q) == copied.slot_moduli(q) == top + (1,) * (K - q)
    assert repr(precision.PrecisionContext(3, 4)) == "PrecisionContext(p=3, K=4, mode='integral')"


def test_distinguished_poly():
    sd = build_skew(precision.PrecisionContext(3, 4), 4)
    a = CoeffSeries(sd.ctx, (3, 1, 0, 0))
    b = CoeffSeries(sd.ctx, (0, 2, 5, 1))
    args = [(sd, 0, ()), (sd, 1, (a,)), (sd, 2, (a, b)), (sd, 2, (b, a)), (sd, 1, (a,))]
    assert_twins(weierstrass.DistinguishedPoly, DistinguishedPoly, args, frozen=True)


def test_axiom_check_and_report():
    args = [("ring",), ("ring", 5, 1, "r=[1]"), ("leibniz", 2), ("ring",)]
    assert_twins(skew.AxiomCheck, AxiomCheck, args, frozen=False)
    checks = [skew.AxiomCheck(*a) for a in args]
    twin_checks = [AxiomCheck(*a) for a in args]
    report_args = [(10, 1), (10, 2), (10, 1), (5, 0)]
    assert_twins(skew.AxiomReport, AxiomReport, report_args, frozen=False)
    assert repr(skew.AxiomReport(10, 1, checks)) == repr(AxiomReport(10, 1, twin_checks))
    assert skew.AxiomReport(10, 1, checks) == skew.AxiomReport(10, 1, list(checks))
    fresh, other = skew.AxiomReport(10, 1), skew.AxiomReport(10, 1)
    fresh.checks.append(checks[0])
    assert other.checks == []  # each report gets its own list, as with default_factory


def test_axiom_report_to_dict_matches_asdict():
    sd = build_skew(precision.PrecisionContext(3, 3), 4)
    real = validate_axioms(sd, samples=5, seed=1)
    failed = skew.AxiomCheck("made_up")
    failed.record(True, "first")
    failed.record(False, "r=[2]")
    failed.record(False, "r=[5]")
    real.checks.append(failed)
    twin = AxiomReport(real.samples, real.seed, [AxiomCheck(*c._fields()) for c in real.checks])
    assert real.to_dict() == {**asdict(twin), "passed": False}
    assert list(real.to_dict()) == ["samples", "seed", "checks", "passed"]


def assert_value_semantics(values, parent_hash, frozen=True):
    """Copies and pickles are equal with equal hashes; fields are frozen."""
    for x in values:
        assert hash(x) == parent_hash(x)
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)
            assert repr(y) == repr(x)
        assert (x == 0, x == (), x != 0) == (False, False, True)
        if frozen:
            for name in x.__match_args__:
                before = getattr(x, name)
                with pytest.raises(AttributeError):
                    setattr(x, name, before)
                with pytest.raises(AttributeError):
                    delattr(x, name)
                assert getattr(x, name) is before
    for a, b in product(values, repeat=2):
        if type(a) is not type(b):
            assert (a == b, a != b) == (False, True)


def _ring_values(mode):
    sd = build_skew(precision.PrecisionContext(3, 4, mode), 4)
    a = CoeffSeries(sd.ctx, (3, 1, 0, 2))
    f = sd.y(1) * sd.embed(CoeffSeries.x(sd.ctx)) + 5
    return sd, a, f


@pytest.mark.parametrize("mode", [INTEGRAL, CHARP])
def test_ring_values_copy_pickle_and_freeze(mode):
    sd, a, f = _ring_values(mode)
    b = a * a + CoeffSeries.x(sd.ctx)
    assert_value_semantics(
        [PadicInt(5, 2, 3), PadicInt(3, 7, 2), PadicInt(3, 0, 0)],
        lambda x: hash((x.p, x.residue, x.prec)),
    )
    assert_value_semantics([a, b, sd.embed(a).row(0)], lambda x: hash((x.ctx, x.coeffs)))
    assert_value_semantics([f, f * f, sd.embed(a), sd.one()], lambda x: hash((x.sd, x.rows)))
    assert_value_semantics([PadicInt(3, 1, 1), a, sd.embed(a), f, sd], hash, frozen=False)
    # a pickled series works over its rebuilt twist data
    g = pickle.loads(pickle.dumps(f))
    assert g.sd is not sd and g * g == f * f and g.inverse() == f.inverse()


@pytest.mark.parametrize("mode", [INTEGRAL, CHARP])
def test_skew_data_rebuilds_without_its_caches(mode):
    sd, a, _ = _ring_values(mode)
    sd.at_precision(6)
    p, K = sd.ctx.p, sd.ctx.K
    assert_value_semantics(
        [sd, build_skew(sd.ctx, 4 + p**K), build_skew(sd.ctx, 7)],
        lambda x: hash((x.ctx, x.epsilon_raw % p ** (K + EPSILON_GUARD))),
        frozen=False,
    )
    for y in (copy.copy(sd), copy.deepcopy(sd), pickle.loads(pickle.dumps(sd))):
        assert y is not sd and y.epsilon_raw == sd.epsilon_raw
        assert y._derived == {} and y._lock is not sd._lock
        assert y._sig_cols == sd._sig_cols
        assert y.opposite()._sig_cols == sd.opposite()._sig_cols
    dp = weierstrass.DistinguishedPoly(sd, 1, (a,))
    assert_value_semantics(
        [dp, pickle.loads(pickle.dumps(dp))], lambda x: hash((x.sd, x.degree, x.lower))
    )
    assert isinstance(pickle.loads(pickle.dumps(dp)).as_series(), SkewSeries)
