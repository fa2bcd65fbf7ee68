"""Every refusal of a bad argument raises its own exception type and message,
and the size bounds refuse before any work is done."""

from __future__ import annotations

import pytest

from skewseries import iwasawa
from skewseries.coeff import CoeffSeries
from skewseries.errors import (
    ContextMismatch, SchemaError, SubstitutionDiverges, SystemSingularAtPrecision,
)
from skewseries.iwasawa import (
    MAX_TOWER_LEVEL, ModuleSpec, descend_ideal, normal_witness, omega_tower_check, rank_growth,
    snf_rank,
)
from skewseries.precision import INTEGRAL, MAX_PRECISION, PadicInt, PrecisionContext
from skewseries.serialize import dump_distinguished, load_distinguished
from skewseries.skew import build_skew
from skewseries.weierstrass import DistinguishedPoly, divide_oracle


def _sd():
    return build_skew(PrecisionContext(3, 4, INTEGRAL), 4)


def _growth(M: int, guard: int = 2):
    return rank_growth(ModuleSpec(3, 1, ((3, 1),)), 3, M, guard)


def _divide_oracle_by_a_series_in_m():
    sd = _sd()
    return divide_oracle(sd.y(2), sd.embed(3) + sd.embed(3) * sd.y())


def _distinguished(**fields) -> dict:
    """A degree-2 distinguished polynomial's JSON with `fields` replaced."""
    sd = _sd()
    p = sd.ctx.p
    F = DistinguishedPoly(sd, 2, (sd.embed(p).row(0), sd.embed(0).row(0)))
    return {**dump_distinguished(F), **fields}


OTHER = PrecisionContext(5, 4)  # a context that _sd() does not have
MISMATCH = ("contexts differ: PrecisionContext(p=5, K=4, mode='integral') "
            "vs PrecisionContext(p=3, K=4, mode='integral')")

CASES = {
    "tower-n_max-below-1": (
        lambda: omega_tower_check(PrecisionContext(3, 4), 0),
        ValueError, "n_max must be >= 1",
    ),
    "tower-n_max-above-limit": (
        lambda: omega_tower_check(PrecisionContext(3, 4), MAX_TOWER_LEVEL + 1),
        ValueError, f"n_max must be <= {MAX_TOWER_LEVEL}",
    ),
    "normal-witness-negative-n": (
        lambda: normal_witness(_sd(), -1), ValueError, "n must be >= 0",
    ),
    # a coefficient over another context is refused before any other check:
    # even a zero one, and even where eps = 1 leaves no descent step
    "descend-zero-over-another-context": (
        lambda: descend_ideal(_sd(), [CoeffSeries.zero(OTHER)]),
        ContextMismatch, MISMATCH,
    ),
    "descend-degenerate-over-another-context": (
        lambda: descend_ideal(build_skew(_sd().ctx, 1), [CoeffSeries.one(OTHER)]),
        ContextMismatch, MISMATCH,
    ),
    "snf-mixed-entries": (
        lambda: snf_rank([[PadicInt(3, 1, 4), PadicInt(3, 1, 5)]]),
        ValueError, "matrix entries must share prime and precision",
    ),
    "snf-ragged-empty-row": (
        lambda: snf_rank([[PadicInt(3, 1, 2)], []]),
        ValueError, "matrix rows must have equal length",
    ),
    "snf-ragged-short-row": (
        lambda: snf_rank([[PadicInt(3, 1, 2), PadicInt(3, 3, 2)], [PadicInt(3, 2, 2)]]),
        ValueError, "matrix rows must have equal length",
    ),
    "distinguished-negative-s": (
        lambda: load_distinguished(_distinguished(s=-1)),
        SchemaError, "distinguished: degree s must be >= 0",
    ),
    "distinguished-lower-count": (
        lambda: load_distinguished(_distinguished(s=3)),
        SchemaError, "distinguished.lower: expected 3 coefficient vectors",
    ),
    "distinguished-lower-outside-m": (
        lambda: load_distinguished(_distinguished(lower=[["1", "0", "0", "0"]] * 2)),
        SchemaError, "distinguished: lower coefficients must lie in the maximal ideal",
    ),
    "series-row-out-of-range": (lambda: _sd().one().row(4), IndexError, "4"),
    "y-negative-power": (lambda: _sd().y(-1), ValueError, "power must be >= 0"),
    "series-plus-str": (lambda: _sd().y() + "x", TypeError, "expected SkewSeries, got str"),
    # an operand of no ring type is left to Python, which refuses it
    "coeff-plus-str": (
        lambda: CoeffSeries.x(_sd().ctx) + "x",
        TypeError, "unsupported operand type(s) for +: 'CoeffSeries' and 'str'",
    ),
    "coeff-minus-float": (
        lambda: CoeffSeries.x(_sd().ctx) - 1.5,
        TypeError, "unsupported operand type(s) for -: 'CoeffSeries' and 'float'",
    ),
    "series-times-float": (
        lambda: _sd().y() * 1.5,
        TypeError, "unsupported operand type(s) for *: 'SkewSeries' and 'float'",
    ),
    "float-times-series": (
        lambda: 1.5 * _sd().y(),
        TypeError, "unsupported operand type(s) for *: 'float' and 'SkewSeries'",
    ),
    "compose-outside-m": (
        lambda: CoeffSeries.x(_sd().ctx).compose(1 + CoeffSeries.x(_sd().ctx)),
        SubstitutionDiverges, "substituted series must lie in m",
    ),
    "divide-oracle-no-visible-unit": (
        _divide_oracle_by_a_series_in_m, SystemSingularAtPrecision,
        "no visible reduced order: the multiplication map has no unit pivot at this precision",
    ),
    "distinguished-poly-lower-count": (
        lambda: DistinguishedPoly(_sd(), 2, ()),
        ValueError, "need exactly `degree` lower coefficients",
    ),
    "context-K-above-limit": (
        lambda: PrecisionContext(3, MAX_PRECISION + 1),
        ValueError, f"K must be <= {MAX_PRECISION}",
    ),
    "lift-K-above-limit": (
        lambda: _sd().at_precision(MAX_PRECISION + 1),
        ValueError, f"K must be <= {MAX_PRECISION}",
    ),
    # rank_growth and coinvariant_rank share one (M, guard) check and its texts
    "growth-M-below-1": (
        lambda: _growth(0), ValueError, f"need precision 1 <= M <= {MAX_PRECISION}",
    ),
    "growth-M-above-limit": (
        lambda: _growth(MAX_PRECISION + 1),
        ValueError, f"need precision 1 <= M <= {MAX_PRECISION}",
    ),
    "growth-guard-below-1": (lambda: _growth(8, 0), ValueError, "guard must be >= 1"),
    # PadicInt refuses p < 2, where p**prec is no modulus; snf_rank refuses
    # a composite p, where a unit need not be invertible mod p**M
    "padic-p-zero": (lambda: PadicInt(0, 5, 2), ValueError, "p must be >= 2"),
    "padic-p-one": (lambda: PadicInt(1, 3, 2), ValueError, "p must be >= 2"),
    "padic-p-negative": (lambda: PadicInt(-3, 1, 2), ValueError, "p must be >= 2"),
    "padic-negative-prec": (lambda: PadicInt(3, 1, -1), ValueError, "prec must be >= 0"),
    "padic-plus-int": (lambda: PadicInt(3, 1, 2) + 1, TypeError, "expected PadicInt, got int"),
    "snf-composite-p": (
        lambda: snf_rank([[PadicInt(4, 2, 3)]]), ValueError, "p = 4 is not prime",
    ),
    "snf-composite-p-unit-entries": (
        lambda: snf_rank([[PadicInt(6, 1, 2), PadicInt(6, 5, 2)]]),
        ValueError, "p = 6 is not prime",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_refusal_type_and_message(case):
    call, exc, message = CASES[case]
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc
    assert str(info.value) == message


def test_tower_bound_refuses_before_any_level(monkeypatch):
    def no_level(*args):
        raise AssertionError("a tower level was computed")

    monkeypatch.setattr(iwasawa, "omega", no_level)
    with pytest.raises(ValueError, match="n_max must be <="):
        omega_tower_check(PrecisionContext(3, 4), MAX_TOWER_LEVEL + 1)


def test_context_bound_refuses_before_the_primality_test(monkeypatch):
    from skewseries import precision

    def no_test(n):
        raise AssertionError("the primality test ran")

    monkeypatch.setattr(precision, "_is_prime", no_test)
    with pytest.raises(ValueError, match="K must be <="):
        PrecisionContext(3, MAX_PRECISION + 1)


def test_snf_rank_tests_primality_once_before_elimination(monkeypatch):
    calls = []

    def counted(n):
        calls.append(n)
        return n != 4

    def no_elimination(*args):
        raise AssertionError("the Smith form ran")

    monkeypatch.setattr(iwasawa, "_is_prime", counted)
    assert snf_rank([[PadicInt(3, a + b, 4) for b in range(3)] for a in range(3)]).rank_at_precision == 1
    assert calls == [3]
    monkeypatch.setattr(iwasawa, "_smith_rank", no_elimination)
    with pytest.raises(ValueError, match="p = 4 is not prime"):
        snf_rank([[PadicInt(4, a * b + 1, 3) for b in range(3)] for a in range(3)])
    assert calls == [3, 4]
