"""Exact arithmetic in skew power series rings over p-adic coefficient rings.

The ambient ring is A = R[[Y; sigma, delta]] where R is Z_p[[X]] (mode
"integral") or F_p[[X]] (mode "charp"), the twist is sigma(r)(X) =
r((1+X)^epsilon - 1) with epsilon = 1 mod p, and delta = sigma - id.
Elements are stored by their canonical digits modulo the filtration ideal
G_K, so every arithmetic result is exact in the quotient A / G_K.

On top of the ring arithmetic the package provides Weierstrass division
and preparation, cyclotomic tower elements with normality witnesses,
ideal descent, coinvariant rank growth accounting, strict JSON
serialization, and a command-line interface (``skewseries``).

Imports are lazy (PEP 562): each public name loads its module on first
access, so a process loads only the modules it uses.
"""

from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it exports
_EXPORTS = {
    "coeff": ("CoeffSeries",),
    "errors": (
        "ContextMismatch", "DegenerateAction", "InternalPrecisionLoss",
        "InvalidAction", "MathematicalError", "NotAUnit", "NotDivisible",
        "NotPolynomial", "NotPreparable", "PrecisionError",
        "PrecisionInsufficient", "SchemaError", "SkewSeriesError",
        "SubstitutionDiverges", "SystemSingularAtPrecision", "VanishedAtPrecision",
    ),
    "growth": ("GrowthResult",),
    "iwasawa": (
        "ModuleSpec", "SNFResult", "TowerReport",
        "coinvariant_rank", "descend_ideal", "normal_witness", "omega",
        "omega_tower_check", "rank_growth", "snf_rank", "xi",
    ),
    "precision": ("CHARP", "INTEGRAL", "AtLeast", "PadicInt", "PrecisionContext"),
    "selfcheck": ("run_selfcheck",),
    "serialize": (
        "canonical_json", "dump_coeff", "dump_distinguished",
        "dump_division_problem", "dump_module_spec", "dump_series",
        "dump_z_poly", "load_object", "read_json", "write_json_atomic",
    ),
    "series": ("SkewSeries", "change_precision"),
    "skew": ("AxiomReport", "SkewData", "build_skew", "validate_axioms"),
    "weierstrass": ("DistinguishedPoly", "divide", "divide_oracle", "prepare"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
