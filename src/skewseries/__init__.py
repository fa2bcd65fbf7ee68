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
"""

from __future__ import annotations

from .coeff import CoeffSeries
from .errors import (
    ContextMismatch,
    DegenerateAction,
    InternalPrecisionLoss,
    InvalidAction,
    MathematicalError,
    NotAUnit,
    NotDivisible,
    NotPolynomial,
    NotPreparable,
    PrecisionError,
    PrecisionInsufficient,
    SchemaError,
    SkewSeriesError,
    SubstitutionDiverges,
    SystemSingularAtPrecision,
    VanishedAtPrecision,
)
from .iwasawa import (
    GrowthResult,
    ModuleSpec,
    SNFResult,
    TowerReport,
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
from .selfcheck import run_selfcheck
from .serialize import (
    canonical_json,
    dump_coeff,
    dump_distinguished,
    dump_division_problem,
    dump_module_spec,
    dump_series,
    dump_z_poly,
    load_object,
    read_json,
    write_json_atomic,
)
from .series import SkewSeries, change_precision
from .skew import AxiomReport, SkewData, build_skew, validate_axioms
from .weierstrass import DistinguishedPoly, divide, divide_oracle, prepare

__version__ = "0.1.0"

__all__ = [
    "AtLeast",
    "AxiomReport",
    "CHARP",
    "CoeffSeries",
    "ContextMismatch",
    "DegenerateAction",
    "DistinguishedPoly",
    "GrowthResult",
    "INTEGRAL",
    "InternalPrecisionLoss",
    "InvalidAction",
    "MathematicalError",
    "ModuleSpec",
    "NotAUnit",
    "NotDivisible",
    "NotPolynomial",
    "NotPreparable",
    "PadicInt",
    "PrecisionContext",
    "PrecisionError",
    "PrecisionInsufficient",
    "SNFResult",
    "SchemaError",
    "SkewData",
    "SkewSeries",
    "SkewSeriesError",
    "SubstitutionDiverges",
    "SystemSingularAtPrecision",
    "TowerReport",
    "VanishedAtPrecision",
    "build_skew",
    "canonical_json",
    "change_precision",
    "coinvariant_rank",
    "descend_ideal",
    "divide",
    "divide_oracle",
    "dump_coeff",
    "dump_distinguished",
    "dump_division_problem",
    "dump_module_spec",
    "dump_series",
    "dump_z_poly",
    "load_object",
    "normal_witness",
    "omega",
    "omega_tower_check",
    "prepare",
    "rank_growth",
    "read_json",
    "run_selfcheck",
    "snf_rank",
    "validate_axioms",
    "write_json_atomic",
    "xi",
]
