"""The package imports lazily: each public name loads its module on first use."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewseries

SRC = Path(__file__).resolve().parent.parent / "src"

# The public names, as listed by hand before the package imported lazily.
PUBLIC = [
    "AtLeast", "AxiomReport", "CHARP", "CoeffSeries", "ContextMismatch",
    "DegenerateAction", "DistinguishedPoly", "GrowthResult", "INTEGRAL",
    "InternalPrecisionLoss", "InvalidAction", "MathematicalError", "ModuleSpec",
    "NotAUnit", "NotDivisible", "NotPreparable", "PadicInt",
    "PrecisionContext", "PrecisionError", "PrecisionInsufficient", "SNFResult",
    "SchemaError", "SkewData", "SkewSeries", "SkewSeriesError",
    "SubstitutionDiverges", "SystemSingularAtPrecision", "TowerReport",
    "VanishedAtPrecision", "build_skew", "canonical_json", "change_precision",
    "coinvariant_rank", "descend_ideal", "divide", "divide_oracle", "dump_coeff",
    "dump_distinguished", "dump_division_problem", "dump_module_spec",
    "dump_series", "dump_z_poly", "load_object", "normal_witness", "omega",
    "omega_tower_check", "prepare", "rank_growth", "read_json", "run_selfcheck",
    "snf_rank", "validate_axioms", "write_json_atomic", "xi",
]

# Imports the names of one module first, then every other public name, each
# with `from skewseries import X`, and checks each is its module's object.
FROM_IMPORTS = """
import importlib, sys
import skewseries
first = sys.argv[1]
names = sorted(skewseries.__all__, key=lambda n: skewseries._MODULE_OF[n] != first)
for name in names:
    ns = {}
    exec(f"from skewseries import {name}", ns)
    module = importlib.import_module("skewseries." + skewseries._MODULE_OF[name])
    assert ns[name] is getattr(module, name), name
print(len(names))
"""


def test_all_is_the_public_list():
    assert skewseries.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(skewseries))
    assert skewseries.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'skewseries' has no attribute 'no_such_name'"):
        skewseries.no_such_name  # noqa: B018
    assert not hasattr(skewseries, "no_such_name")


@pytest.mark.parametrize("first", sorted(skewseries._EXPORTS))
def test_every_public_name_imports_in_a_fresh_interpreter(first):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", FROM_IMPORTS, first], capture_output=True, text=True, env=env
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", f"{len(PUBLIC)}\n")
