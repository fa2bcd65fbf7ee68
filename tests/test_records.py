"""The records' one constructor, and that records stay declarative.

``_Record.__init__`` binds the fields named in ``__match_args__``, by
position or by keyword, and refuses a missing, unknown or doubled field
with TypeError, as the dataclasses these records replaced did.  A
record whose constructor checks or converts its arguments hands the
final values to ``super().__init__``; the source check below keeps it
so.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from skewseries.iwasawa import ModuleSpec, SNFResult, TowerEntry, TowerReport
from skewseries.precision import AtLeast, PadicInt, PrecisionContext
from skewseries.skew import AxiomCheck, AxiomReport

SRC = Path(__file__).resolve().parent.parent / "src" / "skewseries"

# SkewData sets caches outside __match_args__ in its own constructor
OWN_CONSTRUCTORS = {"SkewData"}

ENTRY = (1, True, False, True, False)


@pytest.mark.parametrize(
    "cls, args",
    [
        (AtLeast, (3,)),
        (TowerEntry, ENTRY),
        (TowerReport, (3, 4, 2, [TowerEntry(*ENTRY)], ["w"])),
        (SNFResult, ((0, AtLeast(4)), 1, False)),
        (PrecisionContext, (3, 4, "charp")),
        (PadicInt, (5, 27, 2)),
        (ModuleSpec, (3, 1, ((3, 1),), (2,))),
        (AxiomCheck, ("ring", 5, 1, "r=[1]")),
        (AxiomReport, (10, 1, [])),
    ],
)
def test_fields_by_position_or_keyword(cls, args):
    names = cls.__match_args__
    by_position = cls(*args)
    assert cls(**dict(zip(names, args))) == by_position
    assert cls(*args[:1], **dict(zip(names[1:], args[1:]))) == by_position
    assert cls(**dict(reversed(list(zip(names, args))))) == by_position


@pytest.mark.parametrize("cls, args", [(AtLeast, (3,)), (TowerEntry, ENTRY)])
def test_missing_unknown_or_doubled_fields_raise(cls, args):
    names = cls.__match_args__
    with pytest.raises(TypeError, match="missing"):
        cls(*args[:-1])
    with pytest.raises(TypeError, match="missing"):
        cls(**dict(zip(names[1:], args[1:])))
    with pytest.raises(TypeError, match=f"got {len(args) + 1} by position"):
        cls(*args, 0)
    with pytest.raises(TypeError, match=r"doubled or unknown \['extra'\]"):
        cls(*args, extra=0)
    with pytest.raises(TypeError, match=rf"doubled or unknown \[{names[0]!r}\]"):
        cls(*args, **{names[0]: args[0]})


def _record_classes() -> dict[str, tuple[str, ast.ClassDef]]:
    """Every class in src/ that derives from _Record, by name: (file, node)."""
    classes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (path.name, node)
    records = {"_Record"}
    grew = True
    while grew:
        grew = False
        for name, (_, node) in classes.items():
            bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
            if name not in records and bases & records:
                records.add(name)
                grew = True
    return {name: classes[name] for name in records - {"_Record"}}


def _calls_super_init(init: ast.FunctionDef) -> bool:
    return any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Attribute)
        and n.func.attr == "__init__"
        and isinstance(n.func.value, ast.Call)
        and isinstance(n.func.value.func, ast.Name)
        and n.func.value.func.id == "super"
        for n in ast.walk(init)
    )


def test_records_construct_through_record_init():
    records = _record_classes()
    assert {"_Frozen", "AtLeast", "SkewData", "SkewSeries", "AxiomReport"} <= set(records)
    for name, (file, node) in records.items():
        inits = [
            n for n in node.body if isinstance(n, ast.FunctionDef) and n.name == "__init__"
        ]
        if inits and name not in OWN_CONSTRUCTORS:
            assert _calls_super_init(inits[0]), f"{file}: {name}.__init__ skips super().__init__"
