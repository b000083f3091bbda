"""The public result records: construction, repr, equality, hashing, immutability; and what a fresh import loads."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest

import ontobot
from ontobot.cli import ResultTable
from ontobot.graph import Triple
from ontobot.namespaces import EX
from ontobot.query import Query, TriplePattern, Var
from ontobot.reasoner import (
    CapabilityChain,
    CapabilityProfile,
    FeasibilityMatrix,
    FeasibilityReport,
    PlanAction,
    PlanProcedure,
    PlanStep,
    StepFeasibility,
    TaskPlan,
)
from ontobot.schema import ValidationReport, Violation
from ontobot.turtle import ParseDiagnostic

A, B = EX.a, EX.b
FROZEN, MUTABLE, UNHASHABLE = "frozen", "mutable", "unhashable"

# (type, keyword arguments in field order, expected repr, kind). FROZEN types hash as
# the tuple of their fields; UNHASHABLE ones are frozen but hold a mapping.
_CASES = [
    (
        Triple,
        dict(s=A, p=B, o=A),
        "Triple(s=Term(<https://example.org/a>), p=Term(<https://example.org/b>), o=Term(<https://example.org/a>))",
        FROZEN,
    ),
    (Var, dict(name="x"), "Var(name='x')", FROZEN),
    (
        TriplePattern,
        dict(s=Var("x"), p=A, o=B),
        "TriplePattern(s=Var(name='x'), p=Term(<https://example.org/a>), o=Term(<https://example.org/b>))",
        FROZEN,
    ),
    (
        Violation,
        dict(rule="R1", subject=Triple(A, B, A), message="no"),
        "Violation(rule='R1', subject=Triple(s=Term(<https://example.org/a>), p=Term(<https://example.org/b>), "
        "o=Term(<https://example.org/a>)), message='no')",
        FROZEN,
    ),
    (
        CapabilityChain,
        dict(node=A, message=B, capability=A),
        "CapabilityChain(node=Term(<https://example.org/a>), message=Term(<https://example.org/b>), "
        "capability=Term(<https://example.org/a>))",
        FROZEN,
    ),
    (
        ParseDiagnostic,
        dict(line=3, column=7, message="expected '.'"),
        "ParseDiagnostic(line=3, column=7, message=\"expected '.'\")",
        FROZEN,
    ),
    (
        Query,
        dict(prefixes={"": EX.base}, projection=["x"], distinct=False, pattern=[TriplePattern(Var("x"), A, B)]),
        "Query(prefixes={'': 'https://example.org/'}, projection=['x'], distinct=False, "
        "pattern=[TriplePattern(s=Var(name='x'), p=Term(<https://example.org/a>), o=Term(<https://example.org/b>))])",
        MUTABLE,
    ),
    (
        ValidationReport,
        dict(violations=[Violation("R4", A, "no label")], warnings=[]),
        "ValidationReport(violations=[Violation(rule='R4', subject=Term(<https://example.org/a>), "
        "message='no label')], warnings=[])",
        MUTABLE,
    ),
    (
        PlanAction,
        dict(action=A, label="grasp", target=None, affordances=frozenset({B})),
        "PlanAction(action=Term(<https://example.org/a>), label='grasp', target=None, "
        "affordances=frozenset({Term(<https://example.org/b>)}))",
        FROZEN,
    ),
    (
        PlanStep,
        dict(step=A, label="fetch", actions=()),
        "PlanStep(step=Term(<https://example.org/a>), label='fetch', actions=())",
        FROZEN,
    ),
    (
        PlanProcedure,
        dict(procedure=A, label="serve", steps=()),
        "PlanProcedure(procedure=Term(<https://example.org/a>), label='serve', steps=())",
        FROZEN,
    ),
    (
        TaskPlan,
        dict(activity=A, label="breakfast", procedures=()),
        "TaskPlan(activity=Term(<https://example.org/a>), label='breakfast', procedures=())",
        FROZEN,
    ),
    (
        CapabilityProfile,
        dict(robot=A, label="TIAGo", affordances=frozenset({B}),
             provenance=MappingProxyType({B: (CapabilityChain(A, A, A),)})),
        "CapabilityProfile(robot=Term(<https://example.org/a>), label='TIAGo', "
        "affordances=frozenset({Term(<https://example.org/b>)}), "
        "provenance=mappingproxy({Term(<https://example.org/b>): (CapabilityChain(node=Term(<https://example.org/a>), "
        "message=Term(<https://example.org/a>), capability=Term(<https://example.org/a>)),)}))",
        UNHASHABLE,
    ),
    (
        StepFeasibility,
        dict(step=A, label="pour", required=frozenset({B}), missing=frozenset()),
        "StepFeasibility(step=Term(<https://example.org/a>), label='pour', "
        "required=frozenset({Term(<https://example.org/b>)}), missing=frozenset())",
        FROZEN,
    ),
    (
        FeasibilityReport,
        dict(robot=A, robot_label="HSR", activity=B, activity_label="breakfast", steps=()),
        "FeasibilityReport(robot=Term(<https://example.org/a>), robot_label='HSR', "
        "activity=Term(<https://example.org/b>), activity_label='breakfast', steps=())",
        FROZEN,
    ),
    (
        FeasibilityMatrix,
        dict(robots=((A, "HSR"),), steps=((B, B, "pour"),), cells={(A, B): True}),
        "FeasibilityMatrix(robots=((Term(<https://example.org/a>), 'HSR'),), "
        "steps=((Term(<https://example.org/b>), Term(<https://example.org/b>), 'pour'),), "
        "cells={(Term(<https://example.org/a>), Term(<https://example.org/b>)): True})",
        UNHASHABLE,
    ),
    (
        ResultTable,
        dict(id="cq4", columns=["robot"], rows=[["TIAGo"]]),
        "ResultTable(id='cq4', columns=['robot'], rows=[['TIAGo']])",
        MUTABLE,
    ),
]


@pytest.mark.parametrize("cls, fields, expected_repr, kind", _CASES, ids=[case[0].__name__ for case in _CASES])
def test_record_behaviour(cls, fields, expected_repr, kind):
    record = cls(**fields)
    assert repr(record) == expected_repr
    assert cls._fields == tuple(fields)
    assert not hasattr(record, "__dict__")  # no per-record dict: each class keeps __slots__ empty
    assert record == cls(**fields)
    assert record == cls(*fields.values())
    assert [getattr(record, name) for name in fields] == list(fields.values())
    if kind == FROZEN:
        assert hash(record) == hash(tuple(fields.values()))
    if kind == UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    if kind != MUTABLE:
        first = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(record, first, fields[first])


def test_record_methods():
    assert str(ParseDiagnostic(3, 7, "expected '.'")) == "line 3, column 7: expected '.'"
    assert ValidationReport([], [Violation("R3", A, "no target")]).ok
    assert not ValidationReport([Violation("R4", A, "no label")], []).ok
    done = StepFeasibility(A, "grasp", frozenset({A}), frozenset())
    short = StepFeasibility(B, "pour", frozenset({A, B}), frozenset({B}))
    assert done.achievable and not short.achievable
    matrix = FeasibilityMatrix(((A, "HSR"),), ((B, A, "grasp"), (B, B, "pour")), {(A, A): True, (A, B): False})
    assert matrix.achievable(A, A) and not matrix.achievable(A, B)


def after_cli_import(expression: str, statement: str = "import ontobot.cli") -> str:
    """What ``expression`` prints in a fresh process, right after ``statement``."""
    # -S keeps site-packages .pth files from importing any module first.
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = f"import sys; sys.path.insert(0, {src!r}); {statement}; print({expression})"
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, encoding="utf-8", check=True)
    return result.stdout.strip()


def loaded_by_cli_import(names: set[str], statement: str = "import ontobot.cli") -> str:
    """Those of ``names`` that a fresh ``statement`` loads, as a sorted list's repr."""
    return after_cli_import(f"sorted({names!r} & set(sys.modules))", statement)


LAYERS = {f"ontobot.{name}" for name in ("cli", "fixtures", "graph", "namespaces", "query", "reasoner", "schema",
                                         "turtle")}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert loaded_by_cli_import({"dataclasses", "inspect"}) == "[]"


def test_cli_import_loads_neither_json_nor_csv():
    # Each output format imports its module when it renders.
    assert loaded_by_cli_import({"json", "csv"}) == "[]"


def test_cli_import_compiles_no_lexer_pattern():
    # Compiling a dialect's lexer costs about 1 ms, which a command that parses nothing need not pay.
    # The escape and IRI-body patterns are compiled through _pattern on first use too.
    patterns = "ontobot.turtle._lexer, ontobot.turtle._pattern"
    assert after_cli_import(f"[f.cache_info().currsize for f in ({patterns})]") == "[0, 0]"


def test_cli_import_loads_no_query_layer():
    # Only `ontobot query` runs the query layer, and it imports it when it runs: cq and validate never load it.
    assert loaded_by_cli_import({"ontobot.query", "heapq"}) == "[]"


def test_package_import_loads_a_layer_when_one_of_its_names_is_first_read():
    assert loaded_by_cli_import(LAYERS, "import ontobot") == "[]"
    assert loaded_by_cli_import(LAYERS, "import ontobot; dir(ontobot)") == "[]"
    assert loaded_by_cli_import(LAYERS, "import ontobot; ontobot.Term") == "['ontobot.graph']"
    assert loaded_by_cli_import(LAYERS, "from ontobot import validate") == (
        "['ontobot.graph', 'ontobot.namespaces', 'ontobot.schema']"
    )


def test_package_dir_covers_every_public_name_and_an_unknown_name_raises():
    assert after_cli_import("sorted(set(ontobot.__all__) - set(dir(ontobot)))", "import ontobot") == "[]"
    assert set(ontobot.__all__) <= set(dir(ontobot))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(ontobot, "no_such_name")
    # A subpackage is no public name, so the import system finds it.
    assert after_cli_import("fixtures.__name__", "from ontobot import fixtures") == "ontobot.fixtures"
