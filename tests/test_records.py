"""The public result records: construction, repr, equality, hashing, immutability."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path
from types import MappingProxyType

import pytest

from ontobot.cli import ResultTable
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
    report = FeasibilityReport(A, "HSR", B, "breakfast", (done, short))
    assert report.missing == frozenset({B}) and not report.achievable
    assert FeasibilityReport(A, "HSR", B, "breakfast", (done,)).achievable
    matrix = FeasibilityMatrix(((A, "HSR"),), ((B, A, "grasp"), (B, B, "pour")), {(A, A): True, (A, B): False})
    assert matrix.achievable(A, A) and not matrix.achievable(A, B)


def after_cli_import(expression: str) -> str:
    """What ``expression`` prints in a fresh process, right after ``import ontobot.cli``."""
    # -S keeps site-packages .pth files from importing any module first.
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = f"import sys; sys.path.insert(0, {src!r}); import ontobot.cli; print({expression})"
    result = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True, check=True)
    return result.stdout.strip()


def loaded_by_cli_import(names: set[str]) -> str:
    """Those of ``names`` that a fresh ``import ontobot.cli`` loads, as a sorted list's repr."""
    return after_cli_import(f"sorted({names!r} & set(sys.modules))")


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    assert loaded_by_cli_import({"dataclasses", "inspect"}) == "[]"


def test_cli_import_loads_neither_json_nor_csv():
    # Each output format imports its module when it renders.
    assert loaded_by_cli_import({"json", "csv"}) == "[]"


def test_cli_import_compiles_no_lexer_pattern():
    # Compiling a dialect's lexer costs about 1 ms, which a command that parses nothing need not pay.
    patterns = "ontobot.turtle._lexer, ontobot.turtle._escape_pattern"
    assert after_cli_import(f"[f.cache_info().currsize for f in ({patterns})]") == "[0, 0]"
