"""Regenerate ``expected.json``: every answer on the packaged fixtures.

Run from the repository root: ``python3 perfbench/pin.py``. The answers
come from the program at k = 1 and are checked here against the values the
acceptance suite pins (CQ3-CQ6) and, for the packaged queries, against a
nested-loop evaluation written in this file. Rerun it only when a fixture
or a packaged query changes on purpose.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, "src")
sys.path.insert(0, str(Path(__file__).resolve().parent))

from answers import PINNED_PATH, rows_cq1, rows_cq2  # noqa: E402
from kg import QUERIES, cell_text, rename_copy, scaled_kg  # noqa: E402
from ontobot.query import Var, evaluate, parse_query  # noqa: E402
from ontobot.reasoner import KnowledgeBase  # noqa: E402
from ontobot.turtle import parse_turtle  # noqa: E402

SIX = ["soma:Closing", "soma:Grasping", "soma:Holding", "soma:Opening", "soma:Placing", "soma:Pouring"]


def nested_loop(query, triples) -> set[tuple[str, ...]]:
    """Distinct projected rows of a basic graph pattern, by brute force."""
    bindings = [{}]
    for pattern in query.pattern:
        extended = []
        for binding in bindings:
            for triple in triples:
                new = dict(binding)
                for slot, value in zip(pattern, triple):
                    if isinstance(slot, Var):
                        if new.setdefault(slot.name, value) != value:
                            break
                    elif slot != value:
                        break
                else:
                    extended.append(new)
        bindings = extended
    return {tuple(cell_text(b[name]) for name in query.projection) for b in bindings}


def main() -> None:
    copy = scaled_kg(1, 0)
    (cid,) = copy.ids
    unsuffix = lambda cell: cell.replace(f"_{cid}", "").replace(f" {cid}", "")  # noqa: E731
    graphs = [parse_turtle(copy.activities), parse_turtle(copy.robots)]
    kb = KnowledgeBase.load(*graphs)
    assert kb.report.ok and not kb.report.warnings
    robots = sorted(kb.agents(), key=lambda pair: pair[1])
    activities = sorted(kb.activities(), key=lambda pair: pair[1])

    pinned: dict = {
        "triples_per_copy": sum(len(g) for g in graphs),
        "inferred_triples_per_copy": len(kb.graph),
        "activities": {},
        "robots": {},
        "cq6": {},
        "matrix": {},
        "queries": {},
    }
    for activity, label in activities:
        capable = sorted(kb.capable_robots(activity), key=kb.label_of)
        pinned["activities"][unsuffix(label)] = {
            "iri": unsuffix(cell_text(activity)),
            "cq1": [[unsuffix(c) for c in row] for row in rows_cq1(kb.objects_and_affordances(activity))],
            "cq2": [[unsuffix(c) for c in row] for row in rows_cq2(kb.task_plan(activity))],
            "cq3": sorted(cell_text(a) for a in kb.required_affordances(activity)),
            "cq4": [[unsuffix(cell_text(r)), unsuffix(kb.label_of(r))] for r in capable],
        }
    everything = [activity for activity, _ in activities]
    for robot, label in robots:
        name = unsuffix(label)
        pinned["robots"][name] = {"cq5": kb.can_execute_all(robot, everything)}
        pinned["cq6"][name] = {
            unsuffix(activity_label): [
                [unsuffix(step.label), sorted(cell_text(a) for a in step.required),
                 sorted(cell_text(a) for a in step.missing), step.achievable]
                for step in kb.gap_report(robot, activity).steps
            ]
            for activity, activity_label in activities
        }
    matrix = kb.feasibility_matrix()
    for _, step, step_label in matrix.steps:
        pinned["matrix"][unsuffix(step_label)] = {
            unsuffix(robot_label): matrix.achievable(robot, step) for robot, robot_label in matrix.robots
        }

    triples = list(kb.graph)
    for path in sorted(QUERIES.glob("*.rq")):
        text = path.read_text(encoding="utf-8")
        query = parse_query(rename_copy(text, cid))
        rows = nested_loop(query, triples)
        program = {tuple(cell_text(s[name]) for name in query.projection) for s in evaluate(query, kb.graph)}
        assert rows == program, path.name
        pinned["queries"][path.stem] = {
            "columns": list(query.projection),
            "bound": any(getattr(t, "is_literal", False) for pattern in query.pattern for t in pattern),
            "rows": sorted([unsuffix(c) for c in row] for row in rows),
        }

    # The values tests/test_acceptance.py pins for criteria 3-6.
    acts = pinned["activities"]
    assert acts["Prepare breakfast"]["cq3"] == SIX
    assert acts["Reorganise the kitchen"]["cq3"] == [a for a in SIX if a != "soma:Pouring"]
    assert [label for _, label in acts["Prepare breakfast"]["cq4"]] == ["TIAGo"]
    assert sorted(label for _, label in acts["Reorganise the kitchen"]["cq4"]) == ["HSR", "TIAGo"]
    assert {name: r["cq5"] for name, r in pinned["robots"].items()} == {
        "TIAGo": True, "HSR": False, "UR3": False, "Stretch": False}
    assert pinned["matrix"] == {
        "Retrieve tableware": {"TIAGo": True, "HSR": True, "UR3": False, "Stretch": False},
        "Retrieve food": {"TIAGo": True, "HSR": True, "UR3": False, "Stretch": False},
        "Serve food": {"TIAGo": True, "HSR": False, "UR3": True, "Stretch": False},
        "Put away food": {"TIAGo": True, "HSR": True, "UR3": False, "Stretch": False},
        "Load dishwasher": {"TIAGo": True, "HSR": True, "UR3": False, "Stretch": False},
    }
    assert len(pinned["queries"]["cq6_step_affordances"]["rows"]) == 56

    PINNED_PATH.write_text(json.dumps(pinned, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"wrote {PINNED_PATH.name}: {len(pinned['queries'])} queries, {len(robots)} robots, {len(activities)} activities")


if __name__ == "__main__":
    main()
