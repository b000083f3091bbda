"""Expected answers on the scaled graphs, and the checks that compare them.

``expected.json`` pins every answer on the packaged fixtures (k = 1);
``pin.py`` regenerates it. A scaled graph's answer is the pinned answer
mapped through the copy renaming of :mod:`kg`. Program results are turned
into rows of CLI cell text, so one comparison serves both the in-process
workloads and the CLI's table, csv and json output.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from kg import base_label, cell_text, rename_cell

PINNED_PATH = Path(__file__).resolve().parent / "expected.json"


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text(encoding="utf-8"))


def plain(cell) -> str:
    """A cell as the CLI's csv writer prints it."""
    if isinstance(cell, bool):
        return "true" if cell else "false"
    if isinstance(cell, (list, tuple)):
        return ", ".join(str(item) for item in cell)
    return str(cell)


class Expected:
    """Answers for a graph made of the copies ``ids``."""

    def __init__(self, pinned: dict, ids):
        self.pinned = pinned
        self.ids = tuple(ids)

    # -- competency questions, as rows of cell text -------------------------

    def cq1(self, activity: str, cid: int) -> list[list[str]]:
        rows = self.pinned["activities"][activity]["cq1"]
        return sorted([rename_cell(o, cid), a] for o, a in rows)

    def cq2(self, activity: str, cid: int) -> list[list[str]]:
        rows = self.pinned["activities"][activity]["cq2"]
        return [[rename_cell(cell, cid) for cell in row] for row in rows]

    def cq3(self, activity: str) -> list[str]:
        return sorted(self.pinned["activities"][activity]["cq3"])

    def cq4(self, activity: str) -> list[list[str]]:
        """Sorted ``[robot cell, robot label]`` of every capable robot copy."""
        robots = self.pinned["activities"][activity]["cq4"]
        return sorted([rename_cell(r, c), rename_cell(label, c)] for r, label in robots for c in self.ids)

    def cq5(self, robot: str) -> bool:
        return self.pinned["robots"][robot]["cq5"]

    def cq6(self, robot: str, activity: str, cid: int) -> list[list[str]]:
        rows = self.pinned["cq6"][robot][activity]
        return sorted(
            [rename_cell(step, cid), plain(sorted(req)), plain(sorted(miss)), plain(ok)]
            for step, req, miss, ok in rows
        )

    def matrix_cell(self, step_label: str, robot_label: str) -> bool:
        return self.pinned["matrix"][base_label(step_label)][base_label(robot_label)]

    def matrix_size(self) -> tuple[int, int]:
        robots = len(self.pinned["robots"]) * len(self.ids)
        steps = len(self.pinned["matrix"]) * len(self.ids)
        return robots, steps

    def inferred_triples(self) -> int:
        return self.pinned["inferred_triples_per_copy"] * len(self.ids)

    # -- packaged queries ---------------------------------------------------

    def query(self, name: str, cid: int) -> tuple[list[str], list[tuple[str, ...]]]:
        """Columns and sorted distinct rows of a packaged query on these copies.

        A query with label constants is pointed at copy ``cid`` and answers
        for that copy alone; an unbound query answers for every copy, with
        rows that name only shared terms collapsing under DISTINCT.
        """
        spec = self.pinned["queries"][name]
        copies = (cid,) if spec["bound"] else self.ids
        rows = {tuple(rename_cell(cell, c) for cell in row) for row in spec["rows"] for c in copies}
        return spec["columns"], sorted(rows)


# -- program results as rows -------------------------------------------------


def rows_cq1(pairs) -> list[list[str]]:
    return sorted([cell_text(o), cell_text(a)] for o, a in pairs)


def rows_cq2(plan) -> list[list[str]]:
    return [
        [procedure.label, step.label, action.label]
        for procedure in plan.procedures
        for step in procedure.steps
        for action in step.actions
    ]


def rows_cq6(report) -> list[list[str]]:
    return sorted(
        [
            step.label,
            plain(sorted(cell_text(a) for a in step.required)),
            plain(sorted(cell_text(a) for a in step.missing)),
            plain(step.achievable),
        ]
        for step in report.steps
    )


def matrix_ok(matrix, expected: Expected) -> bool:
    robots, steps = expected.matrix_size()
    if len(matrix.robots) != robots or len(matrix.steps) != steps:
        return False
    return all(
        matrix.achievable(robot, step) == expected.matrix_cell(step_label, robot_label)
        for robot, robot_label in matrix.robots
        for _, step, step_label in matrix.steps
    )


# -- CLI output ----------------------------------------------------------------


def parse_output(text: str, fmt: str) -> tuple[list[str], list[list[str]]]:
    """Columns and rows of a rendered CLI table, every cell as csv text."""
    if fmt == "json":
        payload = json.loads(text)
        return payload["columns"], [[plain(cell) for cell in row] for row in payload["rows"]]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        return rows[0], rows[1:]
    lines = text.splitlines()
    starts, pos = [], 0
    for dashes in lines[1].split("  "):
        starts.append(pos)
        pos += len(dashes) + 2
    ends = starts[1:] + [None]

    def cells(line: str) -> list[str]:
        return [line[a:b].strip() for a, b in zip(starts, ends)]

    table = {"✓": "true", "✗": "false"}
    return cells(lines[0]), [[table.get(c, c) for c in cells(line)] for line in lines[2:]]
