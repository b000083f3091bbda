"""Command-line interface: load KGs, validate, run queries, emit CQ reports.

Exit codes: 0 success, 1 validation violations, 2 I/O (output stdout cannot
encode included) or parse errors, or a ``cq 2`` order chain that cannot be
ordered, 3 unsupported query feature, 4 unknown entity (activity/robot label),
5 internal error: any other exception. Every error after the arguments
parse is one stderr line, ``ontobot: `` and its message, with a line break in
the message (from a label, an IRI or a path) written as ``\\n`` or ``\\r``.

When no ``-k`` files are given, graphs are loaded from the directory named
by the ``ONTOBOT_FIXTURES`` environment variable (every ``*.ttl`` in it,
sorted by name), falling back to the packaged fixture graphs.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from pathlib import Path
from typing import NamedTuple, Sequence

from ontobot import fixtures
from ontobot.graph import GraphError, Term
from ontobot.query import QueryParseError, UnsupportedFeatureError, evaluate, parse_query
from ontobot.reasoner import ChainError, KnowledgeBase, UnknownEntityError, load_graph
from ontobot.schema import validate
from ontobot.turtle import TurtleParseError, term_to_text

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_UNKNOWN_ENTITY = 4
EXIT_INTERNAL = 5
_EXIT_CODES = {UnsupportedFeatureError: EXIT_UNSUPPORTED, UnknownEntityError: EXIT_UNKNOWN_ENTITY}


class _Fail(Exception):
    """Bad input the CLI found itself: exit code 2."""


class ResultTable(NamedTuple):
    id: str
    columns: list[str]
    rows: list[list[object]]  # cells: str, bool, or list[str]


def _plain_cell(cell: object, fmt: str) -> str:
    if isinstance(cell, bool):
        if fmt == "table":
            return "✓" if cell else "✗"
        return "true" if cell else "false"
    if isinstance(cell, (list, tuple)):
        return ", ".join(str(item) for item in cell)
    return str(cell)


def render(table: ResultTable, fmt: str) -> str:
    # Each format imports its module only when it prints, so a fresh start loads neither.
    if fmt == "json":
        import json

        payload = {"id": table.id, "columns": table.columns, "rows": table.rows}
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        import csv

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([_plain_cell(cell, "csv") for cell in row])
        return buffer.getvalue()
    # A line break in a cell would split its row. A backslash is escaped first, so no two cells print alike.
    cells = [
        [_plain_cell(cell, "table").replace("\\", "\\\\").replace("\n", "\\n").replace("\r", "\\r") for cell in row]
        for row in table.rows
    ]
    widths = [len(name) for name in table.columns]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(name.ljust(widths[i]) for i, name in enumerate(table.columns)).rstrip(),
        "  ".join("-" * widths[i] for i in range(len(widths))).rstrip(),
    ]
    for row in cells:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())
    return "\n".join(lines) + "\n"


def _read_text(path: str | Path) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise _Fail(f"cannot read {path}: {exc.strerror or exc}")
    except UnicodeDecodeError as exc:
        raise _Fail(f"{path} is not valid UTF-8: {exc}")


def _kg_paths(args: argparse.Namespace) -> list[Path]:
    if args.kg:
        return [Path(p) for p in args.kg]
    env_dir = os.environ.get("ONTOBOT_FIXTURES")
    if env_dir:
        paths = sorted(Path(env_dir).glob("*.ttl"))
        if not paths:
            raise _Fail(f"no .ttl files found in ONTOBOT_FIXTURES directory {env_dir}")
        return paths
    return fixtures.default_kg_paths()


def cmd_validate(args: argparse.Namespace) -> int:
    graph = load_graph(args.files, read=_read_text)
    report = validate(graph)

    def describe(subject) -> str:
        terms = [subject] if isinstance(subject, Term) else subject
        return " ".join(term_to_text(term, graph.prefixes, escape=True) for term in terms)

    for item in report.violations:
        print(f"{item.rule}  {describe(item.subject)}  {item.message}")
    for item in report.warnings:
        print(f"{item.rule}  {describe(item.subject)}  warning: {item.message}")
    if report.ok:
        print(f"OK: {len(graph)} triples, 0 violations, {len(report.warnings)} warnings")
        return EXIT_OK
    print(f"FAIL: {len(report.violations)} violations, {len(report.warnings)} warnings")
    return EXIT_VIOLATIONS


def cmd_query(args: argparse.Namespace) -> int:
    union = load_graph(_kg_paths(args), infer=False, read=_read_text)
    try:
        query = parse_query(_read_text(args.query_file))
    except QueryParseError as exc:
        raise QueryParseError(exc.diagnostic, args.query_file) from None
    solutions = evaluate(query, union)
    prefixes = dict(union.prefixes)
    prefixes.update(query.prefixes)
    rows = [
        [term_to_text(solution[name], prefixes) for name in query.projection]
        for solution in solutions
    ]
    table = ResultTable(id="query", columns=list(query.projection), rows=rows)
    sys.stdout.write(render(table, args.output))
    return EXIT_OK


def _require(args: argparse.Namespace, name: str, cq: int) -> str:
    value = getattr(args, name)
    if value is None:
        raise _Fail(f"cq {cq} requires --{name}")
    return value


def _cq_table(kb: KnowledgeBase, args: argparse.Namespace) -> ResultTable:
    prefixes = kb.graph.prefixes
    text = lambda term: term_to_text(term, prefixes)
    cq = args.cq_id

    if cq == 1:
        pairs = kb.objects_and_affordances(_require(args, "activity", cq))
        rows = sorted([text(obj), text(aff)] for obj, aff in pairs)
        return ResultTable("cq1", ["object", "affordance"], rows)

    if cq == 2:
        plan = kb.task_plan(_require(args, "activity", cq))
        rows = [
            [text(plan.activity), procedure.label, step.label, action.label]
            for procedure in plan.procedures
            for step in procedure.steps
            for action in step.actions
        ]
        return ResultTable("cq2", ["activity", "procedure", "step", "action"], rows)

    if cq == 3:
        if args.activity is not None:
            activities = [kb.activity_by_label(args.activity)]
        else:
            activities = [activity for activity, _ in kb.activities()]
        rows = [
            [kb.label_of(activity), text(affordance)]
            for activity in activities
            for affordance in sorted(kb.required_affordances(activity))
        ]
        return ResultTable("cq3", ["activity", "affordance"], rows)

    if cq == 4:
        robots = kb.capable_robots(kb.activity_by_label(_require(args, "activity", cq)))
        rows = sorted([kb.label_of(robot)] for robot in robots)
        return ResultTable("cq4", ["robot"], rows)

    if cq == 5:
        robot = kb.agent_by_label(_require(args, "robot", cq))
        activities = kb.activities()
        ok = kb.can_execute_all(robot, [activity for activity, _ in activities])
        rows = [[kb.label_of(robot), [label for _, label in activities], ok]]
        return ResultTable("cq5", ["robot", "activities", "achievable"], rows)

    if args.matrix:
        matrix = kb.feasibility_matrix()
        columns = ["activity", "step"] + [label for _, label in matrix.robots]
        rows = []
        for activity, step, label in matrix.steps:
            row: list[object] = [kb.label_of(activity), label]
            row.extend(matrix.achievable(robot, step) for robot, _ in matrix.robots)
            rows.append(row)
        return ResultTable("cq6-matrix", columns, rows)

    report = kb.gap_report(_require(args, "robot", 6), kb.activity_by_label(_require(args, "activity", 6)))
    rows = [
        [
            step.label,
            sorted(text(a) for a in step.required),
            sorted(text(a) for a in step.missing),
            step.achievable,
        ]
        for step in report.steps
    ]
    return ResultTable("cq6", ["step", "required", "missing", "achievable"], rows)


def cmd_cq(args: argparse.Namespace) -> int:
    kb = KnowledgeBase(load_graph(_kg_paths(args), read=_read_text))
    table = _cq_table(kb, args)
    sys.stdout.write(render(table, args.output))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontobot",
        description="Load Turtle knowledge graphs, validate them, run queries, and answer competency questions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="structurally validate Turtle files")
    p_validate.add_argument("files", nargs="+", help="Turtle files to load and validate together")
    p_validate.set_defaults(func=cmd_validate)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("-k", "--kg", action="append", default=[], metavar="FILE.ttl",
                       help="knowledge-graph file (repeatable); default: $ONTOBOT_FIXTURES or packaged fixtures")
        p.add_argument("-o", "--output", choices=("table", "csv", "json"), default="table")

    p_query = sub.add_parser("query", help="evaluate a SELECT query over the loaded graphs")
    add_common(p_query)
    p_query.add_argument("-f", "--query-file", required=True, metavar="QUERY.rq")
    p_query.set_defaults(func=cmd_query)

    p_cq = sub.add_parser("cq", help="answer one of the six competency questions")
    p_cq.add_argument("cq_id", type=int, choices=range(1, 7), metavar="1-6")
    add_common(p_cq)
    p_cq.add_argument("--activity", help="activity label (CQ1-CQ4, CQ6)")
    p_cq.add_argument("--robot", help="robot label (CQ5, CQ6)")
    p_cq.add_argument("--matrix", action="store_true", help="CQ6: print the full robots-by-steps matrix")
    p_cq.set_defaults(func=cmd_cq)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    # UnicodeEncodeError: stdout (or the file system) cannot encode a character.
    except (_Fail, UnsupportedFeatureError, UnknownEntityError, QueryParseError, TurtleParseError,
            GraphError, ChainError, OSError, UnicodeEncodeError) as exc:
        message, code = str(exc), _EXIT_CODES.get(type(exc), EXIT_INPUT)
    except Exception as exc:  # a fault of the program: one line, not a traceback
        message, code = f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL
    # One line: backslashes stay as they are, so no message without a line break changes.
    print("ontobot: " + message.replace("\n", "\\n").replace("\r", "\\r"), file=sys.stderr)
    return code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
