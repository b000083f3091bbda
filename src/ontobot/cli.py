"""Command-line interface: load KGs, validate, run queries, emit CQ reports.

Exit codes: 0 success, 1 validation violations, 2 I/O (a closed stdout and
output it cannot encode included) or parse errors, or a ``cq 2`` order chain
that cannot be ordered, 3 unsupported query feature, 4 unknown entity
(activity/robot label), 5 internal error: any other exception, 130
interrupted (Ctrl-C). Every error after the arguments parse is one stderr
line, ``ontobot: `` and its message, with a line break in the message (from
a label, an IRI or a path) written as ``\\n`` or ``\\r``.

A call builds only the argument parser of the command it names, the one the
full parser would hand that command. A call that names no command, or leaves
arguments over, goes to the full parser, so help and usage errors read as
they always did. A command's own options and its query file are checked
before any graph is read: ``cq`` refuses a missing option, then an option
given that its question does not read.

When no ``-k`` files are given, graphs are loaded from the directory named
by the ``ONTOBOT_FIXTURES`` environment variable (every ``*.ttl`` in it,
sorted by name), falling back to the packaged fixture graphs.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from collections import namedtuple
from pathlib import Path
from typing import Sequence

from ontobot import fixtures
from ontobot.graph import GraphError, Term
from ontobot.reasoner import ChainError, KnowledgeBase, UnknownEntityError, load_graph
from ontobot.schema import validate
from ontobot.turtle import QueryParseError, TurtleParseError, UnsupportedFeatureError, term_to_text

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3
EXIT_UNKNOWN_ENTITY = 4
EXIT_INTERNAL = 5
_EXIT_CODES = {UnsupportedFeatureError: EXIT_UNSUPPORTED, UnknownEntityError: EXIT_UNKNOWN_ENTITY}


class _Fail(Exception):
    """Bad input the CLI found itself: exit code 2."""


class ResultTable(namedtuple("ResultTable", "id columns rows")):
    """One answer as printed: its ``id``, ``columns`` (names) and ``rows`` (lists of str, bool or list[str] cells)."""

    __slots__ = ()


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
    except ValueError as exc:  # open() refuses a path holding a NUL byte
        raise _Fail(f"cannot read {path}: {exc}")


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
    from ontobot.query import evaluate, parse_query  # only this command loads the query layer

    try:
        query = parse_query(_read_text(args.query_file))
    except QueryParseError as exc:
        raise QueryParseError(exc.diagnostic, args.query_file) from None
    union = load_graph(_kg_paths(args), infer=False, read=_read_text)
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


def _cq_table(kb: KnowledgeBase, args: argparse.Namespace) -> ResultTable:
    prefixes = kb.graph.prefixes
    text = lambda term: term_to_text(term, prefixes)
    cq = args.cq_id

    if cq == 1:
        pairs = kb.objects_and_affordances(args.activity)
        rows = sorted([text(obj), text(aff)] for obj, aff in pairs)
        return ResultTable("cq1", ["object", "affordance"], rows)

    if cq == 2:
        plan = kb.task_plan(args.activity)
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
        robots = kb.capable_robots(args.activity)
        rows = sorted([kb.label_of(robot)] for robot in robots)
        return ResultTable("cq4", ["robot"], rows)

    if cq == 5:
        robot = kb.agent_by_label(args.robot)
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

    report = kb.gap_report(args.robot, args.activity)
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


# Per question: the options it needs, in the order they are checked, and the options it reads.
_CQ_OPTIONS = {
    "cq 1": (("activity",), {"activity"}),
    "cq 2": (("activity",), {"activity"}),
    "cq 3": ((), {"activity"}),
    "cq 4": (("activity",), {"activity"}),
    "cq 5": (("robot",), {"robot"}),
    "cq 6": (("robot", "activity"), {"robot", "activity"}),
    "cq 6 --matrix": ((), {"matrix"}),
}


def cmd_cq(args: argparse.Namespace) -> int:
    # A missing option, then one given that the question does not read, is refused before any graph is read.
    question = f"cq {args.cq_id}" + (" --matrix" if args.cq_id == 6 and args.matrix else "")
    needs, reads = _CQ_OPTIONS[question]
    for name in needs:
        if getattr(args, name) is None:
            raise _Fail(f"{question} requires --{name}")
    for name in ("activity", "robot", "matrix"):
        if name not in reads and getattr(args, name) not in (None, False):
            raise _Fail(f"{question} does not take --{name}")
    kb = KnowledgeBase(load_graph(_kg_paths(args), read=_read_text))
    table = _cq_table(kb, args)
    sys.stdout.write(render(table, args.output))
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("-k", "--kg", action="append", default=[], metavar="FILE.ttl",
                   help="knowledge-graph file (repeatable); default: $ONTOBOT_FIXTURES or packaged fixtures")
    p.add_argument("-o", "--output", choices=("table", "csv", "json"), default="table")


def _validate_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("files", nargs="+", help="Turtle files to load and validate together")
    p.set_defaults(func=cmd_validate)


def _query_arguments(p: argparse.ArgumentParser) -> None:
    _add_common(p)
    p.add_argument("-f", "--query-file", required=True, metavar="QUERY.rq")
    p.set_defaults(func=cmd_query)


def _cq_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("cq_id", type=int, choices=range(1, 7), metavar="1-6")
    _add_common(p)
    p.add_argument("--activity", help="activity label (CQ1-CQ4, CQ6)")
    p.add_argument("--robot", help="robot label (CQ5, CQ6)")
    p.add_argument("--matrix", action="store_true", help="CQ6: print the full robots-by-steps matrix")
    p.set_defaults(func=cmd_cq)


_COMMANDS = {
    "validate": ("structurally validate Turtle files", _validate_arguments),
    "query": ("evaluate a SELECT query over the loaded graphs", _query_arguments),
    "cq": ("answer one of the six competency questions", _cq_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ontobot",
        description="Load Turtle knowledge graphs, validate them, run queries, and answer competency questions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=summary))
    return parser


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    if argv and argv[0] in _COMMANDS:
        parser = argparse.ArgumentParser(prog=f"ontobot {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        args, extra = parser.parse_known_args(argv[1:])
        if not extra:  # else the full parser reports them, under its own usage line
            return args
    return build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if sys.stdout is None:  # file descriptor 1 was closed at start, so no answer could be printed
            raise _Fail("cannot write output: stdout is closed")
        return args.func(args)
    # UnicodeEncodeError: stdout (or the file system) cannot encode a character.
    except (_Fail, UnsupportedFeatureError, UnknownEntityError, QueryParseError, TurtleParseError,
            GraphError, ChainError, OSError, UnicodeEncodeError) as exc:
        message, code = str(exc), _EXIT_CODES.get(type(exc), EXIT_INPUT)
    except KeyboardInterrupt:
        message, code = "interrupted", 130  # 128 + SIGINT
    except Exception as exc:  # a fault of the program: one line, not a traceback
        message, code = f"internal error: {type(exc).__name__}: {exc}", EXIT_INTERNAL
    # One line: backslashes stay as they are, so no message without a line break changes.
    print("ontobot: " + message.replace("\n", "\\n").replace("\r", "\\r"), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
