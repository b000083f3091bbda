"""Fail when a branch of the ``ontobot`` package goes only one way in the test suite.

Run from anywhere, on Python 3.12 or 3.13 with pytest importable:
``python tests/branch_coverage.py [pytest options]``. It records every
``sys.monitoring`` BRANCH event (PEP 669) of ``src/ontobot`` while pytest runs
the whole suite in this process, set up before ``ontobot`` is imported, so
import-time branches count too. A branch is a conditional jump; each event
names the instruction and where it went. A branch that always went to the
same place is listed with its line and where it went, except the lines named
in ``ALLOWED``. A branch that never ran is left to ``line_coverage.py``.
Exit status: 2 before Python 3.12, which has no ``sys.monitoring``; pytest's,
when the suite fails; otherwise 1 when a branch went one way only or an
allowlist entry names no such branch; else 0. Python 3.14 splits BRANCH into
BRANCH_LEFT and BRANCH_RIGHT, which this script does not read.

Standard library and pytest only. It writes nothing into the checkout: no
bytecode and no pytest cache. The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import linecache
import sys
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ontobot"

# (file under src/ontobot, source text of a branch's line) -> why no test in this process takes its other way.
ALLOWED: dict[tuple[str, str], str] = {
    ("cli.py", 'if __name__ == "__main__":'):
        "only `python -m ontobot.cli` takes it, in a new process: the golden corpus' fresh-process cases",
    ("cli.py", "args = _parse_args(sys.argv[1:] if argv is None else argv)"):
        "only the console script passes no argv, in a new process: CI's installed-script step",
    ("cli.py", "except SystemExit as exc:"):
        "argparse raises nothing but SystemExit, so the arm always matches",
    ("cli.py", 'with open(path, "r", encoding="utf-8") as handle:'):
        "the with statement's exit test: a file's __exit__ never suppresses an exception",
    ("cli.py", "except Exception as exc:  # a fault of the program: one line, not a traceback"):
        "only a BaseException that is neither an Exception nor a KeyboardInterrupt skips it, and no command raises one",
    ("schema.py", "while stack:"):
        "both loops push a node before they test the stack, so the first test is always true",
    ("turtle.py", "except ValueError as exc:"):
        "_unescape raises nothing but ValueError, so the arm always matches",
    ("turtle.py", 'while tokens[i] == ";":'):
        "the loop is entered only at a ';', so its first test is always true",
    ("turtle.py", 'fresh = (f"_:b{n}" for n in count() if f"b{n}" not in blanks)'):
        "count() never ends, so the generator's loop never exits",
}

taken: dict[tuple[CodeType, int], set[int]] = {}
_inside: dict[str, bool] = {}  # code object file name -> whether it lies in the package


def _branch(code: CodeType, offset: int, destination: int):
    name = code.co_filename
    inside = _inside.get(name)
    if inside is None:
        inside = _inside[name] = Path(name).resolve().is_relative_to(PACKAGE)
    if not inside:
        return sys.monitoring.DISABLE  # no further events from this instruction
    taken.setdefault((code, offset), set()).add(destination)
    return None


def position(code: CodeType, offset: int) -> tuple[int, str]:
    """The source line of the instruction at ``offset`` and the code it tests, read from ``co_positions()``."""
    line, end_line, column, end_column = list(code.co_positions())[offset // 2]  # one position per 2-byte unit
    text = linecache.getline(code.co_filename, line)
    return line, text[column:end_column] if end_line == line and column is not None else text.strip()


def one_way() -> dict[Path, list[tuple[int, str, str, int]]]:
    """Each module's branches that went one way only: (line, its stripped text, the code it tests, the line it
    went to)."""
    out: dict[Path, list[tuple[int, str, str, int]]] = {}
    for (code, offset), destinations in taken.items():
        if len(destinations) == 1:
            line, tested = position(code, offset)
            text = linecache.getline(code.co_filename, line).strip()
            went = position(code, next(iter(destinations)))[0]
            out.setdefault(Path(code.co_filename).resolve(), []).append((line, text, tested, went))
    return {path: sorted(set(found)) for path, found in sorted(out.items())}


def main(args: list[str]) -> int:
    if sys.version_info < (3, 12):
        print("branch coverage: needs sys.monitoring, Python 3.12 or later")
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    tool, events = sys.monitoring.COVERAGE_ID, sys.monitoring.events
    sys.monitoring.use_tool_id(tool, "branch_coverage")
    sys.monitoring.register_callback(tool, events.BRANCH, _branch)
    sys.monitoring.set_events(tool, events.BRANCH)
    import pytest  # after the callback, so that a plugin importing ontobot is recorded too

    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), str(ROOT / "tests"), *args])
    finally:
        sys.monitoring.set_events(tool, events.NO_EVENTS)
        sys.monitoring.free_tool_id(tool)
    if code != 0:
        print(f"branch coverage: the suite failed (pytest exit {code})")
        return int(code)
    failed = False
    found = one_way()
    for file, text in ALLOWED:
        branches = found.get(PACKAGE / file, [])
        if not any(seen == text for _, seen, _, _ in branches):
            failed = True
            print(f"branch coverage: stale allowlist entry, no branch of {file} that went one way reads {text!r}")
        found[PACKAGE / file] = [branch for branch in branches if branch[1] != text]
    for path, branches in found.items():
        for line, text, tested, went in branches:
            failed = True
            print(f"{path.relative_to(ROOT)}:{line}: `{tested}` always went to line {went}: {text}")
    print(f"branch coverage: {'FAIL' if failed else 'OK'}, {len(taken)} branches run, {len(ALLOWED)} allowlist entries")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
