"""Fail when a line of the ``ontobot`` package never runs in the test suite.

Run from anywhere, with pytest installed: ``python tests/line_coverage.py [pytest options]``.
It traces every line of ``src/ontobot`` while pytest runs the whole suite in
this process. The tracer is set, for this thread and for threads started
later, before ``ontobot`` is imported, so import-time lines count too. Then
it takes each module's executable lines from its code objects
(``co_lines()``) and lists those that never ran, except the lines named in
``ALLOWED``. Exit status: pytest's, when the suite fails; otherwise 1 when a
line never ran or an allowlist entry names no line that never ran; else 0.

Standard library and pytest only. It writes nothing into the checkout: no
bytecode and no pytest cache. The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ontobot"

# (file under src/ontobot, source text of its lines) -> why no test in this process runs them.
ALLOWED: dict[tuple[str, tuple[str, ...]], str] = {
    ("cli.py", ("sys.exit(main())",)):
        "only `python -m ontobot.cli` runs it, in a new process: the golden corpus' fresh-process cases",
    ("graph.py", ("return self.kind == IRI", "return self.kind == LITERAL")):
        "Term.is_iri and Term.is_literal: only perfbench/ calls them",
}

ran: set[tuple[str, int]] = set()
_inside: dict[str, bool] = {}  # code object file name -> whether it lies in the package


def _trace_lines(frame, event, arg):
    if event == "line":
        ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _trace_lines


def _trace_calls(frame, event, arg):
    name = frame.f_code.co_filename
    inside = _inside.get(name)
    if inside is None:
        inside = _inside[name] = Path(name).resolve().is_relative_to(PACKAGE)
    return _trace_lines if inside else None


def executable_lines(code: CodeType) -> set[int]:
    """The line numbers of ``code`` and of every code object nested in it; a module's prologue is at line 0."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= executable_lines(const)
    return lines


def never_ran() -> dict[Path, dict[int, str]]:
    """Each module's lines that never ran, as line number -> stripped source text."""
    seen: dict[Path, set[int]] = {}
    for name, line in ran:
        seen.setdefault(Path(name).resolve(), set()).add(line)
    out: dict[Path, dict[int, str]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        texts = source.splitlines()
        missed = executable_lines(compile(source, str(path), "exec")) - seen.get(path, set())
        out[path] = {line: texts[line - 1].strip() for line in sorted(missed)}
    return out


def main(args: list[str]) -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(_trace_calls)
    sys.settrace(_trace_calls)
    import pytest  # after the tracer, so that a plugin importing ontobot is traced too

    code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT), str(ROOT / "tests"), *args])
    sys.settrace(None)
    threading.settrace(None)
    if code != 0:
        print(f"line coverage: the suite failed (pytest exit {code})")
        return int(code)
    failed = False
    missed = never_ran()
    for file, texts in ALLOWED:
        lines = missed[PACKAGE / file]
        for text in texts:
            allowed = [line for line, found in lines.items() if found == text]
            if not allowed:
                failed = True
                print(f"line coverage: stale allowlist entry, no line of {file} that never ran reads {text!r}")
            for line in allowed:
                del lines[line]
    for path, lines in missed.items():
        for line, text in lines.items():
            failed = True
            print(f"{path.relative_to(ROOT)}:{line}: never ran: {text}")
    print(f"line coverage: {'FAIL' if failed else 'OK'}, {len(missed)} modules, {len(ALLOWED)} allowlist entries")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
