"""README's examples run as written: each Python block, and each `$ ontobot ...` example of its CLI section."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

import branch_coverage
import line_coverage
from ontobot.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def blocks(language: str, text: str = README) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL)


def cli_examples() -> list[tuple[str, str]]:
    """(command line, expected stdout) for each `$ ontobot` line of the CLI section's shell blocks."""
    section = README.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in blocks("sh", section):
        for example in re.split(r"\n\n(?=\$ )", block.rstrip("\n")):
            if example.startswith("$ ontobot "):
                command, _, output = example.partition("\n")
                examples.append((command[2:], output + "\n"))
    return examples


@pytest.mark.parametrize("source", blocks("python"), ids=lambda source: source.splitlines()[0])
def test_python_block_runs(source):
    exec(compile(source, "README.md", "exec"), {})


def test_readme_has_the_examples_it_is_checked_for():
    assert len(blocks("python")) == 2
    assert [command.split()[:3] for command, _ in cli_examples()] == [
        ["ontobot", "cq", "4"], ["ontobot", "cq", "6"], ["ontobot", "query", "-f"]
    ]


@pytest.mark.parametrize("command, expected", cli_examples(), ids=[command for command, _ in cli_examples()])
def test_cli_example_prints_what_readme_shows(monkeypatch, capsys, command, expected):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("ONTOBOT_FIXTURES", raising=False)
    argv, _, pipe = command.partition(" | ")
    assert main(shlex.split(argv)[1:]) == 0
    out = capsys.readouterr().out
    if pipe:
        assert pipe.startswith("head -"), pipe
        out = "".join(out.splitlines(keepends=True)[: int(pipe.removeprefix("head -"))])
    if "-o csv" in argv:
        expected = expected.replace("\n", "\r\n")  # the csv module ends each row with CRLF, shown as a line end
    assert out == expected


def test_readme_states_how_many_entries_each_coverage_allowlist_has():
    numbers = "zero one two three four five six seven eight nine ten eleven twelve".split()
    stated = re.findall(r"its allowlist names (\w+)\s+(groups of lines|branches)", README)
    assert stated == [(numbers[len(line_coverage.ALLOWED)], "groups of lines"),
                      (numbers[len(branch_coverage.ALLOWED)], "branches")]
