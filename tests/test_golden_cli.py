"""Replay the CLI transcript corpus: every byte of stdout and stderr, and the exit code.

The corpus runs ``cli.main`` in process. A sample of it also runs as a fresh
``python -m ontobot.cli`` process, so the exit code that reaches the shell,
the encoding of stdout and the one-line error on stderr are checked too.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_cli import CORPUS, cases, run_case, write_inputs
from ontobot import cli
from ontobot.fixtures import fixtures_dir, robots_path, vocabulary_path

RECORDED = json.loads(CORPUS.read_text(encoding="utf-8"))
GROUPS = sorted({case["name"].split("-")[0] for case in RECORDED})


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    write_inputs(root)
    return root


def test_corpus_covers_every_case():
    assert [(c["name"], c["argv"], c["env"]) for c in RECORDED] == [
        (c["name"], c["argv"], c["env"]) for c in cases()
    ]


@pytest.mark.parametrize("group", GROUPS)
def test_cli_output_matches_corpus(group, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    differing = {}
    for case in RECORDED:
        if case["name"].split("-")[0] == group:
            expected = {key: case[key] for key in ("exit", "stdout", "stderr")}
            got = run_case(case)
            if got != expected:
                differing[case["name"]] = (got, expected)
    assert not differing, f"{len(differing)} invocations differ: {sorted(differing)}\n" + "\n".join(
        f"{name}:\n  got      {got}\n  recorded {expected}" for name, (got, expected) in list(differing.items())[:3]
    )


# One case per command, cq 4 in every format, the packaged fixtures, and each exit code 1-4.
FRESH = (
    "fixtures-validate",
    "fixtures-cq-4---activity-Prepare_breakfast-table",
    "fixtures-cq-4---activity-Prepare_breakfast-csv",
    "fixtures-cq-4---activity-Prepare_breakfast-json",
    "fixtures-cq-6---matrix-table",
    "fixtures-query--f-cq1_object_affordances-csv",
    "blank-cq-2---activity-Prepare_breakfast-json",
    "defaults-cq4",
    "exit1-validate-cycle",
    "exit2-validate-parse-error",
    "exit2-validate-not-utf8",
    "exit2-cq2-chain-fork",
    "exit2-empty-fixtures-dir",
    "exit3-query-having",
    "exit4-cq-unknown-activity",
)


def run_fresh(
    argv: list[str], env: dict[str, str], cwd: Path, entry: tuple[str, ...] = ("-m", "ontobot.cli")
) -> dict:
    """Run ``python -m ontobot.cli`` (or another ``entry``) as a new process, with the ontobot these tests import."""
    full_env = {key: value for key, value in os.environ.items() if key != "ONTOBOT_FIXTURES"}
    full_env.update(PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), PYTHONIOENCODING="utf-8", **env)
    done = subprocess.run([sys.executable, *entry, *argv], cwd=cwd, env=full_env, capture_output=True)
    return {
        "exit": done.returncode,
        "stdout": done.stdout.decode("utf-8").splitlines(keepends=True),
        "stderr": done.stderr.decode("utf-8").splitlines(keepends=True),
    }


def test_fresh_process_matches_corpus(inputs):
    recorded = {case["name"]: case for case in RECORDED}
    assert {recorded[name]["exit"] for name in FRESH} == {0, 1, 2, 3, 4}
    for name in FRESH:
        case = recorded[name]
        expected = {key: case[key] for key in ("exit", "stdout", "stderr")}
        assert run_fresh(case["argv"], case["env"], inputs) == expected, name


@pytest.mark.parametrize("name", ["defaults-cq4", "exit4-cq-unknown-activity"])
def test_console_script_matches_corpus(inputs, name):
    # The installed ``ontobot`` script is pip's wrapper around the pyproject target,
    # ``sys.exit(target())``, so the target must import and return main's exit code.
    tomllib = pytest.importorskip("tomllib")  # 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["ontobot"]
    module, function = target.split(":")
    case = next(c for c in RECORDED if c["name"] == name)
    expected = {key: case[key] for key in ("exit", "stdout", "stderr")}
    entry = ("-c", f"import sys; from {module} import {function}; sys.exit({function}())")
    assert run_fresh(case["argv"], case["env"], inputs, entry) == expected


def test_fresh_process_validates_the_vocabulary_with_both_fixtures(inputs):
    argv = ["validate", str(vocabulary_path()), "fixtures/activities.ttl", "fixtures/robots.ttl"]
    assert run_fresh(argv, {}, inputs) == {
        "exit": 0, "stdout": ["OK: 573 triples, 0 violations, 0 warnings\n"], "stderr": []
    }


def test_fresh_process_fixtures_directory_gives_the_default_matrix(inputs):
    # The packaged directory holds the vocabulary file too; every *.ttl there loads, and no answer changes.
    default = run_fresh(["cq", "6", "--matrix"], {}, inputs)
    assert run_fresh(["cq", "6", "--matrix"], {"ONTOBOT_FIXTURES": str(fixtures_dir())}, inputs) == default
    assert default["stdout"] == next(c for c in RECORDED if c["name"] == "fixtures-cq-6---matrix-table")["stdout"]


@pytest.mark.parametrize(
    "name, text, code, message",
    [
        # The last statement loses its '.'.
        pytest.param("truncated.ttl", robots_path().read_text(encoding="utf-8")[:-2], 2, None, id="truncated-turtle"),
        # An unsupported feature with no '.' before it is still named.
        pytest.param("filter.rq", "PREFIX : <https://e.org/>\nSELECT ?x WHERE { ?x :p ?y FILTER (?y > 1) }\n", 3,
                     "ontobot: unsupported feature: FILTER\n", id="filter-without-dot"),
        # Two triple patterns need a '.' between them.
        pytest.param("nodot.rq", "PREFIX : <https://e.org/>\nSELECT ?x WHERE { ?x :p ?y ?z :q ?w }\n", 2, None,
                     id="patterns-without-dot"),
    ],
)
def test_fresh_process_error_is_one_line(tmp_path, name, text, code, message):
    (tmp_path / name).write_text(text, encoding="utf-8")
    argv = ["validate", name] if name.endswith(".ttl") else ["query", "-f", name]
    got = run_fresh(argv, {}, tmp_path)
    assert (got["exit"], got["stdout"], len(got["stderr"])) == (code, [], 1)
    assert got["stderr"][0].startswith("ontobot: ") and "Traceback" not in got["stderr"][0]
    if message is not None:
        assert got["stderr"] == [message]
