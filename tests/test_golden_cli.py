"""Replay the CLI transcript corpus: every byte of stdout and stderr, and the exit code."""

from __future__ import annotations

import json

import pytest

from golden_cli import CORPUS, cases, run_case, write_inputs

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
