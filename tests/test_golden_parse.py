"""Replay the parser pin corpus: each mutated input's exact error, or a digest of its result."""

from __future__ import annotations

import json

from golden_parse import CORPUS, outcomes


def test_parse_outcomes_match_corpus():
    recorded = json.loads(CORPUS.read_text(encoding="utf-8"))
    got = outcomes()
    assert list(got) == list(recorded)
    differing = [name for name in recorded if got[name] != recorded[name]]
    assert not differing, f"{len(differing)} of {len(recorded)} outcomes differ\n" + "\n".join(
        f"{name}:\n  got      {got[name]}\n  recorded {recorded[name]}" for name in differing[:3]
    )
