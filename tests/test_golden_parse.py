"""Replay the parser pin corpus: each mutated input's exact error, or a digest of its result."""

from __future__ import annotations

from golden_parse import CORPUS, outcomes
from helpers import assert_outcomes_match_corpus


def test_parse_outcomes_match_corpus():
    assert_outcomes_match_corpus(CORPUS, outcomes)
