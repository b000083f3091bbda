"""Replay the CQ2 pin corpus: each activity's plan order, or its exact ChainError message."""

from __future__ import annotations

from golden_chains import CORPUS, outcomes
from helpers import assert_outcomes_match_corpus


def test_task_plans_match_corpus():
    assert_outcomes_match_corpus(CORPUS, outcomes)
