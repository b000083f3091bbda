from __future__ import annotations

import pytest

from ontobot.fixtures import activities_path, robots_path
from ontobot.graph import Graph, merge_graphs
from ontobot.reasoner import KnowledgeBase
from ontobot.turtle import parse_turtle


@pytest.fixture(scope="session")
def activities() -> Graph:
    return parse_turtle(activities_path().read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def robots() -> Graph:
    return parse_turtle(robots_path().read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def union(activities: Graph, robots: Graph) -> Graph:
    return merge_graphs([activities, robots]).freeze()


@pytest.fixture(scope="session")
def kb(activities: Graph, robots: Graph) -> KnowledgeBase:
    return KnowledgeBase.load(activities, robots)
