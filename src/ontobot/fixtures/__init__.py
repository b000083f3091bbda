"""Packaged knowledge-graph fixtures and competency-question queries.

``activities.ttl`` describes the kitchen environment, its components and
their affordances, and the two activities ("Prepare breakfast",
"Reorganise the kitchen") decomposed into procedures, ordered steps, and
ordered atomic actions. ``robots.ttl`` describes the four robots (TIAGo,
HSR, UR3, Stretch) and the node/communication/message/capability chains
through which their capabilities enable affordances.
``ontobot-vocab.ttl`` is the OntoBOT vocabulary: its classes, properties
and subclass axioms. It loads beside instance files, e.g.
``KnowledgeBase.load(vocabulary_path(), activities_path(), robots_path())``;
``parse_turtle(vocabulary_path().read_text(encoding="utf-8"))`` gives it as
a graph. ``queries/`` holds the six competency questions as query files.
"""

from __future__ import annotations

from pathlib import Path


def fixtures_dir() -> Path:
    return Path(__file__).resolve().parent


def activities_path() -> Path:
    return fixtures_dir() / "activities.ttl"


def robots_path() -> Path:
    return fixtures_dir() / "robots.ttl"


def vocabulary_path() -> Path:
    return fixtures_dir() / "ontobot-vocab.ttl"


def queries_dir() -> Path:
    return fixtures_dir() / "queries"


def query_path(name: str) -> Path:
    if not name.endswith(".rq"):
        name += ".rq"
    return queries_dir() / name


def default_kg_paths() -> list[Path]:
    return [activities_path(), robots_path()]
