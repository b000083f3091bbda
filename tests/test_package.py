"""The package's public names."""

from __future__ import annotations

from pathlib import Path

import pytest

import ontobot
from ontobot.fixtures import fixtures_dir

REMOVED = (
    "isomorphic",
    "expand",
    "UndeclaredPrefixError",
    "parse_turtle_file",
    "parse_query_file",
    "vocabulary_graph",
    "Vocabulary",
    "ONTOBOT_VOCABULARY",
    "Solution",
)


def test_star_import_exports_every_public_name_and_no_removed_one():
    namespace: dict[str, object] = {}
    exec("from ontobot import *", namespace)
    for name in ontobot.__all__:
        assert namespace[name] is getattr(ontobot, name)
    for name in REMOVED:
        assert name not in ontobot.__all__
        assert name not in namespace


def test_every_fixture_file_matches_a_package_data_glob():
    # A file no glob selects is left out of the wheel, and the packaged defaults break only once installed.
    tomllib = pytest.importorskip("tomllib")  # 3.11 and later
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    globs = tomllib.loads(pyproject.read_text(encoding="utf-8"))["tool"]["setuptools"]["package-data"]["ontobot"]
    package = fixtures_dir().parent
    selected = {path for pattern in globs for path in package.glob(pattern)}
    shipped = [*fixtures_dir().rglob("*.ttl"), *fixtures_dir().rglob("*.rq")]
    assert shipped
    assert [path for path in shipped if path not in selected] == []
