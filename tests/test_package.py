"""The package's public names."""

from __future__ import annotations

import ast
import sys
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


def test_the_package_imports_only_the_standard_library():
    # ontobot installs with no dependencies, so every absolute import names itself or the standard library.
    sources = sorted(Path(ontobot.__file__).resolve().parent.rglob("*.py"))
    assert sources
    allowed = {"ontobot", "__future__", *sys.stdlib_module_names}
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names if name.partition(".")[0] not in allowed]
    assert outside == []
