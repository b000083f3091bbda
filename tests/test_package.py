"""The package's public names."""

from __future__ import annotations

import ontobot

REMOVED = ("isomorphic", "expand", "UndeclaredPrefixError", "parse_turtle_file", "parse_query_file")


def test_star_import_exports_every_public_name_and_no_removed_one():
    namespace: dict[str, object] = {}
    exec("from ontobot import *", namespace)
    for name in ontobot.__all__:
        assert namespace[name] is getattr(ontobot, name)
    for name in REMOVED:
        assert name not in ontobot.__all__
        assert name not in namespace
