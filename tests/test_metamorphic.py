"""Metamorphic relations of the query output over the packaged knowledge graphs.

An RDF graph is a set of triples, and an IRI names a node without ordering it,
so neither the order of a file's statements nor the spelling of its IRIs is data
that an answer may depend on beyond what README documents. Each relation here
rewrites both fixture files, runs every packaged query through
``ontobot query -o csv``, and compares with the output over the files as shipped:

- shuffling the triple statements, the ``@prefix`` lines kept first, leaves
  every output byte-identical;
- renaming every ``https://example.org/`` IRI changes the rows only by the
  renaming. A renaming may change the sort order, so rows compare as multisets.

The statement splitter and the IRI renamer read the Turtle text themselves:
they share no code with the parser or the serializer whose output they check.
"""

from __future__ import annotations

import csv
import io
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from ontobot.cli import main
from ontobot.fixtures import activities_path, queries_dir, robots_path

_EX = "https://example.org/"
# A string, an IRI, a comment, a statement's closing '.', or any other run of text.
_PIECE = re.compile(r'(?P<string>"(?:[^"\\\n]|\\.)*")|(?P<iri><[^>\s]*>)|(?P<comment>#[^\n]*)|(?P<end>\.(?=\s|\Z))'
                    r'|(?P<other>[^"<#.]+|\.)')
_LOCAL = re.compile(r"(?<![\w-]):(\w+)")  # a name in the default prefix, which both files bind to _EX
_QUERIES = sorted(queries_dir().glob("*.rq"))


def split_statements(text: str) -> list[str]:
    """Each statement of a Turtle text, up to and including its closing '.', with comments left out."""
    statements: list[str] = []
    current: list[str] = []
    for piece in _PIECE.finditer(text):
        if piece.lastgroup != "comment":
            current.append(piece.group())
        if piece.lastgroup == "end":
            statements.append("".join(current).strip())
            current = []
    assert not "".join(current).strip(), "text after the last statement"
    return statements


def shuffled(text: str, rng: random.Random) -> str:
    """The statements in a random order, the ``@prefix`` lines first in their written order."""
    statements = split_statements(text)
    prefixes = [s for s in statements if s.startswith("@prefix")]
    triples = [s for s in statements if not s.startswith("@prefix")]
    rng.shuffle(triples)
    return "\n".join(prefixes + triples) + "\n"


def renamed_local(local: str) -> str:
    """A new local name: reversed, so names sort in another order, and prefixed, so it stays a name."""
    return "r" + local[::-1]


def rename(text: str) -> str:
    """Every ``https://example.org/`` IRI renamed, as ``:local`` or in angle brackets; strings left alone."""
    out: list[str] = []
    for piece in _PIECE.finditer(text):
        part = piece.group()
        if piece.lastgroup == "other":
            part = _LOCAL.sub(lambda m: ":" + renamed_local(m.group(1)), part)
        elif piece.lastgroup == "iri" and part.startswith("<" + _EX) and part != f"<{_EX}>":
            part = f"<{_EX}{renamed_local(part[len(_EX) + 1:-1])}>"
        out.append(part)
    return "".join(out)


def rename_cell(cell: str) -> str:
    """A CSV cell as the renaming writes it: a ``:local`` name renamed, any other cell as it was."""
    match = re.fullmatch(r":(\w+)", cell)
    return ":" + renamed_local(match.group(1)) if match else cell


def query_outputs(capsys, paths: list[Path]) -> dict[str, str]:
    """Each packaged query's ``query -o csv`` output over the given files."""
    outputs = {}
    kg = [arg for path in paths for arg in ("-k", str(path))]
    for query in _QUERIES:
        assert main(["query", *kg, "-f", str(query), "-o", "csv"]) == 0
        captured = capsys.readouterr()
        assert not captured.err
        outputs[query.stem] = captured.out
    return outputs


def rows(output: str) -> list[tuple[str, ...]]:
    return [tuple(row) for row in csv.reader(io.StringIO(output))]


@pytest.fixture(scope="module")
def fixture_texts() -> list[str]:
    return [path.read_text(encoding="utf-8") for path in (activities_path(), robots_path())]


def test_queries_name_no_renamed_iri():
    # The renaming rewrites only the knowledge graphs, so no query may name an IRI it renames.
    for query in _QUERIES:
        assert "example.org" not in query.read_text(encoding="utf-8"), query.stem


def test_splitter_keeps_every_statement(fixture_texts):
    for text in fixture_texts:
        statements = split_statements(text)
        assert all(s.endswith(".") for s in statements)
        # Each statement is one subject's block: it starts at a line start of the file, unindented.
        assert all(s.startswith(("@prefix", ":")) for s in statements), [s[:20] for s in statements]
        assert len(statements) == sum(1 for line in text.splitlines() if line[:1] not in ("", " ", "#"))


def test_renaming_rewrites_names_and_leaves_strings(fixture_texts):
    text = fixture_texts[0]
    assert rename(':kitchen a obot:Environment ; rdfs:label "Kitchen :x" .') == (
        ':rnehctik a obot:Environment ; rdfs:label "Kitchen :x" .'
    )
    assert rename(f"<{_EX}bowl> <{_EX}> .") == f"<{_EX}rlwob> <{_EX}> ."
    assert rename(text).count(":rnehctik") == text.count(":kitchen ") + text.count(":kitchen\n")


def test_query_output_keeps_to_statement_order_and_iri_renaming(capsys, tmp_path, fixture_texts):
    expected = query_outputs(capsys, [activities_path(), robots_path()])
    assert all(len(rows(output)) > 1 for output in expected.values())
    paths = [tmp_path / "activities.ttl", tmp_path / "robots.ttl"]
    reordered = set()
    for seed in range(10):
        rng = random.Random(seed)
        texts = [shuffled(text, rng) for text in fixture_texts]
        assert [split_statements(text) for text in texts] != [split_statements(text) for text in fixture_texts]
        for path, text in zip(paths, texts):
            path.write_text(text, encoding="utf-8")
        assert query_outputs(capsys, paths) == expected, seed
        for path, text in zip(paths, texts):
            path.write_text(rename(text), encoding="utf-8")
        for name, output in query_outputs(capsys, paths).items():
            header, *body = rows(output)
            expected_header, *expected_body = rows(expected[name])
            renamed = [tuple(map(rename_cell, row)) for row in expected_body]
            assert header == expected_header and Counter(body) == Counter(renamed), (name, seed)
            if body != renamed:
                reordered.add(name)
    # The renaming reorders some answers, so a byte comparison would not hold for it.
    assert reordered
