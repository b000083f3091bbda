from __future__ import annotations

import importlib
import random
import re
import time
from collections import Counter

import pytest

from helpers import isomorphic, random_graph
from ontobot.fixtures import activities_path, robots_path
from ontobot.graph import Graph, GraphError, Triple, blank, iri, literal
from ontobot.namespaces import OBOT, RDF, RDFS, SOMA
from ontobot.turtle import (
    TurtleParseError,
    _StatementParser,
    _escape_pattern,
    _lexer,
    parse_turtle,
    serialize_turtle,
    term_to_text,
)

PREFIX_HEADER = """\
@prefix : <https://example.org/> .
@prefix obot: <https://w3id.org/onto-bot#> .
@prefix soma: <http://www.ease-crc.org/ont/SOMA.owl#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
"""


def diag(text: str):
    with pytest.raises(TurtleParseError) as excinfo:
        parse_turtle(text)
    return excinfo.value.diagnostic


def test_empty_document():
    g = parse_turtle("")
    assert len(g) == 0
    assert g.frozen


def test_single_statement_hand_expansion():
    # Expansion per the W3C grammar, worked out by hand and frozen here.
    text = "@prefix obot: <https://w3id.org/onto-bot#> . <https://example.org/d> a obot:Component ."
    g = parse_turtle(text)
    expected = Triple(
        iri("https://example.org/d"),
        iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type"),
        iri("https://w3id.org/onto-bot#Component"),
    )
    assert set(g) == {expected}


def test_object_and_predicate_lists_hand_expansion():
    milk, cup, v = iri("https://example.org/milk"), iri("https://example.org/cup"), iri("https://example.org/v")
    b0, b1 = blank("b0"), blank("b1")
    xsd_string = "http://www.w3.org/2001/XMLSchema#string"
    cases = [
        (
            ':milk obot:hasAffordance soma:Grasping , soma:Holding ; rdfs:label "Milk" .',
            [
                (milk, OBOT.hasAffordance, SOMA.Grasping),
                (milk, OBOT.hasAffordance, SOMA.Holding),
                (milk, RDFS.label, literal("Milk")),
            ],
        ),
        ("<https://example.org/milk> <https://example.org/v> :cup .", [(milk, v, cup)]),
        # A blank label names the same node wherever it is used in the document.
        ("_:b :v _:b , _:c . :cup :v _:b .", [(b0, v, b0), (b0, v, b1), (cup, v, b0)]),
        (
            ":milk :v :cup ; a soma:Grasping ; ; rdfs:label :cup ; .",
            [(milk, v, cup), (milk, RDF.type, SOMA.Grasping), (milk, RDFS.label, cup)],
        ),
        (
            ':milk rdfs:label "Milch"@de , "Milk"^^<http://www.w3.org/2001/XMLSchema#string> , "plain" .',
            [
                (milk, RDFS.label, literal("Milch", lang="de")),
                (milk, RDFS.label, literal("Milk", datatype=xsd_string)),
                (milk, RDFS.label, literal("plain")),
            ],
        ),
        # A rebound prefix resolves afresh, both for a pname read before and one first read after.
        (
            "@prefix e: <https://e.org/a#> . :milk e:p :cup . @prefix e: <https://e.org/b#> . :milk e:p e:q .",
            [(milk, iri("https://e.org/a#p"), cup), (milk, iri("https://e.org/b#p"), iri("https://e.org/b#q"))],
        ),
    ]
    for text, expected in cases:
        assert set(parse_turtle(PREFIX_HEADER + text)) == {Triple(*t) for t in expected}, text


def test_abbreviated_and_expanded_forms_parse_identically():
    abbreviated = PREFIX_HEADER + ':milk obot:hasAffordance soma:Grasping , soma:Holding ; rdfs:label "Milk" .'
    expanded = PREFIX_HEADER + (
        ":milk obot:hasAffordance soma:Grasping .\n"
        ":milk obot:hasAffordance soma:Holding .\n"
        ':milk rdfs:label "Milk" .\n'
    )
    assert set(parse_turtle(abbreviated)) == set(parse_turtle(expanded))


def test_comments_and_bom_and_trailing_semicolon():
    text = "﻿# leading comment\n" + PREFIX_HEADER + ':milk rdfs:label "Milk" ; # trailing\n .'
    g = parse_turtle(text)
    assert len(g) == 1


def test_literal_forms():
    text = (
        '@prefix : <https://example.org/> .\n'
        '@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n'
        '@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n'
        ':a rdfs:label "plain" , "tagged"@en-GB , "typed"^^xsd:string , "esc\\"aped\\n"^^<http://www.w3.org/2001/XMLSchema#string> .'
    )
    g = parse_turtle(text)
    objects = {t.o for t in g}
    assert objects == {
        literal("plain"),
        literal("tagged", lang="en-GB"),
        literal("typed", datatype="http://www.w3.org/2001/XMLSchema#string"),
        literal('esc"aped\n', datatype="http://www.w3.org/2001/XMLSchema#string"),
    }


def test_plain_literal_distinct_from_explicit_xsd_string():
    text = (
        '@prefix : <https://example.org/> .\n'
        '@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n'
        '@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n'
        ':a rdfs:label "x" , "x"^^xsd:string .'
    )
    assert len(parse_turtle(text)) == 2


def test_blank_labels_are_document_scoped():
    text = '@prefix : <https://example.org/> .\n_:n :p _:n . _:m :p _:n .'
    g = parse_turtle(text)
    g2 = parse_turtle(text)
    assert isomorphic(g, g2)
    labels = {t.value for triple in g for t in (triple.s, triple.o) if t.is_blank}
    assert labels == {"b0", "b1"}  # fresh graph-scoped labels, not _:n/_:m


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        pytest.param('@prefix : <https://example.org/> .\n:a :b "oops .', 2, 7, "unterminated string", id="unterminated-string"),
        # Variables and '*' belong to the query dialect only.
        pytest.param("@prefix : <https://e.org/> .\n?x :b :c .", 2, 1, "unexpected character: '?'", id="variable"),
        pytest.param("@prefix : <https://e.org/> .\n:a :b * .", 2, 7, "unexpected character: '*'", id="star"),
        # The document is lexed before it is parsed: the missing '.' on line 2
        # is not reported ahead of the unterminated string on line 3.
        pytest.param('@prefix : <https://e.org/> .\n:a :b :c\n:d :e "oops', 3, 7, "unterminated string", id="lexical-before-syntax"),
        # '²' passes str.isdigit() but is no digit of a numeric literal.
        pytest.param("@prefix : <https://e.org/> . :a :b ² .", 1, 36, "unexpected character: '²'", id="superscript-digit"),
        pytest.param("@prefix : <https://e.org/> . :a :b +² .", 1, 36, "unexpected character: '+'", id="signed-superscript-digit"),
        # Escapes must name Unicode scalar values: nothing above U+10FFFF, no surrogate halves.
        pytest.param("@prefix : <https://e.org/> .\n:a :b <https://e.org/\\U0011FFFF> .", 2, 7, "invalid \\U escape", id="escape-above-10ffff"),
        pytest.param('@prefix : <https://e.org/> .\n:a :b "\\uD800" .', 2, 7, "invalid \\u escape", id="escape-surrogate"),
        # A statement cut off at the end of the input.
        pytest.param("@prefix : <https://e.org/> .\n:a :b", 2, 6, "expected an object, found end of input", id="cut-off-object"),
        pytest.param("@prefix : <https://e.org/> .\n:a", 2, 3, "expected a predicate, found end of input", id="cut-off-predicate"),
        # Term faults no fixture reaches, and every message _unescape raises.
        pytest.param('@prefix : <https://e.org/> .\n:a :b "x"^^_:d .', 2, 12, "expected a datatype IRI after '^^'", id="blank-datatype"),
        pytest.param("@prefix : <https://e.org/> .\n:a _:b :c .", 2, 4, "blank node not allowed in predicate position", id="blank-predicate"),
        pytest.param("@prefix : <https://e.org/> .\n:a :b <https://e.org/a\\> .", 2, 7, "dangling escape", id="dangling-escape"),
        pytest.param("@prefix : <https://e.org/> .\n:a :b <https://e.org/\\u12G4> .", 2, 7, "invalid \\u escape", id="u-not-hex"),
        pytest.param('@prefix : <https://e.org/> .\n:a :b "\\u12" .', 2, 7, "invalid \\u escape", id="u-cut-short"),
        pytest.param("@prefix : <https://e.org/> .\n:a :b <https://e.org/\\uD800> .", 2, 7, "invalid \\u escape", id="u-surrogate"),
        pytest.param("@prefix : <https://e.org/> .\n:a :b <https://e.org/a\\nb> .", 2, 7, "unknown escape sequence: \\n", id="string-escape-in-iri"),
        pytest.param('@prefix : <https://e.org/> .\n:a :b "a\\qb" .', 2, 7, "unknown escape sequence: \\q", id="unknown-escape"),
        # Two faults in one token: the first is reported.
        pytest.param('@prefix : <https://e.org/> .\n:a :b "a\\qb\\u12G4" .', 2, 7, "unknown escape sequence: \\q", id="unknown-then-invalid"),
        pytest.param('@prefix : <https://e.org/> .\n:a :b "a\\u12G4\\qb" .', 2, 7, "invalid \\u escape", id="invalid-then-unknown"),
        # Line breaks as CR LF, and a byte order mark, which is not text: neither moves the column.
        pytest.param("@prefix : <https://e.org/> .\r\n:a :b :c .\r\n:d :e ?x .\r\n", 3, 7, "unexpected character: '?'", id="crlf"),
        pytest.param("\ufeff@prefix : <https://e.org/> .\n:a :b :c .\n:d :e ?x .\n", 3, 7, "unexpected character: '?'", id="bom"),
        # '.5' is a number in Turtle, but a local name may hold a dot: ':c.5' is one name, and the '.' is missing.
        pytest.param("@prefix : <https://e.org/> .\n:a :b :c.5", 2, 11, "expected '.' at end of statement", id="dot-digit-in-local"),
        # A bad escape is a lexical error, so it is reported ahead of the syntax error before it.
        pytest.param('@prefix : <https://e.org/> .\n:a :b :c :d .\n:e :f "\\q" .', 3, 7, "unknown escape sequence: \\q", id="escape-after-syntax-error"),
    ],
)
def test_diagnostic_position(text, line, column, message):
    d = diag(text)
    assert d.line == line
    assert d.column == column
    assert message in d.message


# Each input is sized so that a lexer that backtracks exponentially (a run of
# blanks or a string body as a repeated '+' group) takes seconds on it, while
# linear code takes microseconds; and a lexer that gives back part of a comment
# to the token after it reads a token out of the comment.
@pytest.mark.parametrize(
    "text, line, column, message",
    [
        pytest.param("# a comment\n?x", 2, 1, "unexpected character: '?'", id="after-comment"),
        pytest.param("# see <\n?x", 2, 1, "unexpected character: '?'", id="after-comment-ending-in-a-token-start"),
        pytest.param(" " * 24 + "?", 1, 25, "unexpected character: '?'", id="after-blanks"),
        pytest.param('@prefix : <https://e.org/> .\n:a :b "' + "x" * 24, 2, 7, "unterminated string literal", id="unterminated-string"),
        pytest.param("@prefix : <https://e.org/> .\n:a :b <https://e.org/" + "x" * 24, 2, 7, "unterminated IRI", id="unterminated-iri"),
        pytest.param("@prefix : <https://e.org/> .\n:a :b :c" + "." * 24 + "?", 2, 33, "unexpected character: '?'", id="dots-after-local"),
    ],
)
def test_lexical_error_is_found_fast_and_outside_comments(text, line, column, message):
    start = time.perf_counter()
    d = diag(text)
    assert time.perf_counter() - start < 0.3
    assert (d.line, d.column, d.message) == (line, column, message)


def test_comment_without_final_line_break_holds_no_tokens():
    g = parse_turtle("@prefix : <https://e.org/> .\n:a :b :c . # :d :e :f .")
    assert len(g) == 1


def test_trailing_blank_lines_are_lexed_fast():
    start = time.perf_counter()
    g = parse_turtle("@prefix : <https://e.org/> .\n:a :b :c ." + "\n" * 5000)
    assert time.perf_counter() - start < 0.3
    assert len(g) == 1


@pytest.mark.parametrize(
    "text, obj",
    [
        pytest.param("@prefix : <https://e.org/> .\n:a:b:c.", iri("https://e.org/c"), id="pnames"),
        pytest.param('@prefix : <https://e.org/> .\n:a :b "x"@en.', literal("x", lang="en"), id="language-tag"),
        pytest.param("<https://e.org/a><https://e.org/b><https://e.org/c>.", iri("https://e.org/c"), id="iris"),
    ],
)
def test_tokens_need_no_blanks_between_them(text, obj):
    assert list(parse_turtle(text)) == [Triple(iri("https://e.org/a"), iri("https://e.org/b"), obj)]


def _opcodes(node, parser):
    """The names of the opcodes in a parsed pattern, nested ones included."""
    if isinstance(node, parser.SubPattern):
        for op, av in node:
            yield str(op)
            yield from _opcodes(av, parser)
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _opcodes(item, parser)


@pytest.mark.parametrize("pattern", [_lexer(False), _lexer(True), _escape_pattern()], ids=["turtle", "query", "escape"])
def test_lexer_patterns_use_no_syntax_python_3_10_lacks(pattern):
    # Python 3.10's re has no atomic groups or possessive quantifiers; a lexer that needs
    # either would fail to compile there.
    parser = getattr(re, "_parser", None) or importlib.import_module("sre_parse")
    opcodes = set(_opcodes(parser.parse(pattern.pattern, pattern.flags), parser))
    assert "SUBPATTERN" in opcodes  # the walk reaches into groups
    assert not opcodes & {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}


def test_escapes_decode():
    g = parse_turtle('<https://e.org/a\\u0020b> <https://e.org/p> "\\t\\"\\\\\\U0001F600\\u00e9\\n" .')
    t = next(iter(g))
    assert t.s == iri("https://e.org/a b")
    assert t.o == literal('\t"\\\U0001F600é\n')


def test_undeclared_prefix_diagnostic():
    d = diag(":a rdfs:label \"x\" .")
    assert "undeclared prefix" in d.message
    assert d.line == 1


def test_unsupported_constructs_are_named():
    assert "@base" in diag("@base <https://example.org/> .").message
    assert "collection" in diag('@prefix : <https://e.org/> . :a :b ( :c ) .').message
    assert "anonymous blank node" in diag('@prefix : <https://e.org/> . :a :b [ ] .').message
    assert "numeric literal" in diag('@prefix : <https://e.org/> . :a :b 42 .').message
    assert "boolean literal" in diag('@prefix : <https://e.org/> . :a :b true .').message
    assert "triple-quoted" in diag('@prefix : <https://e.org/> . :a :b """x""" .').message


def test_literal_not_allowed_as_subject():
    d = diag('@prefix : <https://e.org/> . "s" :p :o .')
    assert "subject" in d.message


def test_missing_dot_is_a_syntax_error():
    d = diag('@prefix : <https://e.org/> . :a :b :c')
    assert "'.'" in d.message


def test_statement_dot_after_pname_without_space():
    g = parse_turtle("@prefix : <https://e.org/> . :a :b :c.")
    assert len(g) == 1
    assert Triple(iri("https://e.org/a"), iri("https://e.org/b"), iri("https://e.org/c")) in g


def test_serialize_empty_graph():
    g = Graph({"ex": "https://example.org/"})
    text = serialize_turtle(g)
    reparsed = parse_turtle(text)
    assert len(reparsed) == 0
    assert reparsed.prefixes == {"ex": "https://example.org/"}


def test_serialize_single_triple_round_trip():
    g = Graph({"obot": OBOT.base, "soma": SOMA.base})
    t = Triple(iri("https://example.org/drawer"), OBOT.hasAffordance, SOMA.Opening)
    g.insert(t)
    reparsed = parse_turtle(serialize_turtle(g))
    assert set(reparsed) == {t}


def test_round_trip_fixture_graphs(activities, robots):
    for g in (activities, robots):
        reparsed = parse_turtle(serialize_turtle(g))
        assert set(reparsed) == set(g)


def test_round_trip_preserves_declared_prefixes(activities):
    reparsed = parse_turtle(serialize_turtle(activities))
    assert reparsed.prefixes == activities.prefixes


def test_round_trip_random_graphs_without_blanks():
    rng = random.Random(991)
    for _ in range(30):
        g = random_graph(rng, max_triples=50, with_blanks=False, prefixes={"n": "https://example.org/"})
        reparsed = parse_turtle(serialize_turtle(g))
        assert set(reparsed) == set(g)


def test_round_trip_random_graphs_with_blanks():
    rng = random.Random(992)
    for _ in range(20):
        g = random_graph(rng, max_triples=40, with_blanks=True)
        assert isomorphic(parse_turtle(serialize_turtle(g)), g)


@pytest.mark.parametrize("name", ["1x", "_", "_x", "-x"])
def test_serialize_leaves_out_prefix_names_the_lexer_refuses(name):
    g = Graph({name: "https://e.org/", "ok": "https://e.org/ok/"})
    g.insert(Triple(iri("https://e.org/a"), iri("https://e.org/ok/p"), iri("https://e.org/b")))
    text = serialize_turtle(g)
    assert f"@prefix {name}:" not in text
    assert "<https://e.org/a> ok:p <https://e.org/b> ." in text
    reparsed = parse_turtle(text)
    assert set(reparsed) == set(g)
    assert reparsed.prefixes == {"ok": "https://e.org/ok/"}


@pytest.mark.parametrize("tag", ["en US", "en-", "-en", "1en", "en_US", "", "prefix", "base"])
def test_serialize_refuses_a_language_tag_the_lexer_refuses(tag):
    g = Graph()
    g.insert(Triple(iri("https://e.org/a"), iri("https://e.org/p"), literal("x", lang=tag)))
    with pytest.raises(GraphError, match=repr(tag)):
        serialize_turtle(g)


@pytest.mark.parametrize("tag", ["en", "en-US", "zh-Hant-TW", "x-1a", "PREFIX"])
def test_serialize_round_trips_language_tags(tag):
    g = Graph()
    g.insert(Triple(iri("https://e.org/a"), iri("https://e.org/p"), literal("x", lang=tag)))
    assert set(parse_turtle(serialize_turtle(g))) == set(g)


def test_parse_determinism():
    text = PREFIX_HEADER + ":a obot:hasAffordance soma:Opening . _:x rdfs:label \"b\" ."
    g1 = parse_turtle(text)
    g2 = parse_turtle(text)
    assert set(g1) == set(g2)
    assert list(g1) == list(g2)


def test_statement_loop_makes_fewer_grammar_calls_than_triples(monkeypatch):
    # Common tokens are read by index in the statement loop, not through a method call each.
    calls: Counter = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("peek", "next", "parse_term"):
        monkeypatch.setattr(_StatementParser, name, counted(name, getattr(_StatementParser, name)))
    triples = sum(len(parse_turtle(path.read_text(encoding="utf-8"))) for path in (activities_path(), robots_path()))
    assert triples == 517
    assert sum(calls.values()) < triples


def test_escaped_unicode_in_iri_and_string():
    g = parse_turtle('@prefix : <https://e.org/> . <https://e.org/caf\\u00e9> :p "snowman \\u2603" .')
    t = next(iter(g))
    assert t.s == iri("https://e.org/café")
    assert t.o == literal("snowman ☃")


@pytest.mark.parametrize("char", [" ", "<", ">", '"', "{", "}", "|", "^", "`", "\\", "\n", "\t"])
def test_round_trip_iris_holding_characters_an_iri_may_not_hold(char):
    # Such characters reach an IRI only through a \u escape; the writer escapes them again.
    odd, ns = f"https://e.org/a{char}b", f"https://e.org/ns{char}{char}/"
    g = Graph({"x": ns})
    g.insert(Triple(iri(odd), iri(ns + "p"), iri(odd)))
    g.insert(Triple(iri(odd), iri("https://e.org/label"), literal("v", datatype=odd)))
    g.insert(Triple(iri(odd), iri("https://e.org/label"), literal("w", datatype=ns + "t")))
    reparsed = parse_turtle(serialize_turtle(g))
    assert set(reparsed) == set(g)
    assert reparsed.prefixes == g.prefixes
    # Shown as they are everywhere else.
    assert iri(odd).n3() == term_to_text(iri(odd), {}) == f"<{odd}>"


@pytest.mark.parametrize(
    "term, cell, turtle",
    [
        (literal('say "hi"\n'), 'say "hi"\n', '"say \\"hi\\"\\n"'),
        (literal("colour", lang="en-GB"), "colour@en-GB", '"colour"@en-GB'),
        (literal("7", datatype="https://e.org/ns/int"), "7^^x:int", '"7"^^x:int'),
        (literal("a\\b", datatype="https://o.org/t t"), "a\\b^^<https://o.org/t t>", '"a\\\\b"^^<https://o.org/t\\u0020t>'),
        (blank("n"), "_:n", "_:n"),
        # prefixed_name leaves an IRI in full when its local part starts with a digit.
        (iri("https://e.org/ns/1st"), "<https://e.org/ns/1st>", "<https://e.org/ns/1st>"),
    ],
)
def test_term_to_text_cell_and_turtle_forms(term, cell, turtle):
    prefixes = {"x": "https://e.org/ns/"}
    assert term_to_text(term, prefixes) == cell
    assert term_to_text(term, prefixes, escape=True) == turtle


@pytest.mark.parametrize(
    "term, n3",
    [
        (literal("colour", lang="en-GB"), '"colour"@en-GB'),
        (literal("7", datatype="https://e.org/ns/int"), '"7"^^<https://e.org/ns/int>'),
        (literal("a\\b", datatype="https://o.org/t t"), '"a\\\\b"^^<https://o.org/t t>'),
        (iri("https://e.org/ns/1st"), "<https://e.org/ns/1st>"),
    ],
)
def test_term_n3_forms(term, n3):
    # Unlike term_to_text above, n3 never prefixes an IRI, and writes a datatype IRI as it is.
    assert term.n3() == n3


@pytest.mark.parametrize("label", ["a b", "x.", ""])
def test_round_trip_relabels_blank_labels_the_lexer_refuses(label):
    # The fresh label must also miss the labels the graph's other blank nodes use.
    g = Graph()
    g.insert(Triple(blank(label), iri("https://e.org/p"), blank("b0")))
    g.insert(Triple(blank("b1"), iri("https://e.org/p"), iri("https://e.org/c")))
    reparsed = parse_turtle(serialize_turtle(g))
    assert len(reparsed) == 2
    assert isomorphic(reparsed, g)
