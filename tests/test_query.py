from __future__ import annotations

import random
import sys
import time
from collections import Counter

import pytest

from helpers import outputs_across_memory_layouts, oracle_evaluate, random_graph, random_query, record_calls, row_key
from ontobot.fixtures import query_path
from ontobot.graph import BLANK, IRI, Graph, Term, Triple, iri, literal
from ontobot.namespaces import EX, OBOT, RDF, SOMA
from ontobot.query import (
    PatternTerm,
    Query,
    _order_patterns,
    _QueryParser,
    QueryParseError,
    TriplePattern,
    UnsupportedFeatureError,
    Var,
    evaluate,
    parse_query,
)
from ontobot.turtle import parse_turtle

CQ1_TEXT = query_path("cq1_object_affordances").read_text(encoding="utf-8")


def test_parse_cq1_shape():
    q = parse_query(CQ1_TEXT)
    assert q.distinct is True
    assert q.projection == ["object", "affordance"]
    # 3 patterns from the ';' list on ?activity, hasStep, requiresAction,
    # and 2 from the ';' list on ?action.
    assert len(q.pattern) == 7


def test_parse_all_fixture_queries():
    expected_patterns = {
        "cq1_object_affordances": 7,
        "cq2_action_sequence": 8,
        "cq3_required_affordances": 5,
        "cq4_required_affordances": 5,
        "cq5_required_affordances": 5,
        "cq6_step_affordances": 8,
        "robot_affordances": 9,
    }
    for name, count in expected_patterns.items():
        q = parse_query(query_path(name).read_text(encoding="utf-8"))
        assert q.distinct is True
        assert len(q.pattern) == count, name
        assert query_path(f"{name}.rq") == query_path(name)  # the suffix is added only when it is missing


def test_unsupported_features_are_named():
    base = "PREFIX : <https://e.org/> SELECT ?x WHERE { ?x :p ?y . "
    with pytest.raises(UnsupportedFeatureError) as excinfo:
        parse_query(base + "HAVING (?y > 1) }")
    assert excinfo.value.feature == "HAVING"
    for text in (base, base[:-2]):  # with and without the '.' after the pattern
        with pytest.raises(UnsupportedFeatureError) as excinfo:
            parse_query(text + "FILTER (?y > 1) }")
        assert excinfo.value.feature == "FILTER"
        with pytest.raises(UnsupportedFeatureError) as excinfo:
            parse_query(text + "OPTIONAL { ?x :q ?z } }")
        assert excinfo.value.feature == "OPTIONAL"
    with pytest.raises(UnsupportedFeatureError) as excinfo:
        parse_query(base + "} GROUP BY ?x")
    assert excinfo.value.feature == "GROUP BY"
    with pytest.raises(UnsupportedFeatureError) as excinfo:  # no word follows, so the keyword is named alone
        parse_query(base + "} ORDER ?x")
    assert excinfo.value.feature == "ORDER"
    # Named wherever the keyword stands in place of what the grammar expects.
    for text, feature, column in [
        ("PREFIX FILTER <e:> SELECT ?x { ?x ?p ?o }", "FILTER", 8),
        ("PREFIX x: FILTER SELECT ?x { ?x ?p ?o }", "FILTER", 11),
        ('PREFIX x: <e:> SELECT ?x { ?x x:p "v"^^FILTER }', "FILTER", 40),
        ('PREFIX x: <e:> SELECT ?x { ?x x:p "v"^^GROUP BY }', "GROUP BY", 40),
    ]:
        with pytest.raises(UnsupportedFeatureError) as excinfo:
            parse_query(text)
        assert (excinfo.value.feature, excinfo.value.line, excinfo.value.column) == (feature, 1, column)
    # The token after GROUP or ORDER is lexed first, so its lexical error is raised.
    for keyword in ("GROUP", "ORDER"):
        with pytest.raises(QueryParseError) as excinfo:
            parse_query(f"SELECT ?x {{ ?x ?p ?o }} {keyword} ²")
        assert str(excinfo.value) == "line 1, column 30: unexpected character: '²'"


def test_lexical_error_after_an_unsupported_clause_is_not_reached():
    # Unlike Turtle, a query raises a lexical error, a bad escape included, only when the parser reaches it.
    with pytest.raises(UnsupportedFeatureError) as excinfo:
        parse_query('PREFIX : <https://e.org/> SELECT ?x WHERE { ?x :p ?y . } HAVING (?y > "\\q")')
    assert (excinfo.value.feature, excinfo.value.line, excinfo.value.column) == ("HAVING", 1, 58)


def test_dot_digit_in_a_local_name():
    # A local name may hold a dot, so ':c.5' is one name here too, not ':c' and a statement dot.
    q = parse_query("PREFIX : <https://e.org/> SELECT ?x WHERE { ?x :b :c.5 }")
    assert q.pattern == [TriplePattern(Var("x"), iri("https://e.org/b"), iri("https://e.org/c.5"))]


def test_trailing_blank_lines_are_lexed_fast():
    start = time.perf_counter()
    q = parse_query("PREFIX : <https://e.org/> SELECT ?x WHERE { ?x :b :c }" + "\n" * 5000)
    assert time.perf_counter() - start < 0.3
    assert len(q.pattern) == 1


def test_empty_pattern_is_a_syntax_error():
    with pytest.raises(QueryParseError) as excinfo:
        parse_query("SELECT ?x WHERE { }")
    assert "empty graph pattern" in str(excinfo.value)


def test_projected_variable_must_occur_in_pattern():
    with pytest.raises(QueryParseError) as excinfo:
        parse_query("PREFIX : <https://e.org/> SELECT ?missing WHERE { ?x :p ?y . }")
    assert "missing" in str(excinfo.value)


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        pytest.param("SELECT ?x\nWHERE { ?x ?p }", 2, 15, "unexpected '}'", id="missing-object"),
        # Unlike Turtle, '.5' in a pattern is a statement dot and then 5.
        pytest.param("PREFIX : <https://e.org/> SELECT ?x WHERE { ?x :p ?y .5 }", 1, 55, "numeric literals", id="dot-before-digit"),
        # '²' passes str.isdigit() but is no digit of a numeric literal.
        pytest.param("SELECT ?x WHERE { ?x <p> ² }", 1, 26, "unexpected character: '²'", id="superscript-digit"),
        # Escapes must name Unicode scalar values: nothing above U+10FFFF, no surrogate halves.
        pytest.param("SELECT ?x WHERE { ?x <p> <https://e.org/\\U0011FFFF> }", 1, 26, "invalid \\U escape", id="escape-above-10ffff"),
        pytest.param('SELECT ?x WHERE { ?x <p> "\\uDFFF" }', 1, 26, "invalid \\u escape", id="escape-surrogate"),
        # A pattern cut off at the end of the input.
        pytest.param("SELECT ?x WHERE { ?x <p>", 1, 25, "expected an object, found end of input", id="cut-off-object"),
        pytest.param("SELECT ?x WHERE { ?x", 1, 21, "expected a predicate, found end of input", id="cut-off-predicate"),
        # Triple patterns are separated by '.'.
        pytest.param(
            "PREFIX : <https://e.org/> SELECT ?x WHERE { ?x :p ?y ?z :q ?w }", 1, 54,
            "expected '.' or '}' after a triple pattern", id="missing-dot",
        ),
        pytest.param("SELECT ?x ?x WHERE { ?x ?p ?o }", 1, 11, "duplicate variable in projection: ?x", id="duplicate-projection"),
        # A prefixed name is quoted as its text.
        pytest.param(
            "PREFIX rdfs: <https://e.org/> SELECT ?x WHERE { ?x ?p ?o } rdfs:label", 1, 60,
            "unexpected content after '}': 'rdfs:label'", id="content-after-pattern",
        ),
        # A string, an IRI and a blank node are quoted by value: unescaped, without brackets or '_:'.
        pytest.param('SELECT ?x { ?x ?p ?o } "junk"', 1, 24, "unexpected content after '}': 'junk'", id="string-after-pattern"),
        pytest.param('SELECT ?x { ?x ?p ?o } "a\\u0041"', 1, 24, "unexpected content after '}': 'aA'", id="escaped-string-after-pattern"),
        pytest.param("SELECT ?x { ?x ?p ?o } <urn:x>", 1, 24, "unexpected content after '}': 'urn:x'", id="iri-after-pattern"),
        pytest.param("SELECT ?x { ?x ?p ?o } _:b", 1, 24, "unexpected content after '}': 'b'", id="blank-after-pattern"),
        pytest.param("@base <https://e.org/> . SELECT ?x WHERE { ?x ?p ?o }", 1, 1, "unsupported construct: @base", id="base"),
        # Line breaks as CR LF, and a byte order mark, which is not text: neither moves the column.
        pytest.param("PREFIX : <https://e.org/>\r\nSELECT ?x\r\nWHERE { ?x :p ² }\r\n", 3, 15, "unexpected character: '²'", id="crlf"),
        pytest.param("\ufeffPREFIX : <https://e.org/>\nSELECT ?x\nWHERE { ?x :p ² }\n", 3, 15, "unexpected character: '²'", id="bom"),
    ],
)
def test_syntax_error_carries_position(text, line, column, message):
    with pytest.raises(QueryParseError) as excinfo:
        parse_query(text)
    assert excinfo.value.diagnostic.line == line
    assert excinfo.value.diagnostic.column == column
    assert message in excinfo.value.diagnostic.message


# Sized as in test_turtle's lexer test: seconds for a lexer that backtracks
# exponentially, microseconds for linear code; the comment must not be read.
@pytest.mark.parametrize(
    "text, line, column, message",
    [
        pytest.param("SELECT ?x WHERE { ?x <p> # a comment\n² }", 2, 1, "unexpected character: '²'", id="after-comment"),
        pytest.param("SELECT ?x WHERE { ?x <p>" + " " * 24 + "² }", 1, 49, "unexpected character: '²'", id="after-blanks"),
        pytest.param('SELECT ?x WHERE { ?x <p> "' + "x" * 24, 1, 26, "unterminated string literal", id="unterminated-string"),
        pytest.param('SELECT ?x WHERE { ?x <p> "' + '\\"' * 24, 1, 26, "unterminated string literal", id="unterminated-string-of-escaped-quotes"),
        pytest.param("SELECT ?x WHERE { ?x <p> <https://e.org/" + "x" * 24, 1, 26, "unterminated IRI", id="unterminated-iri"),
        pytest.param("PREFIX : <https://e.org/> SELECT ?x WHERE { ?x :p :c" + "." * 24 + "d² }", 1, 78, "unexpected character: '²'", id="dots-in-local"),
    ],
)
def test_lexical_error_is_found_fast_and_outside_comments(text, line, column, message):
    start = time.perf_counter()
    with pytest.raises(QueryParseError) as excinfo:
        parse_query(text)
    assert time.perf_counter() - start < 0.3
    d = excinfo.value.diagnostic
    assert (d.line, d.column, d.message) == (line, column, message)


def test_prefix_and_at_prefix_declarations():
    for header in ("PREFIX e: <https://e.org/>", "@prefix e: <https://e.org/> ."):
        q = parse_query(header + " SELECT ?x WHERE { ?x e:p e:o . }")
        assert q.pattern == [TriplePattern(Var("x"), iri("https://e.org/p"), iri("https://e.org/o"))]
        q = parse_query(header + ' SELECT ?s WHERE { ?s e:p ?o ; a e:C , e:D ; e:q "x"@en . }')
        assert q.pattern == [
            TriplePattern(Var("s"), iri("https://e.org/p"), Var("o")),
            TriplePattern(Var("s"), RDF.type, iri("https://e.org/C")),
            TriplePattern(Var("s"), RDF.type, iri("https://e.org/D")),
            TriplePattern(Var("s"), iri("https://e.org/q"), literal("x", lang="en")),
        ]


def test_evaluate_cq1_includes_expected_pairs(activities):
    q = parse_query(CQ1_TEXT)
    pairs = {(s["object"], s["affordance"]) for s in evaluate(q, activities)}
    assert (EX.drawer, SOMA.Opening) in pairs
    assert (EX.drawer, SOMA.Closing) in pairs
    assert (EX.bowl, SOMA.Grasping) in pairs
    assert (EX.orangeJuice, SOMA.Pouring) in pairs


def test_evaluate_over_empty_graph_is_empty():
    q = parse_query(CQ1_TEXT)
    assert evaluate(q, Graph().freeze()) == []


def test_distinct_deduplicates_projected_rows():
    g = Graph()
    # two actions act on the same component, so (?object) joins twice
    g.insert(Triple(EX.a1, OBOT.actsOn, EX.bowl))
    g.insert(Triple(EX.a2, OBOT.actsOn, EX.bowl))
    g.freeze()
    pattern = [TriplePattern(Var("action"), OBOT.actsOn, Var("object"))]
    distinct = Query(prefixes={}, projection=["object"], distinct=True, pattern=pattern)
    plain = Query(prefixes={}, projection=["object"], distinct=False, pattern=pattern)
    assert len(evaluate(distinct, g)) == 1
    assert len(evaluate(plain, g)) == 2
    # A query built with no projected variable gives one empty row per solution, and DISTINCT keeps one.
    assert evaluate(plain._replace(projection=[]), g) == [{}, {}]
    assert evaluate(distinct._replace(projection=[]), g) == [{}]


def test_repeated_variable_within_pattern_requires_equality():
    g = Graph()
    g.insert(Triple(EX.a, EX.p, EX.a))
    g.insert(Triple(EX.a, EX.p, EX.b))
    g.freeze()
    q = Query(prefixes={}, projection=["x"], distinct=False,
              pattern=[TriplePattern(Var("x"), EX.p, Var("x"))])
    assert [s["x"] for s in evaluate(q, g)] == [EX.a]


def test_literal_matching_is_exact():
    g = Graph()
    g.insert(Triple(EX.a, EX.label, literal("Prepare breakfast")))
    g.insert(Triple(EX.b, EX.label, literal("Prepare breakfast", lang="en")))
    g.insert(Triple(EX.c, EX.label, literal("prepare breakfast")))
    g.freeze()
    q = Query(prefixes={}, projection=["x"], distinct=True,
              pattern=[TriplePattern(Var("x"), EX.label, literal("Prepare breakfast"))])
    assert [s["x"] for s in evaluate(q, g)] == [EX.a]


def test_an_iri_row_sorts_before_a_blank_node_row():
    # Rows sort by term kind before text: as text, the blank node's label sorts before "urn:e:t".
    g = parse_turtle("@prefix : <urn:e:> . :s :p _:a , :t .").freeze()
    rows = evaluate(parse_query("PREFIX : <urn:e:> SELECT ?o WHERE { :s :p ?o }"), g)
    assert [row["o"].kind for row in rows] == [IRI, BLANK]
    assert rows[0]["o"] is iri("urn:e:t") and rows[1]["o"].value < "urn:e:t"


def test_evaluation_order_is_deterministic_and_sorted(union):
    q = parse_query(CQ1_TEXT)
    first = evaluate(q, union)
    second = evaluate(q, union)
    assert first == second
    keys = [row_key(tuple(s[v] for v in q.projection)) for s in first]
    assert keys == sorted(keys)


def test_join_commutativity_on_random_queries():
    rng = random.Random(555)
    for _ in range(30):
        g = random_graph(rng, max_triples=40, with_blanks=False)
        q = random_query(rng, g, max_patterns=4)
        baseline = {tuple(s[v] for v in q.projection) for s in evaluate(q, g)}
        shuffled = list(q.pattern)
        rng.shuffle(shuffled)
        permuted = Query(prefixes={}, projection=q.projection, distinct=q.distinct, pattern=shuffled)
        assert {tuple(s[v] for v in permuted.projection) for s in evaluate(permuted, g)} == baseline


def test_adding_triples_never_removes_solutions():
    rng = random.Random(556)
    for _ in range(20):
        g = random_graph(rng, max_triples=30, with_blanks=False)
        q = random_query(rng, g, max_patterns=3)
        before = {tuple(s[v] for v in q.projection) for s in evaluate(q, g)}
        extended = g.copy()
        extra = random_graph(rng, max_triples=15, with_blanks=False)
        for t in extra:
            extended.insert(t)
        extended.freeze()
        after = {tuple(s[v] for v in q.projection) for s in evaluate(q, extended)}
        assert before <= after


def test_small_oracle_spot_check():
    rng = random.Random(557)
    for _ in range(25):
        g = random_graph(rng, max_triples=30)
        q = random_query(rng, g, max_patterns=4)
        engine = [tuple(s[v] for v in q.projection) for s in evaluate(q, g)]
        oracle = oracle_evaluate(q, g)
        assert sorted(engine, key=row_key) == sorted(oracle, key=row_key)


def test_join_depth_is_not_bounded_by_the_recursion_limit():
    # A chain of n patterns over a chain of n triples has one solution. The
    # recursion limit is set just above the current stack depth, so a join
    # that recurses once per pattern fails long before the last one.
    n = 120
    p = iri("https://e.org/p")
    nodes = [iri(f"https://e.org/n{i}") for i in range(n + 1)]
    g = Graph()
    for i in range(n):
        g.insert(Triple(nodes[i], p, nodes[i + 1]))
    body = " . ".join(f"?x{i} <https://e.org/p> ?x{i + 1}" for i in range(n))
    q = parse_query(f"SELECT ?x0 ?x{n} WHERE {{ {body} }}")
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        rows = evaluate(q, g.freeze())
    finally:
        sys.setrecursionlimit(limit)
    assert [(s["x0"], s[f"x{n}"]) for s in rows] == [(nodes[0], nodes[n])]


# -- compiled executor against the independent oracle ------------------------

_N = [iri(f"https://example.org/n{i}") for i in range(4)]
_P = [iri(f"http://vocab.test/p{i}") for i in range(3)]


def _small_graph(rng: random.Random) -> Graph:
    # Few terms, so joins, self loops (s = o) and predicates used as
    # subjects (s = p) all occur.
    g = Graph()
    subjects = _N + _P
    for _ in range(rng.randint(4, 24)):
        g.insert(Triple(rng.choice(subjects), rng.choice(_P), rng.choice(subjects + [literal("v")])))
    g.insert(Triple(_P[0], _P[0], _N[1]))
    g.insert(Triple(_N[2], _P[1], _N[2]))
    # Two literals that share a sort key: ties in rank, which the sort passes keep in first-found order.
    g.insert(Triple(_N[1], _P[2], literal("v")))
    g.insert(Triple(_N[3], _P[2], literal("v", datatype="")))
    return g.freeze()


_CASES = {
    "empty-pattern": lambda rng, g: [],
    "predicate-variable": lambda rng, g: [
        TriplePattern(Var("s"), Var("p"), Var("o")),
        TriplePattern(Var("o"), Var("q"), rng.choice(_N)),
    ],
    "predicate-variable-joined": lambda rng, g: [
        TriplePattern(rng.choice(_N), rng.choice(_P), Var("s")),
        TriplePattern(Var("s"), Var("p"), Var("o")),
    ],
    "repeated-subject-object": lambda rng, g: [TriplePattern(Var("s"), rng.choice(_P), Var("s"))],
    "repeated-subject-predicate": lambda rng, g: [TriplePattern(Var("s"), Var("s"), Var("o"))],
    "repeated-three-times": lambda rng, g: [
        TriplePattern(Var("s"), Var("s"), Var("s")),
        TriplePattern(Var("o"), Var("p"), Var("o")),
    ],
    "repeated-after-join": lambda rng, g: [
        TriplePattern(Var("a"), rng.choice(_P), Var("s")),
        TriplePattern(Var("s"), Var("p"), Var("s")),
    ],
    "constant-present": lambda rng, g: [
        TriplePattern(*rng.choice(list(g))),
        TriplePattern(Var("s"), rng.choice(_P), Var("o")),
    ],
    "constant-absent": lambda rng, g: [
        TriplePattern(Var("s"), rng.choice(_P), Var("o")),
        TriplePattern(_N[3], _P[2], literal("absent")),
    ],
    "disconnected": lambda rng, g: [
        TriplePattern(Var("a"), rng.choice(_P), Var("b")),
        TriplePattern(Var("c"), rng.choice(_P), Var("d")),
    ],
    "triangle": lambda rng, g: [  # the last step binds subject and object by different variables
        TriplePattern(Var("a"), _P[0], Var("b")),
        TriplePattern(Var("b"), _P[0], Var("c")),
        TriplePattern(Var("a"), Var("q"), Var("c")),
    ],
    "constant-from-term-constructor": lambda rng, g: [
        TriplePattern(Var("s"), Term(IRI, rng.choice(_P).value), Var("o")),
        TriplePattern(Var("o"), Var("p"), Term(IRI, rng.choice(_N).value)),
    ],
    "constant-repeated": lambda rng, g: [  # found once when compiled, or no row at all
        TriplePattern(_N[2], rng.choice(_P), _N[2]),
        TriplePattern(Var("s"), rng.choice(_P), Var("o")),
    ],
    "constants-slotted-earlier": lambda rng, g: [  # the third pattern, placed second, is found once
        TriplePattern(Var("a"), rng.choice(_P), _N[2]),
        TriplePattern(Var("b"), rng.choice(_P), Var("c")),
        TriplePattern(_N[2], _P[1], Var("z")),
    ],
    "constants-slotted-earlier-absent": lambda rng, g: [  # no candidate: compiling stops before the second pattern
        TriplePattern(Var("a"), rng.choice(_P), _N[2]),
        TriplePattern(Var("b"), rng.choice(_P), Var("c")),
        TriplePattern(_N[2], iri("http://vocab.test/absent"), Var("z")),
    ],
    "three-columns-out-of-order": lambda rng, g: (  # the tied literals in the first two columns
        [TriplePattern(Var("s"), Var("p"), Var("o")), TriplePattern(Var("s"), _P[2], Var("x"))],
        ["o", "x", "s"],
    ),
}


@pytest.mark.parametrize("distinct", [True, False], ids=["distinct", "bag"])
@pytest.mark.parametrize("case", sorted(_CASES))
def test_compiled_executor_matches_oracle(case, distinct):
    # Without DISTINCT the rows are a bag: the sorted lists keep duplicates.
    for seed in range(20):
        rng = random.Random(f"{case}:{seed}")
        g = _small_graph(rng)
        pattern = _CASES[case](rng, g)
        if isinstance(pattern, tuple):  # the case names its projection
            pattern, projection = pattern
        else:
            names = list(dict.fromkeys(t.name for pat in pattern for t in pat if isinstance(t, Var)))
            projection = names[: rng.randint(1, len(names))] if names else []
        q = Query(prefixes={}, projection=projection, distinct=distinct, pattern=pattern)
        engine = [tuple(s[v] for v in q.projection) for s in evaluate(q, g)]
        # As multisets: the oracle fixes no order among rows whose keys tie.
        assert Counter(engine) == Counter(oracle_evaluate(q, g)), (case, seed)
        assert engine == sorted(engine, key=row_key), (case, seed)


def test_all_constant_pattern_is_a_membership_test():
    g = Graph()
    g.insert(Triple(_N[0], _P[0], _N[1]))
    g.insert(Triple(_N[1], _P[0], _N[2]))
    g.freeze()
    walk = TriplePattern(Var("x"), _P[0], Var("y"))
    for constant, rows in ((TriplePattern(_N[0], _P[0], _N[1]), 2), (TriplePattern(_N[0], _P[0], _N[2]), 0)):
        q = Query(prefixes={}, projection=["x"], distinct=False, pattern=[walk, constant])
        assert len(evaluate(q, g)) == rows


def test_evaluate_reads_the_graph_at_most_once_per_pattern(union, monkeypatch):
    # Each step with a constant predicate fetches its group once, when the query
    # is compiled, and answers every probe from it: 56 rows from 8 patterns
    # read the graph 8 times, not once per row.
    query = parse_query(query_path("cq6_step_affordances").read_text(encoding="utf-8"))
    with monkeypatch.context() as patch:
        calls = record_calls(patch, "group", "lookup")
        rows = evaluate(query, union)
    assert len(rows) > len(query.pattern)
    assert len(calls) <= len(query.pattern), [name for name, _ in calls]


def _order_oracle(patterns: list[TriplePattern]) -> list[TriplePattern]:
    # The rule as first written: each round rescores every remaining pattern.
    remaining = list(enumerate(patterns))
    ordered: list[TriplePattern] = []
    bound: set[str] = set()
    while remaining:
        def score(item: tuple[int, TriplePattern]) -> tuple:
            index, pat = item
            terms = (pat.s, pat.p, pat.o)
            bound_count = sum(1 for t in terms if not isinstance(t, Var) or t.name in bound)
            connected = not ordered or any(isinstance(t, Var) and t.name in bound for t in terms)
            return (connected, bound_count, -index)

        best = max(remaining, key=score)
        remaining.remove(best)
        ordered.append(best[1])
        bound.update(t.name for t in best[1] if isinstance(t, Var))
    return ordered


def test_order_patterns_matches_the_rescoring_rule():
    rng = random.Random(558)
    # The long patterns share variables, so many ranks rise more than once before their pattern is placed.
    for cases, max_vars, min_patterns, max_patterns in ((400, 8, 0, 14), (100, 20, 15, 60)):
        for _ in range(cases):
            n_vars = rng.randint(1, max_vars)
            terms = [Var(f"v{i}") for i in range(n_vars)] + _N[:2] + _P[:2]
            patterns = [
                TriplePattern(*(rng.choice(terms) for _ in range(3)))
                for _ in range(rng.randint(min_patterns, max_patterns))
            ]
            assert [id(p) for p in _order_patterns(patterns)] == [id(p) for p in _order_oracle(patterns)]


def test_long_chain_orders_in_time():
    # Rescoring every pattern each round takes about 2 s at n = 1500.
    n = 1500
    p = iri("https://e.org/p")
    patterns = [TriplePattern(Var(f"x{i}"), p, Var(f"x{i + 1}")) for i in range(n)]
    start = time.perf_counter()
    ordered = _order_patterns(patterns)
    assert time.perf_counter() - start < 0.5
    assert ordered == patterns


@pytest.mark.parametrize("distinct", [True, False])
def test_rows_with_equal_sort_keys_keep_the_order_they_were_found_in(distinct):
    # A plain literal and one typed with the empty IRI share a sort key.
    plain, typed = literal("x"), literal("x", datatype="")
    assert plain is not typed and plain.sort_key() == typed.sort_key()
    for objects in ([plain, typed], [typed, plain]):
        g = Graph()
        for o in objects:
            g.insert(Triple(_N[0], _P[0], o))
        q = Query(prefixes={}, projection=["o"], distinct=distinct,
                  pattern=[TriplePattern(_N[0], _P[0], Var("o"))])
        assert [s["o"] for s in evaluate(q, g.freeze())] == objects
    # Two columns, the tied literals first: rows sort by the subject, and those alike in both keep their order.
    for objects in ([plain, typed], [typed, plain]):
        g = Graph()
        for subject in (_N[1], _N[0]):
            for o in objects:
                g.insert(Triple(subject, _P[0], o))
        q = Query(prefixes={}, projection=["o", "s"], distinct=distinct,
                  pattern=[TriplePattern(Var("s"), _P[0], Var("o"))])
        rows = [(s["o"], s["s"]) for s in evaluate(q, g.freeze())]
        assert rows == [(o, subject) for subject in (_N[0], _N[1]) for o in objects]


def test_rows_sort_with_one_sort_key_per_distinct_projected_term(union, monkeypatch):
    # A sort through Term.__lt__ would build two keys per comparison, and a key per row would build one per row.
    query = parse_query(query_path("cq6_step_affordances").read_text(encoding="utf-8"))
    built: list[Term] = []
    sort_key = Term.sort_key
    with monkeypatch.context() as patch:
        patch.setattr(Term, "sort_key", lambda term: built.append(term) or sort_key(term))
        rows = evaluate(query, union)
    distinct = {term for row in rows for term in row.values()}
    assert len(built) <= len(distinct) < len(rows)


def test_query_output_does_not_depend_on_memory_addresses(union):
    # The rank sort walks a set of terms, and terms hash by address.
    path = query_path("cq6_step_affordances")
    outputs = outputs_across_memory_layouts(
        f"from ontobot.cli import main\nsys.exit(main(['query', '-f', {str(path)!r}, '-o', 'csv']))\n"
    )
    assert len(outputs) == 1
    rows = evaluate(parse_query(path.read_text(encoding="utf-8")), union)
    assert len(next(iter(outputs)).splitlines()) == 1 + len(rows)


# -- the parser against queries written with their parse -----------------------

WRITER_PREFIXES = {"ex": "https://e.org/", "v": "https://v.org/ns#", "": "https://empty.org/"}


def _written_query(rng: random.Random) -> tuple[str, list[TriplePattern], list[str], bool]:
    """A random query text, with the patterns, projection and DISTINCT flag it was written from.

    Each term is drawn as a (text, term) pair, so the expectation never comes
    from the parser: full IRIs (one in eight with a ``\\u`` escape), pnames
    under ``PREFIX``, variables with either sigil drawn from a few names, so
    they repeat across subject, predicate and object, ``a``, and plain,
    ``@lang`` and ``^^`` literals (one in eight with a ``\\"`` escape).
    """
    names = ["x", "y", "z", "w"][: rng.randint(1, 4)]

    def variable() -> tuple[str, PatternTerm]:
        name = rng.choice(names)
        return rng.choice("?$") + name, Var(name)

    def named() -> tuple[str, Term]:
        local = rng.choice(["a1", "b", "c_2", "node-9"])
        if rng.random() < 0.5:
            prefix = rng.choice(list(WRITER_PREFIXES))
            return f"{prefix}:{local}", iri(WRITER_PREFIXES[prefix] + local)
        if rng.random() < 0.125:
            return f"<https://e.org/\\u0041{local}>", iri(f"https://e.org/A{local}")
        return f"<https://e.org/{local}>", iri(f"https://e.org/{local}")

    def obj() -> tuple[str, PatternTerm]:
        r = rng.random()
        if r < 0.4:
            return variable()
        if r < 0.7:
            return named()
        text, value = ('"say \\"hi\\""', 'say "hi"') if rng.random() < 0.125 else ('"cup"', "cup")
        if r < 0.8:
            return text, literal(value)
        if r < 0.9:
            return f"{text}@en-GB", literal(value, lang="en-GB")
        datatype_text, datatype = named()
        return f"{text}^^{datatype_text}", literal(value, datatype=datatype.value)

    def predicate() -> tuple[str, PatternTerm]:
        r = rng.random()
        return ("a", RDF.type) if r < 0.2 else variable() if r < 0.5 else named()

    pattern: list[TriplePattern] = []
    statements = []
    for _ in range(rng.randint(1, 3)):
        s_text, s = variable() if rng.random() < 0.6 else named()
        lists = []
        for _ in range(rng.randint(1, 3)):
            p_text, p = predicate()
            objects = [obj() for _ in range(rng.randint(1, 3))]
            pattern += [TriplePattern(s, p, o) for _, o in objects]
            lists.append(f"{p_text} {' , '.join(text for text, _ in objects)}")
        statements.append(f"{s_text} {' ; '.join(lists)}" + rng.choice(["", " ;"]))
    used = list(dict.fromkeys(t.name for pat in pattern for t in pat if isinstance(t, Var)))
    if not used:  # a pattern of constants only: one variable to project
        s_text, s = variable()
        pattern.append(TriplePattern(s, RDF.type, iri("https://e.org/b")))
        statements.append(f"{s_text} a <https://e.org/b>")
        used = [s.name]
    projection = rng.sample(used, rng.randint(1, len(used)))
    distinct = rng.random() < 0.5
    prologue = "".join(
        rng.choice([f"PREFIX {name}: <{ns}>\n", f"prefix {name}: <{ns}> .\n", f"@prefix {name}: <{ns}> .\n"])
        for name, ns in WRITER_PREFIXES.items()
    )
    select = rng.choice(["SELECT", "select", "Select"]) + (" " + rng.choice(["DISTINCT", "distinct"]) if distinct else "")
    where = rng.choice(["WHERE ", "where ", ""])
    body = " .\n  ".join(statements) + rng.choice(["", " ."])
    text = f"{prologue}{select} {' '.join(rng.choice('?$') + n for n in projection)}\n{where}{{\n  {body}\n}}\n"
    return text, pattern, projection, distinct


def test_parse_matches_the_written_pattern_projection_and_distinct_flag():
    rng = random.Random(4401)
    for _ in range(300):
        text, pattern, projection, distinct = _written_query(rng)
        q = parse_query(text)
        assert (q.pattern, q.projection, q.distinct) == (pattern, projection, distinct), text
        assert q.prefixes == WRITER_PREFIXES


def test_parse_term_reached_at_most_once_per_distinct_term_token(monkeypatch):
    # A query of full IRIs and variables: the statement loop resolves each on first sight and keeps it,
    # so parse_term is reached at most once per distinct term token however often a token repeats.
    reached: list[str] = []
    parse_term = _QueryParser.parse_term

    def counting(self, position):
        reached.append(self.tokens[self.at])
        return parse_term(self, position)

    monkeypatch.setattr(_QueryParser, "parse_term", counting)
    terms = ["?x", "$y", "?z", "<https://e.org/a>", "<https://e.org/p>", "<https://e.org/\\u0062>"]
    rng = random.Random(4402)
    patterns = [" ".join(rng.choice(terms) for _ in range(3)) for _ in range(40)]
    q = parse_query(f"SELECT ?x WHERE {{ ?x ?x ?x . {' . '.join(patterns)} }}")
    assert len(q.pattern) == 41
    assert len(reached) == len(set(reached)) <= len(terms)
