from __future__ import annotations

import copy
import pickle
import random
import time

import pytest

from helpers import isomorphic, oracle_evaluate, random_graph, random_query, random_term_pools, scan_match
from ontobot.graph import (
    IRI,
    LITERAL,
    Graph,
    GraphError,
    Term,
    Triple,
    blank,
    iri,
    literal,
    merge_graphs,
)
from ontobot.fixtures import activities_path, robots_path
from ontobot.namespaces import EX, OBOT, RDF, SOMA
from ontobot.reasoner import load_graph


def test_insert_is_idempotent():
    g = Graph()
    t = Triple(EX.drawer, OBOT.hasAffordance, SOMA.Opening)
    g.insert(t)
    g.insert(t)
    assert len(g) == 1
    assert t in g


def test_insert_affordance_triple_into_empty_graph():
    g = Graph()
    g.insert(Triple(EX.drawer, OBOT.hasAffordance, SOMA.Opening))
    assert len(g) == 1


def test_insert_rejects_literal_predicate():
    g = Graph()
    with pytest.raises(GraphError):
        g.insert(Triple(EX.drawer, literal("p"), SOMA.Opening))


def test_insert_rejects_literal_subject():
    g = Graph()
    with pytest.raises(GraphError):
        g.insert(Triple(literal("s"), OBOT.hasAffordance, SOMA.Opening))


def test_insert_rejects_blank_predicate():
    g = Graph()
    with pytest.raises(GraphError):
        g.insert(Triple(EX.drawer, blank("b"), SOMA.Opening))


def test_frozen_graph_rejects_inserts():
    g = Graph()
    g.freeze()
    with pytest.raises(GraphError):
        g.insert(Triple(EX.a, OBOT.hasAffordance, SOMA.Opening))


def test_match_empty_graph_all_wildcards():
    assert Graph().match() == []


def test_match_drawer_affordances(activities):
    objects = {t.o for t in activities.match(EX.drawer, OBOT.hasAffordance, None)}
    assert objects == {SOMA.Opening, SOMA.Closing}


def test_match_agents(robots):
    subjects = {t.s for t in robots.match(None, RDF.type, OBOT.Agent)}
    assert subjects == {EX.tiago, EX.hsr, EX.ur3, EX.stretch}


def test_match_fully_bound(activities):
    t = Triple(EX.drawer, OBOT.hasAffordance, SOMA.Opening)
    assert activities.match(*t) == [t]
    absent = Triple(EX.drawer, OBOT.hasAffordance, SOMA.Pouring)
    assert activities.match(*absent) == []


def test_match_agrees_with_linear_scan_oracle():
    rng = random.Random(20240817)
    sizes = [80] * 40 + [1000] * 3
    for max_triples in sizes:
        g = random_graph(rng, max_triples=max_triples)
        triples = list(g)
        for _ in range(12):
            anchor = rng.choice(triples) if triples else Triple(EX.x, EX.p, EX.y)
            s = anchor.s if rng.random() < 0.5 else None
            p = anchor.p if rng.random() < 0.5 else None
            o = anchor.o if rng.random() < 0.5 else None
            assert set(g.match(s, p, o)) == scan_match(g, s, p, o)


def test_match_is_deterministic(activities):
    first = activities.match(None, OBOT.requiresAffordance, None)
    second = activities.match(None, OBOT.requiresAffordance, None)
    assert first == second


def test_index_consistency():
    rng = random.Random(7)
    g = random_graph(rng, max_triples=120)
    for t in g:
        assert t in g.match(s=t.s)
        assert t in g.match(p=t.p)
        assert t in g.match(o=t.o)


def test_merge_keeps_document_blanks_distinct():
    g1 = Graph()
    g1.insert(Triple(blank("shared"), RDF.type, OBOT.Component))
    g2 = Graph()
    g2.insert(Triple(blank("shared"), RDF.type, OBOT.Agent))
    merged = merge_graphs([g1, g2])
    assert len(merged) == 2
    subjects = {t.s for t in merged}
    assert len(subjects) == 2


def test_merge_prefixes_first_binding_wins():
    g1 = Graph({"ex": "https://one.test/"})
    g2 = Graph({"ex": "https://two.test/", "other": "https://other.test/"})
    merged = merge_graphs([g1, g2])
    assert merged.prefixes["ex"] == "https://one.test/"
    assert merged.prefixes["other"] == "https://other.test/"


def test_isomorphic_accepts_blank_renaming():
    g1 = Graph()
    g1.insert(Triple(blank("a"), OBOT.hasAffordance, SOMA.Opening))
    g1.insert(Triple(blank("a"), OBOT.hasAffordance, SOMA.Closing))
    g1.insert(Triple(blank("b"), OBOT.hasAffordance, SOMA.Pouring))
    g2 = Graph()
    g2.insert(Triple(blank("x"), OBOT.hasAffordance, SOMA.Pouring))
    g2.insert(Triple(blank("y"), OBOT.hasAffordance, SOMA.Opening))
    g2.insert(Triple(blank("y"), OBOT.hasAffordance, SOMA.Closing))
    assert isomorphic(g1, g2)


def test_isomorphic_rejects_structural_difference():
    g1 = Graph()
    g1.insert(Triple(blank("a"), OBOT.hasAffordance, SOMA.Opening))
    g1.insert(Triple(blank("b"), OBOT.hasAffordance, SOMA.Closing))
    g2 = Graph()
    g2.insert(Triple(blank("x"), OBOT.hasAffordance, SOMA.Opening))
    g2.insert(Triple(blank("x"), OBOT.hasAffordance, SOMA.Closing))
    assert not isomorphic(g1, g2)
    # Every blank node has one outgoing and one incoming p, so only the backtracking tells these apart.
    cycle, loops = Graph(), Graph()
    cycle.insert(Triple(blank("a"), EX.p, blank("b")))
    cycle.insert(Triple(blank("b"), EX.p, blank("a")))
    loops.insert(Triple(blank("a"), EX.p, blank("a")))
    loops.insert(Triple(blank("b"), EX.p, blank("b")))
    assert not isomorphic(cycle, loops)
    assert not isomorphic(loops, cycle)


def test_term_equality_usable_as_set_key():
    a = iri("https://example.org/drawer")
    b = iri("https://example.org/drawer")
    assert a is b
    assert len({a, b}) == 1
    assert literal("x") != literal("x", lang="en")
    assert literal("x") != literal("x", datatype="http://www.w3.org/2001/XMLSchema#string")


def test_every_construction_returns_the_interned_term():
    lit = literal("x", lang="en")
    assert Term(IRI, "https://example.org/drawer") is iri("https://example.org/drawer")
    assert Term(LITERAL, "x", lang="en") is lit
    assert Term(LITERAL, "x", "en", None) is lit
    for term in (iri("https://example.org/drawer"), blank("b7"), lit):
        assert copy.copy(term) is term
        assert copy.deepcopy(term) is term
        assert pickle.loads(pickle.dumps(term)) is term
    triple = Triple(iri("https://example.org/a"), OBOT.hasAffordance, lit)
    assert pickle.loads(pickle.dumps(triple)) == triple


def test_term_rejects_malformed_parts():
    with pytest.raises(GraphError):
        Term("uri", "https://example.org/")
    with pytest.raises(GraphError):
        Term(IRI, "https://example.org/", lang="en")
    with pytest.raises(GraphError):
        Term(LITERAL, "x", lang="en", datatype="https://example.org/t")


def ordered_scan(graph: Graph, s: Term | None, p: Term | None, o: Term | None) -> list[Triple]:
    """The matching triples in insertion order, by a plain scan."""
    return [t for t in graph if (s is None or t.s is s) and (p is None or t.p is p) and (o is None or t.o is o)]


def test_match_agrees_in_order_with_a_scan_as_the_graph_grows():
    # Lookups between inserts build indexes and groups that later inserts must keep exact.
    rng = random.Random(20261018)
    for _ in range(30):
        pools = random_term_pools(rng)
        subjects = pools["iris"] + pools["blanks"]
        objects = subjects + pools["literals"]
        predicates = pools["predicates"] + [EX.unknown]
        absent = EX.absent  # in no triple, at any position

        def draw() -> tuple[Term, Term, Term]:
            return rng.choice(subjects + [absent]), rng.choice(predicates), rng.choice(objects + [absent])

        g = Graph()
        for _ in range(rng.randint(1, 150)):
            g.insert(Triple(rng.choice(subjects), rng.choice(pools["predicates"]), rng.choice(objects)))
            for _ in range(rng.randint(0, 2)):
                s, p, o = (term if rng.random() < 0.5 else None for term in draw())
                assert g.match(s, p, o) == list(g.lookup(s, p, o)) == ordered_scan(g, s, p, o)
        g.freeze()
        for _ in range(20):  # each of the 8 bound-position combinations
            terms = draw()
            for mask in range(8):
                s, p, o = (term if mask >> i & 1 else None for i, term in enumerate(terms))
                assert g.match(s, p, o) == list(g.lookup(s, p, o)) == ordered_scan(g, s, p, o)
        for t in g:
            assert g.match(t.s, t.p, t.o) == list(g.lookup(t.s, t.p, t.o)) == [t]
            assert g.match(t.s, t.p, None) == ordered_scan(g, t.s, t.p, None)
            assert g.match(None, t.p, t.o) == ordered_scan(g, None, t.p, t.o)
            assert g.objects(t.s, t.p) == list(dict.fromkeys(x.o for x in ordered_scan(g, t.s, t.p, None)))
            assert g.subjects(t.p, t.o) == list(dict.fromkeys(x.s for x in ordered_scan(g, None, t.p, t.o)))


def test_a_load_builds_no_index_beyond_the_predicate_index():
    # Parsing and inference insert into the triple set and the predicate index only.
    g = load_graph([activities_path(), robots_path()])
    assert g._built == {}
    g.match(EX.drawer, OBOT.hasAffordance, None)
    assert list(g._built) == [(OBOT.hasAffordance, 0)]


def test_two_bound_match_returns_a_fresh_list():
    g = Graph()
    g.insert(Triple(EX.a, OBOT.hasAffordance, SOMA.Opening))
    first = g.match(EX.a, OBOT.hasAffordance, None)
    first.clear()
    assert g.match(EX.a, OBOT.hasAffordance, None) == [Triple(EX.a, OBOT.hasAffordance, SOMA.Opening)]


def test_group_view_is_read_only_and_agrees_with_match(activities):
    for position in (0, 2):
        view = activities.group(OBOT.requiresAffordance, position)
        assert view
        for term, triples in view.items():
            bound = (term, None) if position == 0 else (None, term)
            assert list(triples) == activities.match(bound[0], OBOT.requiresAffordance, bound[1])
        with pytest.raises(TypeError):
            view[EX.drawer] = []  # type: ignore[index]
    assert dict(activities.group(EX.unknownPredicate, 0)) == {}
    for position in (-1, 1, 3):
        with pytest.raises(GraphError):
            activities.group(OBOT.requiresAffordance, position)


def test_two_bound_match_reads_only_its_own_triples():
    # The subject's and the predicate's buckets each hold 10k triples, their
    # pairing 3: filtering either bucket reads 10k triples per lookup (seconds
    # for all of them), the group a few (milliseconds).
    n = 10_000
    s, p, o = EX.hub, EX.busy, EX.sink
    g = Graph()
    for i in range(n):
        g.insert(Triple(s, iri(f"https://example.org/q{i}"), o))
        g.insert(Triple(iri(f"https://example.org/s{i}"), p, iri(f"https://example.org/o{i}")))
        g.insert(Triple(iri(f"https://example.org/t{i}"), iri(f"https://example.org/r{i}"), o))
    for target in (EX.x, EX.y, o):
        g.insert(Triple(s, p, target))
    g.insert(Triple(EX.z, p, o))
    g.freeze()
    assert len(g.match(s, p, None)) == 3 and len(g.match(None, p, o)) == 2  # builds both groups
    start = time.perf_counter()
    for _ in range(2000):
        g.match(s, p, None)
        g.match(None, p, o)
    assert time.perf_counter() - start < 0.3


def test_oracles_do_not_read_the_groups(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle read an index")

    for name in ("_grouped", "group", "lookup", "match"):
        monkeypatch.setattr(Graph, name, refuse)
    rng = random.Random(5)
    for _ in range(20):
        g = random_graph(rng, max_triples=40)
        for t in g:
            assert scan_match(g, t.s, t.p, None) == set(ordered_scan(g, t.s, t.p, None))
            assert scan_match(g, None, t.p, t.o) == set(ordered_scan(g, None, t.p, t.o))
        oracle_evaluate(random_query(rng, g), g)
        # The same triples, inserted in reverse with every blank node renamed.
        renamed = Graph()
        rename = lambda term: blank("renamed-" + term.value) if term.is_blank else term
        for t in reversed(list(g)):
            renamed.insert(Triple(rename(t.s), t.p, rename(t.o)))
        assert isomorphic(g, renamed) and isomorphic(renamed, g)

