from __future__ import annotations

import copy
import pickle
import random

import pytest

from helpers import random_graph, scan_match
from ontobot.graph import (
    IRI,
    LITERAL,
    Graph,
    GraphError,
    Term,
    Triple,
    UndeclaredPrefixError,
    blank,
    expand,
    iri,
    isomorphic,
    literal,
    merge_graphs,
)
from ontobot.namespaces import EX, OBOT, RDF, SOMA


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


def test_expand_pko_has_step():
    prefixes = {"pko": "https://w3id.org/pko#"}
    assert expand(prefixes, "pko:hasStep") == iri("https://w3id.org/pko#hasStep")


def test_expand_empty_prefix():
    prefixes = {"": "https://example.org/"}
    assert expand(prefixes, ":drawer") == iri("https://example.org/drawer")


def test_expand_undeclared_prefix_names_it():
    with pytest.raises(UndeclaredPrefixError) as excinfo:
        expand({}, "xyz:a")
    assert "xyz" in str(excinfo.value)


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


def test_index_view_is_read_only_and_agrees_with_match(activities):
    for position in range(3):
        view = activities.index(position)
        for term, bucket in view.items():
            assert list(bucket) == activities.match(*(term if i == position else None for i in range(3)))
        with pytest.raises(TypeError):
            view[OBOT.hasAffordance] = []  # type: ignore[index]
