from __future__ import annotations

import copy
import pickle
import random
import sys
import threading
import time
import uuid

import pytest

from helpers import isomorphic, oracle_evaluate, random_graph, random_query, random_term_pools, scan_match
from ontobot.graph import (
    BLANK,
    IRI,
    LITERAL,
    Graph,
    GraphError,
    Term,
    Triple,
    blank,
    blank_minter,
    iri,
    literal,
    merge_graphs,
)
from ontobot.fixtures import activities_path, robots_path
from ontobot.namespaces import EX, OBOT, RDF, SOMA, Namespace
from ontobot.reasoner import load_graph
from ontobot.turtle import parse_turtle, parse_turtle_into


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


def test_repr_names_size_prefixes_and_state(activities):
    assert repr(Graph()) == "<Graph 0 triples, 0 prefixes, loading>"
    assert repr(activities) == f"<Graph {len(activities)} triples, {len(activities.prefixes)} prefixes, frozen>"


def test_lookup_empty_graph_all_wildcards():
    assert list(Graph().lookup(None, None, None)) == []


def test_lookup_drawer_affordances(activities):
    objects = {t.o for t in activities.lookup(EX.drawer, OBOT.hasAffordance, None)}
    assert objects == {SOMA.Opening, SOMA.Closing}


def test_lookup_agents(robots):
    subjects = {t.s for t in robots.lookup(None, RDF.type, OBOT.Agent)}
    assert subjects == {EX.tiago, EX.hsr, EX.ur3, EX.stretch}


def test_lookup_fully_bound(activities):
    t = Triple(EX.drawer, OBOT.hasAffordance, SOMA.Opening)
    assert list(activities.lookup(*t)) == [t]
    absent = Triple(EX.drawer, OBOT.hasAffordance, SOMA.Pouring)
    assert list(activities.lookup(*absent)) == []


def test_lookup_agrees_with_linear_scan_oracle():
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
            assert set(g.lookup(s, p, o)) == scan_match(g, s, p, o)


def test_lookup_is_deterministic(activities):
    first = list(activities.lookup(None, OBOT.requiresAffordance, None))
    second = list(activities.lookup(None, OBOT.requiresAffordance, None))
    assert first == second


def test_index_consistency():
    rng = random.Random(7)
    g = random_graph(rng, max_triples=120)
    for t in g:
        assert t in g.lookup(t.s, None, None)
        assert t in g.lookup(None, t.p, None)
        assert t in g.lookup(None, None, t.o)


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
    base = f"https://e.org/{uuid.uuid4().hex}#"
    assert Namespace(base).drawer is iri(base + "drawer")


def test_namespace_keeps_each_term_it_mints(monkeypatch):
    base = f"https://e.org/{uuid.uuid4().hex}#"
    ns = Namespace(base)
    drawer = ns.drawer
    assert vars(ns) == {"base": base, "drawer": drawer}
    # A kept term is a plain attribute: reading it again never reaches __getattr__.
    monkeypatch.setattr(Namespace, "__getattr__", lambda self, name: pytest.fail(f"minted {name} again"))
    assert ns.drawer is drawer is iri(base + "drawer")
    monkeypatch.undo()
    # A private name is no term, and is not kept.
    with pytest.raises(AttributeError):
        ns._drawer
    assert vars(ns) == {"base": base, "drawer": drawer}
    assert ns.base == base
    assert drawer in ns and ns.cup in ns
    assert iri("https://e.org/drawer") not in ns and literal(base + "drawer") not in ns and base + "drawer" not in ns
    assert repr(ns) == f"Namespace({base!r})"


def test_threads_interning_the_same_terms_get_one_object_each():
    # Four threads intern the same fresh IRIs at once, switching as often as the interpreter allows:
    # first by reading their names from one fresh Namespace, which keeps what it mints, then by iri().
    # Each key must come back as one object everywhere, or identity joins silently miss.
    threads, rounds, size = 4, 20, 300
    barrier = threading.Barrier(threads)
    names = [f"n{n}" for n in range(size)]
    values: list[str] = []
    results: list[list[Term]] = []

    def work(slot: int) -> None:
        barrier.wait(timeout=30)
        read = [getattr(namespace, name) for name in names]
        results[slot] = read + [iri(value) for value in values]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            base = f"https://e.org/{uuid.uuid4().hex}/"
            values[:] = [base + name for name in names]
            namespace = Namespace(base)
            results[:] = [[]] * threads
            workers = [threading.Thread(target=work, args=(slot,)) for slot in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
            assert [len(interned) for interned in results] == [2 * size] * threads
            for value, *interned in zip(values + values, *results):
                assert all(term is iri(value) for term in interned), value
    finally:
        sys.setswitchinterval(interval)


def test_term_rejects_malformed_parts():
    with pytest.raises(GraphError):
        Term("uri", "https://example.org/")
    for kind, tag in ((IRI, {"lang": "en"}), (BLANK, {"datatype": "https://example.org/t"})):
        with pytest.raises(GraphError, match=r"^only literals carry a language tag or datatype$"):
            Term(kind, "x", **tag)
    with pytest.raises(GraphError):
        Term(LITERAL, "x", lang="en", datatype="https://example.org/t")
    # The factories build through Term, so its checks guard them as well.
    with pytest.raises(GraphError):
        literal("x", lang="en", datatype="https://example.org/t")


def ordered_scan(graph: Graph, s: Term | None, p: Term | None, o: Term | None) -> list[Triple]:
    """The matching triples in insertion order, by a plain scan."""
    return [t for t in graph if (s is None or t.s is s) and (p is None or t.p is p) and (o is None or t.o is o)]


def bound_patterns(t: Triple) -> list[tuple[Term | None, Term | None, Term | None]]:
    """The patterns that bind one or two of the positions of ``t``."""
    return [(t.s, None, None), (None, t.p, None), (None, None, t.o), (t.s, t.p, None), (None, t.p, t.o), (t.s, None, t.o)]


def test_lookup_agrees_in_order_with_a_scan_as_the_graph_grows():
    # Lookups and group views taken between inserts build indexes and groups that later inserts must keep exact,
    # a view of a predicate taken before its first triple (or of one that never gets any) included.
    rng = random.Random(20261018)
    view_rng = random.Random(20261020)  # its own stream, so taking views changes none of the graphs or lookups drawn
    for _ in range(30):
        pools = random_term_pools(rng)
        subjects = pools["iris"] + pools["blanks"]
        objects = subjects + pools["literals"]
        predicates = pools["predicates"] + [EX.unknown]
        absent = EX.absent  # in no triple, at any position

        def draw() -> tuple[Term, Term, Term]:
            return rng.choice(subjects + [absent]), rng.choice(predicates), rng.choice(objects + [absent])

        g = Graph()
        views = []
        for _ in range(rng.randint(1, 150)):
            g.insert(Triple(rng.choice(subjects), rng.choice(pools["predicates"]), rng.choice(objects)))
            for _ in range(rng.randint(0, 2)):
                s, p, o = (term if rng.random() < 0.5 else None for term in draw())
                assert list(g.lookup(s, p, o)) == ordered_scan(g, s, p, o)
            if view_rng.random() < 0.3:
                p = view_rng.choice(predicates)
                views.extend((p, position, g.group(p, position)) for position in (0, 2))
        g.freeze()
        for p, position, view in views:
            expected: dict[Term, list[Triple]] = {}
            for t in ordered_scan(g, None, p, None):
                expected.setdefault(t[position], []).append(t)
            assert [(term, list(triples)) for term, triples in view.items()] == list(expected.items()), (p, position)
        for _ in range(20):  # each of the 8 bound-position combinations
            terms = draw()
            for mask in range(8):
                s, p, o = (term if mask >> i & 1 else None for i, term in enumerate(terms))
                assert list(g.lookup(s, p, o)) == ordered_scan(g, s, p, o)
        for t in g:
            assert list(g.lookup(t.s, t.p, t.o)) == [t]
            assert list(g.lookup(t.s, t.p, None)) == ordered_scan(g, t.s, t.p, None)
            assert list(g.lookup(None, t.p, t.o)) == ordered_scan(g, None, t.p, t.o)


def test_a_load_builds_no_index_beyond_the_predicate_index():
    # Parsing writes each triple into the triple set only; inference reads the predicate index alone.
    assert load_graph([activities_path(), robots_path()], infer=False)._built == {}
    g = load_graph([activities_path(), robots_path()])
    assert list(g._built) == [(None, 1)]
    g.lookup(EX.drawer, OBOT.hasAffordance, None)
    assert list(g._built) == [(None, 1), (OBOT.hasAffordance, 0)]
    g.lookup(EX.drawer, None, SOMA.Opening)  # reads the subject's bucket; the object index stays unbuilt
    assert list(g._built) == [(None, 1), (OBOT.hasAffordance, 0), (None, 0)]


def test_a_parse_into_a_graph_with_built_indexes_keeps_them_exact():
    # Once a graph holds an index, a parse into it must insert through every index, not around them.
    g = Graph()
    new_blank = blank_minter("b")
    parse_turtle_into(g, activities_path().read_text(encoding="utf-8"), new_blank)
    before = list(g)
    for t in before:  # builds the predicate index, both whole-graph indexes and every group
        for pattern in bound_patterns(t):
            g.lookup(*pattern)
    assert {(None, 0), (None, 1), (None, 2), (OBOT.hasAffordance, 0), (OBOT.hasAffordance, 2)} <= set(g._built)
    parse_turtle_into(g, robots_path().read_text(encoding="utf-8"), new_blank)
    assert len(g) > len(before) and list(g)[: len(before)] == before
    for t in g:
        for pattern in bound_patterns(t):
            assert list(g.lookup(*pattern)) == ordered_scan(g, *pattern)


def test_a_parse_into_a_frozen_graph_raises_graph_error():
    text = activities_path().read_text(encoding="utf-8")
    for g in (Graph().freeze(), parse_turtle(text)):  # one empty, one holding the document already
        size = len(g)
        with pytest.raises(GraphError, match=r"^graph is frozen; no further inserts allowed$"):
            parse_turtle_into(g, text, blank_minter("b"))
        assert len(g) == size


def test_a_frozen_graph_keeps_its_prefix_table():
    g = Graph({"own": "urn:own:"})
    g.insert(Triple(EX.a, RDF.type, EX.B))
    g.freeze()
    one_triple = Graph({"ex": "urn:ex:"})
    one_triple.insert(Triple(EX.c, RDF.type, EX.D))
    calls = [
        lambda: g.add_graph(Graph({"ex": "urn:ex:"}), blank_minter("m")),
        lambda: g.add_graph(one_triple, blank_minter("m")),
        lambda: parse_turtle_into(g, "@prefix x: <urn:x:> .", blank_minter("b")),
    ]
    for call in calls:
        with pytest.raises(GraphError, match=r"^graph is frozen; no further inserts allowed$"):
            call()
        assert g.prefixes == {"own": "urn:own:"} and len(g) == 1


def test_threads_reading_a_fresh_graph_see_complete_predicate_lists():
    # The predicate index is built on first use: four threads that build it at once, switching as often
    # as the interpreter allows, must each read every predicate's triples, in insertion order.
    threads, rounds = 4, 20
    text = activities_path().read_text(encoding="utf-8") + robots_path().read_text(encoding="utf-8")
    barrier = threading.Barrier(threads)
    results: list[list[list[Triple]]] = []

    def work(g: Graph, predicates: list[Term], slot: int) -> None:
        barrier.wait(timeout=30)
        results[slot] = [list(g.lookup(None, p, None)) for p in predicates]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(rounds):
            g = parse_turtle(text)
            predicates = list(dict.fromkeys(t.p for t in g))
            expected = [ordered_scan(g, None, p, None) for p in predicates]
            assert g._built == {}
            results[:] = [[]] * threads
            workers = [threading.Thread(target=work, args=(g, predicates, slot)) for slot in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
                assert not worker.is_alive()
            assert results == [expected] * threads
    finally:
        sys.setswitchinterval(interval)


def test_group_view_is_read_only_and_agrees_with_lookup(activities):
    for position in (0, 2):
        view = activities.group(OBOT.requiresAffordance, position)
        assert view
        for term, triples in view.items():
            bound = (term, None) if position == 0 else (None, term)
            assert list(triples) == list(activities.lookup(bound[0], OBOT.requiresAffordance, bound[1]))
        with pytest.raises(TypeError):
            view[EX.drawer] = []  # type: ignore[index]
    assert dict(activities.group(EX.unknownPredicate, 0)) == {}
    for position in (-1, 1, 3):
        with pytest.raises(GraphError):
            activities.group(OBOT.requiresAffordance, position)


def test_two_bound_lookup_reads_only_its_own_triples():
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
    assert len(g.lookup(s, p, None)) == 3 and len(g.lookup(None, p, o)) == 2  # builds both groups
    start = time.perf_counter()
    for _ in range(2000):
        g.lookup(s, p, None)
        g.lookup(None, p, o)
    assert time.perf_counter() - start < 0.3


def test_oracles_do_not_read_the_groups(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("an oracle read an index")

    for name in ("_grouped", "group", "lookup"):
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

