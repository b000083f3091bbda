from __future__ import annotations

import itertools
import random
from typing import Sequence

import pytest

from helpers import oracle_infer
from ontobot.fixtures import activities_path, queries_dir, robots_path, vocabulary_path
from ontobot.graph import Graph, Term, Triple, blank, iri, literal
from ontobot.namespaces import DUL, EX, FOAF, OBOT, PKO, PPLAN, PROV, RDF, RDFS, ROS, SOMA
from ontobot.query import Var, parse_query
from ontobot.schema import SUBCLASS_AXIOMS, Violation, infer_types, validate
from ontobot.turtle import parse_turtle


def vocabulary() -> Graph:
    return parse_turtle(vocabulary_path().read_text(encoding="utf-8"))


def test_minted_vocabulary_membership():
    # The newly minted namespace holds exactly these classes and properties.
    g = vocabulary()
    classes = {t.s for t in g.lookup(None, RDF.type, RDFS.Class) if t.s in OBOT}
    properties = {t.s for t in g.lookup(None, RDF.type, RDF.Property) if t.s in OBOT}
    assert classes == {OBOT.Agent, OBOT.Environment, OBOT.Component, OBOT.Affordance}
    assert properties == {
        OBOT.hasNode,
        OBOT.enablesAffordance,
        OBOT.hasAffordance,
        OBOT.actsOn,
        OBOT.requiresAffordance,
        OBOT.nextAction,
    }


def test_subclass_axioms_present():
    # Inference reads SUBCLASS_AXIOMS, never the file: the two must state the same pairs.
    assert {(t.s, t.o) for t in vocabulary().lookup(None, RDFS.subClassOf, None)} == SUBCLASS_AXIOMS
    assert SUBCLASS_AXIOMS == {
        (OBOT.Agent, DUL.Agent),
        (OBOT.Agent, PROV.Agent),
        (OBOT.Agent, FOAF.Agent),
        (OBOT.Environment, DUL.Place),
        (OBOT.Affordance, SOMA.Affordance),
        (OBOT.Affordance, SOMA.PhysicalTask),
    }


def test_infer_types_agent_superclasses():
    g = Graph()
    g.insert(Triple(EX.tiago, RDF.type, OBOT.Agent))
    g.freeze()
    inferred = infer_types(g)
    for cls in (OBOT.Agent, DUL.Agent, PROV.Agent, FOAF.Agent):
        assert Triple(EX.tiago, RDF.type, cls) in inferred


def test_infer_types_no_type_triples_is_identity():
    g = Graph()
    g.insert(Triple(EX.a, OBOT.hasAffordance, SOMA.Opening))
    g.freeze()
    assert set(infer_types(g)) == set(g)


def test_infer_types_handles_subclass_cycle():
    g = Graph()
    g.insert(Triple(EX.A, RDFS.subClassOf, EX.B))
    g.insert(Triple(EX.B, RDFS.subClassOf, EX.A))
    g.insert(Triple(EX.x, RDF.type, EX.A))
    g.freeze()
    inferred = infer_types(g)
    assert Triple(EX.x, RDF.type, EX.A) in inferred
    assert Triple(EX.x, RDF.type, EX.B) in inferred


def test_infer_types_uses_in_graph_axioms():
    g = Graph()
    g.insert(Triple(EX.Mug, RDFS.subClassOf, OBOT.Component))
    g.insert(Triple(EX.mug1, RDF.type, EX.Mug))
    g.freeze()
    assert Triple(EX.mug1, RDF.type, OBOT.Component) in infer_types(g)


def test_infer_types_adds_each_superclass_where_the_first_asserted_type_reaching_it_stands():
    # A ⊑ B ⊑ C and D ⊑ C: s1's first type reaches C before s2's does, though s1 a B comes after s2 a D.
    g = Graph()
    for sub, sup in ((EX.A, EX.B), (EX.B, EX.C), (EX.D, EX.C)):
        g.insert(Triple(sub, RDFS.subClassOf, sup))
    for s, cls in ((EX.s1, EX.A), (EX.s2, EX.D), (EX.s1, EX.B)):
        g.insert(Triple(s, RDF.type, cls))
    inferred = infer_types(g.freeze())
    assert [t.s for t in inferred.lookup(None, RDF.type, EX.C)] == [EX.s1, EX.s2]
    assert [t.o for t in inferred.lookup(EX.s1, RDF.type, None)] == [EX.A, EX.B, EX.C]


def test_an_agent_gets_its_inferred_types_in_sorted_axiom_order(kb):
    # The vocabulary's superclasses of obot:Agent, by IRI: DUL's, then PROV's, then FOAF's.
    assert [t.o for t in kb.graph.lookup(EX.tiago, RDF.type, None)] == [OBOT.Agent, DUL.Agent, PROV.Agent, FOAF.Agent]


def _assert_inferred_as_the_oracle_orders_them(g: Graph) -> None:
    # The brute-force fixpoint gives the set. Each class lists its asserted instances first, in graph order,
    # then every other instance where the first asserted type of it that reaches the class stands.
    inferred = infer_types(g)
    assert set(inferred) == oracle_infer(g)
    asserted = list(g.lookup(None, RDF.type, None))
    probes = Graph()
    for t in g.lookup(None, RDFS.subClassOf, None):
        probes.insert(t)
    for i, t in enumerate(asserted):
        probes.insert(Triple(iri(f"urn:probe:{i}"), RDF.type, t.o))
    reached: dict[Term, set[Term]] = {}
    for s, p, o in oracle_infer(probes):
        if p == RDF.type:
            reached.setdefault(s, set()).add(o)
    expected: dict[Term, list[Term]] = {}
    for t in asserted:
        expected.setdefault(t.o, []).append(t.s)
    for i, t in enumerate(asserted):
        for cls in reached[iri(f"urn:probe:{i}")]:
            if t.s not in expected.setdefault(cls, []):
                expected[cls].append(t.s)
    assert set(inferred.group(RDF.type, 2)) == set(expected)
    assert {cls: [t.s for t in inferred.lookup(None, RDF.type, cls)] for cls in expected} == expected


def test_infer_types_agrees_with_a_brute_force_oracle_on_the_fixtures(union):
    _assert_inferred_as_the_oracle_orders_them(union)


def test_infer_types_agrees_with_a_brute_force_oracle_on_random_lattices():
    # Half the lattices use the vocabulary's own classes, so the built-in axioms mix with the graph's. The
    # triples are shuffled, so that one instance's types interleave with other instances' types.
    vocabulary_classes = sorted({cls for pair in SUBCLASS_AXIOMS for cls in pair})
    rng = random.Random(33)
    for n in range(300):
        triples = list(_random_lattice_graph(rng, vocabulary_classes if n % 2 else ()))
        rng.shuffle(triples)
        g = Graph()
        for t in triples:
            g.insert(t)
        _assert_inferred_as_the_oracle_orders_them(g.freeze())


def _random_lattice_graph(rng: random.Random, vocabulary_classes: Sequence[Term] = ()) -> Graph:
    classes = [iri(f"https://example.org/C{i}") for i in range(rng.randint(1, 20))] + list(vocabulary_classes)
    instances = [iri(f"https://example.org/i{i}") for i in range(rng.randint(1, 15))]
    g = Graph()
    for _ in range(rng.randint(0, 30)):
        g.insert(Triple(rng.choice(classes), RDFS.subClassOf, rng.choice(classes)))
    for x in instances:
        for _ in range(rng.randint(0, 2)):
            g.insert(Triple(x, RDF.type, rng.choice(classes)))
    return g.freeze()


def test_infer_types_idempotent_on_random_lattices():
    rng = random.Random(31)
    for _ in range(25):
        g = _random_lattice_graph(rng)
        once = infer_types(g)
        twice = infer_types(once)
        assert set(once) == set(twice) == oracle_infer(g)


def test_infer_types_monotone_on_random_lattices():
    rng = random.Random(32)
    for _ in range(25):
        g = _random_lattice_graph(rng)
        h = g.copy()
        for t in _random_lattice_graph(rng):
            h.insert(t)
        h.freeze()
        assert set(infer_types(g)) <= set(infer_types(h)) == oracle_infer(h)


def test_fixtures_validate_clean(kb):
    assert kb.report.ok
    assert kb.report.violations == []


def test_next_step_cycle_reported_as_r2():
    g = Graph()
    g.insert(Triple(EX.s1, PKO.nextStep, EX.s2))
    g.insert(Triple(EX.s2, PKO.nextStep, EX.s1))
    g.freeze()
    report = validate(g)
    assert any(v.rule == "R2" and "cycle" in v.message for v in report.violations)


def test_next_step_fork_and_join_reported_as_r2():
    g = Graph()
    g.insert(Triple(EX.s1, PKO.nextStep, EX.s2))
    g.insert(Triple(EX.s1, PKO.nextStep, EX.s3))
    g.insert(Triple(EX.s4, PKO.nextStep, EX.s2))
    g.freeze()
    rules = [v.message for v in validate(g).violations if v.rule == "R2"]
    assert any("fork" in message for message in rules)
    assert any("join" in message for message in rules)


def test_each_owner_whose_members_form_no_one_path_reported_as_r2():
    # R2 holds every owner's members to the links between them, as CQ2 orders them, and reports every faulty owner.
    g = Graph()
    for t in ((EX.p1, PKO.hasStep, EX.s1), (EX.p1, PKO.hasStep, EX.s2), (EX.p1, PKO.hasStep, EX.s3),
              (EX.s1, PKO.nextStep, EX.s2),  # :s3 is linked to neither: an incomplete chain
              (EX.p2, PKO.hasStep, EX.s4), (EX.p2, PKO.hasStep, EX.s5), (EX.s5, PKO.nextStep, EX.s4),  # one path
              (EX.p3, PKO.hasStep, EX.s6),  # one step needs no link
              (EX.p4, PKO.hasStep, EX.s7), (EX.p4, PKO.hasStep, EX.s8),  # no link at all
              (EX.s4, PKO.requiresAction, EX.a1), (EX.s4, PKO.requiresAction, EX.a2),
              (EX.a1, OBOT.nextAction, EX.a3)):  # a link to a non-member orders no member
        g.insert(Triple(*t))
    g.freeze()
    assert [v for v in validate(g).violations if v.rule == "R2"] == [
        Violation("R2", EX.p1, "pko:nextStep chain: its 3 members do not form one path"),
        Violation("R2", EX.p4, "pko:nextStep chain: its 2 members do not form one path"),
        Violation("R2", EX.s4, "obot:nextAction chain: its 2 members do not form one path"),
    ]


@pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
def test_cycle_behind_a_fork_reported_in_every_insertion_order(order):
    # :a forks to :b and :c, and :c leads back to :a. Whichever successor of
    # :a was inserted first, the one fork and the one cycle are both reported.
    links = [Triple(EX.a, PKO.nextStep, EX.b), Triple(EX.a, PKO.nextStep, EX.c), Triple(EX.c, PKO.nextStep, EX.a)]
    g = Graph()
    for i in order:
        g.insert(links[i])
    g.freeze()
    messages = [v.message for v in validate(g).violations if v.rule == "R2"]
    assert sum("fork" in m for m in messages) == 1
    assert sum("cycle" in m for m in messages) == 1
    assert len(messages) == 2


def test_validate_sees_links_inserted_after_an_earlier_report():
    # validate reads the graph's own groups, which later inserts keep exact, so nothing it read goes stale.
    g = Graph()
    for t in ((EX.s1, PKO.nextStep, EX.s2), (EX.step, PKO.requiresAction, EX.grasp),
              (EX.grasp, OBOT.requiresAffordance, SOMA.Grasping), (EX.grasp, OBOT.actsOn, EX.cup),
              (EX.cup, RDF.type, OBOT.Component)):
        g.insert(Triple(*t))
    first = validate(g)
    assert first.violations == [] and first.warnings == []
    g.insert(Triple(EX.s1, PKO.nextStep, EX.s3))  # a fork at :s1
    g.insert(Triple(EX.s4, PKO.nextStep, EX.s2))  # a join at :s2
    g.insert(Triple(EX.s2, PKO.nextStep, EX.s1))  # a cycle back to :s1
    g.insert(Triple(EX.step, PKO.requiresAction, EX.wave))  # an action that requires no affordance
    assert validate(g).violations == [
        Violation("R2", EX.s1, "pko:nextStep fork: node has 2 successors"),
        Violation("R2", EX.s2, "pko:nextStep join: node has 2 predecessors"),
        Violation("R2", EX.s1, "pko:nextStep chain contains a cycle"),
        Violation("R2", EX.step, "obot:nextAction chain: its 2 members do not form one path"),
        Violation("R3", EX.wave, "action requires no affordance"),
    ]


def test_affordance_outside_soma_needs_only_one_affordance_type():
    # :wiping is no SOMA term; typed soma:Affordance alone, it is an affordance all the same.
    g = Graph()
    g.insert(Triple(EX.wiping, RDF.type, SOMA.Affordance))
    g.insert(Triple(EX.step, PKO.requiresAction, EX.wipe))
    g.insert(Triple(EX.wipe, OBOT.requiresAffordance, EX.wiping))
    g.freeze()
    assert [v for v in validate(g).violations if v.rule == "R1"] == []


def test_literal_acts_on_target_reported_as_r1():
    g = Graph()
    g.insert(Triple(EX.action1, OBOT.actsOn, literal("literal")))
    g.freeze()
    report = validate(g)
    assert any(v.rule == "R1" and "literal" in v.message for v in report.violations)


def test_untyped_acts_on_target_reported_as_r1():
    g = Graph()
    g.insert(Triple(EX.action1, OBOT.actsOn, EX.mystery))
    g.freeze()
    assert any(v.rule == "R1" for v in validate(g).violations)


def test_non_affordance_object_reported_as_r1():
    g = Graph()
    g.insert(Triple(EX.action1, OBOT.requiresAffordance, literal("Grasping")))
    g.freeze()
    assert any(v.rule == "R1" for v in validate(g).violations)


def test_action_without_affordance_reported_as_r3():
    g = Graph()
    g.insert(Triple(EX.step, PKO.requiresAction, EX.action1))
    g.insert(Triple(EX.action1, OBOT.actsOn, EX.bowl))
    g.insert(Triple(EX.bowl, RDF.type, OBOT.Component))
    g.freeze()
    assert any(v.rule == "R3" and "no affordance" in v.message for v in validate(g).violations)


def test_literal_action_reported_as_r3():
    # R3 checks every object of pko:requiresAction, a literal included.
    g = Graph()
    g.insert(Triple(EX.step, PKO.requiresAction, literal("wipe the glass")))
    g.freeze()
    report = validate(g)
    assert report.violations == [Violation("R3", literal("wipe the glass"), "action requires no affordance")]
    assert report.warnings == [Violation("R3", literal("wipe the glass"), "action has no obot:actsOn target")]


def test_untyped_has_node_subject_and_has_component_ends_reported_as_r1():
    has_node, has_component = Triple(EX.bot, OBOT.hasNode, EX.node), Triple(EX.kitchen, DUL.hasComponent, EX.mug)
    g = Graph()
    g.insert(has_node)
    g.insert(Triple(EX.node, RDF.type, ROS.Node))
    g.insert(has_component)
    g.freeze()
    assert validate(g).violations == [
        Violation("R1", has_node, "obot:hasNode subject is not typed obot:Agent"),
        Violation("R1", has_component, "dul:hasComponent subject is not typed obot:Environment"),
        Violation("R1", has_component, "dul:hasComponent object is not typed obot:Component"),
    ]


def test_action_with_two_targets_reported_as_r3():
    g = Graph()
    g.insert(Triple(EX.step, PKO.requiresAction, EX.action1))
    g.insert(Triple(EX.action1, OBOT.requiresAffordance, SOMA.Grasping))
    for target in (EX.bowl, EX.cup):
        g.insert(Triple(EX.action1, OBOT.actsOn, target))
        g.insert(Triple(target, RDF.type, OBOT.Component))
    g.freeze()
    assert validate(g).violations == [Violation("R3", EX.action1, "action has 2 obot:actsOn targets (at most 1 allowed)")]


def test_action_without_target_is_a_warning_not_violation():
    g = Graph()
    g.insert(Triple(EX.step, PKO.requiresAction, EX.action1))
    g.insert(Triple(EX.action1, OBOT.requiresAffordance, SOMA.Grasping))
    g.freeze()
    report = validate(g)
    assert not [v for v in report.violations if v.rule == "R3"]
    assert any(v.rule == "R3" for v in report.warnings)


def test_unlabelled_activity_step_action_reported_as_r4():
    # Only a literal is a label (rdfs:label has the range rdfs:Literal): an IRI or a blank node names nothing.
    # A robot and a procedure that an activity executes need one too: the feasibility matrix names both.
    for labels, unlabelled in (
        ({EX.act: literal("labelled action")}, [EX.a, EX.s, EX.bot, EX.p]),
        ({EX.a: EX.Name, EX.s: blank("name"), EX.act: literal("labelled action"), EX.p: EX.Name}, [EX.a, EX.s, EX.bot, EX.p]),
        ({EX.a: literal("Activity", lang="en"), EX.act: literal("act"), EX.bot: literal("bot"), EX.p: literal("p"),
          EX.s: literal("Step", datatype="http://www.w3.org/2001/XMLSchema#string")}, []),
    ):
        g = Graph()
        g.insert(Triple(EX.a, RDF.type, PROV.Activity))
        g.insert(Triple(EX.s, RDF.type, PPLAN.Step))
        g.insert(Triple(EX.act, RDF.type, PKO.Action))
        g.insert(Triple(EX.bot, RDF.type, OBOT.Agent))
        g.insert(Triple(EX.a, PKO.executesProcedure, EX.p))
        g.insert(Triple(EX.a2, PKO.executesProcedure, EX.p))  # a shared procedure is reported once
        for node, label in labels.items():
            g.insert(Triple(node, RDFS.label, label))
        g.freeze()
        assert [v.subject for v in validate(g).violations if v.rule == "R4"] == unlabelled, labels


def test_inference_never_adds_r1_violations(kb, activities, robots):
    from ontobot.graph import merge_graphs

    raw = merge_graphs([activities, robots]).freeze()
    raw_r1 = [v for v in validate(raw).violations if v.rule == "R1"]
    inferred_r1 = [v for v in validate(kb.graph).violations if v.rule == "R1"]
    assert len(inferred_r1) <= len(raw_r1)


def test_inference_can_repair_r1_violations():
    # the actsOn target is only typed through an in-graph subclass axiom
    g = Graph()
    g.insert(Triple(EX.Mug, RDFS.subClassOf, OBOT.Component))
    g.insert(Triple(EX.mug1, RDF.type, EX.Mug))
    g.insert(Triple(EX.action1, OBOT.actsOn, EX.mug1))
    g.freeze()
    assert any(v.rule == "R1" for v in validate(g).violations)
    assert not [v for v in validate(infer_types(g)).violations if v.rule == "R1"]


def test_vocabulary_file_declares_axioms():
    emitted = vocabulary()
    assert Triple(OBOT.Agent, RDFS.subClassOf, DUL.Agent) in emitted
    assert Triple(OBOT.Affordance, RDFS.subClassOf, SOMA.PhysicalTask) in emitted


def test_vocabulary_file_declares_every_term_the_fixtures_and_queries_use():
    graphs = [parse_turtle(path.read_text(encoding="utf-8")) for path in (activities_path(), robots_path())]
    patterns = [t for g in graphs for t in g]
    for path in sorted(queries_dir().glob("*.rq")):
        patterns += parse_query(path.read_text(encoding="utf-8")).pattern
    predicates = {t.p for t in patterns if not isinstance(t.p, Var)}
    classes = {t.o for t in patterns if t.p is RDF.type and not isinstance(t.o, Var)}
    vocab = vocabulary()
    assert len(predicates) == 18 and len(classes) == 12
    assert predicates - {t.s for t in vocab.lookup(None, RDF.type, RDF.Property)} == set()
    assert classes - {t.s for t in vocab.lookup(None, RDF.type, RDFS.Class)} == set()
