from __future__ import annotations

import itertools
import random

import pytest

from ontobot.fixtures import vocabulary_path
from ontobot.graph import Graph, Triple, iri, literal
from ontobot.namespaces import DUL, EX, FOAF, OBOT, PKO, PPLAN, PROV, RDF, RDFS, ROS, SOMA
from ontobot.schema import (
    ONTOBOT_VOCABULARY,
    OBOT_CLASSES,
    OBOT_PROPERTIES,
    Violation,
    infer_types,
    validate,
    vocabulary_graph,
)
from ontobot.turtle import parse_turtle


def test_minted_vocabulary_membership():
    # The newly minted namespace holds exactly these classes and properties.
    assert OBOT_CLASSES == {OBOT.Agent, OBOT.Environment, OBOT.Component, OBOT.Affordance}
    assert OBOT_PROPERTIES == {
        OBOT.hasNode,
        OBOT.enablesAffordance,
        OBOT.hasAffordance,
        OBOT.actsOn,
        OBOT.requiresAffordance,
        OBOT.nextAction,
    }
    in_namespace_classes = {c for c in ONTOBOT_VOCABULARY.classes if c in OBOT}
    in_namespace_properties = {p for p in ONTOBOT_VOCABULARY.properties if p in OBOT}
    assert in_namespace_classes == OBOT_CLASSES
    assert in_namespace_properties == OBOT_PROPERTIES


def test_subclass_axioms_present():
    axioms = ONTOBOT_VOCABULARY.subclass_axioms
    assert (OBOT.Agent, DUL.Agent) in axioms
    assert (OBOT.Agent, PROV.Agent) in axioms
    assert (OBOT.Agent, FOAF.Agent) in axioms
    assert (OBOT.Environment, DUL.Place) in axioms
    assert (OBOT.Affordance, SOMA.Affordance) in axioms
    assert (OBOT.Affordance, SOMA.PhysicalTask) in axioms


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


def _random_lattice_graph(rng: random.Random) -> Graph:
    classes = [iri(f"https://example.org/C{i}") for i in range(rng.randint(1, 20))]
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
        assert set(once) == set(twice)


def test_infer_types_monotone_on_random_lattices():
    rng = random.Random(32)
    for _ in range(25):
        g = _random_lattice_graph(rng)
        h = g.copy()
        for t in _random_lattice_graph(rng):
            h.insert(t)
        h.freeze()
        assert set(infer_types(g)) <= set(infer_types(h))


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
    g = Graph()
    g.insert(Triple(EX.a, RDF.type, PROV.Activity))
    g.insert(Triple(EX.s, RDF.type, PPLAN.Step))
    g.insert(Triple(EX.act, RDF.type, PKO.Action))
    g.insert(Triple(EX.act, RDFS.label, literal("labelled action")))
    g.freeze()
    unlabelled = {v.subject for v in validate(g).violations if v.rule == "R4"}
    assert unlabelled == {EX.a, EX.s}


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


def test_emitted_vocabulary_file_matches_vocabulary():
    emitted = parse_turtle(vocabulary_path().read_text(encoding="utf-8"))
    assert set(emitted) == set(vocabulary_graph())


def test_vocabulary_file_declares_axioms():
    emitted = parse_turtle(vocabulary_path().read_text(encoding="utf-8"))
    assert Triple(OBOT.Agent, RDFS.subClassOf, DUL.Agent) in emitted
    assert Triple(OBOT.Affordance, RDFS.subClassOf, SOMA.PhysicalTask) in emitted
