"""``validate`` against an oracle written from README's "Validation rules", on the fixtures and on seeded faults.

On the seeded faults, ``validate`` and CQ2 must also agree on chains: a task plan fails exactly when R2 finds that
the members of one of its owners do not form one path.

The oracle reads the graph's triple set and nothing else: no index, no group and no ``ontobot.schema`` name.
R2 reports a cycle once, at a node that depends on the walk, so a cycle report is checked by where it lies
(on a cycle) and by what it covers (every cyclic component of the successor graph), not by its node.
"""

from __future__ import annotations

import random
import re

from helpers import random_ontobot_graph
from ontobot.graph import IRI, LITERAL, Graph, Term, Triple, blank, literal
from ontobot.namespaces import DUL, EX, OBOT, PKO, PPLAN, PROV, RDF, RDFS, ROS, SOMA
from ontobot.reasoner import ChainError, KnowledgeBase
from ontobot.schema import validate

CHAINS = {PKO.nextStep: "pko:nextStep", OBOT.nextAction: "obot:nextAction"}
MEMBERS = {PKO.nextStep: PKO.hasStep, OBOT.nextAction: PKO.requiresAction}  # the members each chain orders
LABELLED = {PROV.Activity: "prov:Activity", PPLAN.Step: "pplan:Step", PKO.Action: "pko:Action", OBOT.Agent: "obot:Agent"}
CYCLE = " chain contains a cycle"
# The links whose object is a node: a literal there is an R1 violation.
NODE_RANGES = {PKO.executesProcedure: "pko:executesProcedure object must be a procedure",
               PKO.hasStep: "pko:hasStep object must be a step"}

Report = tuple[str, "Term | Triple", str]


def oracle_validate(triples: set[Triple]) -> tuple[set[Report], set[Report], dict[str, dict[Term, frozenset[Term]]]]:
    """The violations other than R2's cycles, the warnings, and per chain each node on a cycle with its component."""
    out: dict[Term, list[tuple[Term, Term]]] = {}
    for s, p, o in triples:
        out.setdefault(s, []).append((p, o))

    def objects(s: Term, p: Term) -> list[Term]:
        return [o for q, o in out.get(s, ()) if q == p]

    def typed(x: Term, cls: Term) -> bool:
        return (x, RDF.type, cls) in triples

    violations: set[Report] = set()
    warnings: set[Report] = set()
    # R1: each end of a domain/range-checked link has its class; an affordance is a SOMA IRI or a typed one.
    for t in triples:
        s, p, o = t
        if p == OBOT.actsOn:
            if o.kind == LITERAL:
                violations.add(("R1", t, "obot:actsOn target must be a component, not a literal"))
            elif not typed(o, OBOT.Component):
                violations.add(("R1", t, "obot:actsOn target is not typed obot:Component"))
        elif p in NODE_RANGES and o.kind == LITERAL:
            violations.add(("R1", t, f"{NODE_RANGES[p]}, not a literal"))
        elif p in (OBOT.requiresAffordance, OBOT.enablesAffordance):
            affordance = o.kind == IRI and (o.value.startswith(SOMA.base) or typed(o, OBOT.Affordance)
                                            or typed(o, SOMA.Affordance))
            if not affordance:
                name = "obot:requiresAffordance" if p == OBOT.requiresAffordance else "obot:enablesAffordance"
                violations.add(("R1", t, f"{name} object is not an affordance IRI"))
        for link, name, domain, range_, domain_name, range_name in (
            (OBOT.hasNode, "obot:hasNode", OBOT.Agent, ROS.Node, "obot:Agent", "ros:Node"),
            (DUL.hasComponent, "dul:hasComponent", OBOT.Environment, OBOT.Component, "obot:Environment",
             "obot:Component"),
        ):
            if p == link and not typed(s, domain):
                violations.add(("R1", t, f"{name} subject is not typed {domain_name}"))
            if p == link and not typed(o, range_):
                violations.add(("R1", t, f"{name} object is not typed {range_name}"))
    # R2: at most one successor and one predecessor per node; a node on a cycle reaches itself.
    cycles: dict[str, dict[Term, frozenset[Term]]] = {}
    for p, name in CHAINS.items():
        links = [(s, o) for s, q, o in triples if q == p]
        succ: dict[Term, set[Term]] = {}
        for s, o in links:
            succ.setdefault(s, set()).add(o)
        for node in succ:
            if len(succ[node]) > 1:
                violations.add(("R2", node, f"{name} fork: node has {len(succ[node])} successors"))
        for node in {o for _, o in links}:
            n = sum(o == node for _, o in links)
            if n > 1:
                violations.add(("R2", node, f"{name} join: node has {n} predecessors"))
        reach: dict[Term, set[Term]] = {}
        for start in succ:
            seen: set[Term] = set()
            frontier = list(succ[start])
            while frontier:
                x = frontier.pop()
                if x not in seen:
                    seen.add(x)
                    frontier.extend(succ.get(x, ()))
            reach[start] = seen
        on_cycle = [x for x in succ if x in reach[x]]
        cycles[name] = {x: frozenset(y for y in on_cycle if y in reach[x] and x in reach[y]) for x in on_cycle}
        # An owner's members form one path when their links between them are those of one order: the order in
        # which each member reaches, over those links, one member fewer than the one before it.
        for owner in {s for s, q, _ in triples if q == MEMBERS[p]}:
            members = set(objects(owner, MEMBERS[p]))
            inner = {(s, o) for s, o in links if s in members and o in members}

            def reached(x: Term) -> int:
                seen, frontier = set(), [x]
                while frontier:
                    for s, o in inner:
                        if s == frontier[-1] and o not in seen:
                            seen.add(o)
                            frontier.append(o)
                            break
                    else:
                        frontier.pop()
                return len(seen)

            order = sorted(members, key=reached, reverse=True)
            if inner != set(zip(order, order[1:])):
                violations.add(("R2", owner, f"{name} chain: its {len(members)} members do not form one path"))
    # R3: every object of pko:requiresAction, a literal too, is an action.
    for action in {o for _, p, o in triples if p == PKO.requiresAction}:
        if not objects(action, OBOT.requiresAffordance):
            violations.add(("R3", action, "action requires no affordance"))
        targets = objects(action, OBOT.actsOn)
        if len(targets) > 1:
            violations.add(("R3", action, f"action has {len(targets)} obot:actsOn targets (at most 1 allowed)"))
        elif not targets:
            warnings.add(("R3", action, "action has no obot:actsOn target"))
    # R4: a typed activity, step, action or robot, and every procedure an activity executes (R1 reports a literal
    # one), has a literal rdfs:label.
    def unlabelled(x: Term) -> bool:
        return not any(o.kind == LITERAL for o in objects(x, RDFS.label))

    for s, p, o in triples:
        if p == RDF.type and o in LABELLED and unlabelled(s):
            violations.add(("R4", s, f"{LABELLED[o]} instance has no rdfs:label"))
        if p == PKO.executesProcedure and o.kind != LITERAL and unlabelled(o):
            violations.add(("R4", o, "pko:executesProcedure object has no rdfs:label"))
    return violations, warnings, cycles


def assert_validate_agrees(g: Graph) -> list[Report]:
    """Fail unless ``validate(g)`` gives what the oracle derives from ``set(g)``; return its reports."""
    report = validate(g)
    got = [(v.rule, v.subject, v.message) for v in report.violations]
    warned = [(v.rule, v.subject, v.message) for v in report.warnings]
    assert len(got) == len(set(got)) and len(warned) == len(set(warned))
    violations, warnings, cycles = oracle_validate(set(g))
    cycle_reports = {r for r in got if r[0] == "R2" and r[2].endswith(CYCLE)}
    for _, node, message in cycle_reports:
        assert node in cycles.get(message[: -len(CYCLE)], ()), f"{message} at {node}, which lies on no such cycle"
    for name, components in cycles.items():
        reported = {node for _, node, message in cycle_reports if message == name + CYCLE}
        for component in set(components.values()):
            assert component & reported, f"a {name} cycle through {sorted(component)} is not reported"
    assert set(got) - cycle_reports == violations
    assert set(warned) == warnings
    return got + warned


def assert_cq2_agrees(g: Graph, reports: list[Report]) -> list[bool]:
    """Fail unless each activity's task plan raises ``ChainError`` exactly when R2 finds that one of its procedures'
    steps, or one of those steps' actions, form no one path; return, per activity, whether its plan raised."""
    broken = {(node, message.split(" chain: ")[0]) for rule, node, message in reports
              if rule == "R2" and message.endswith(" members do not form one path")}
    kb = KnowledgeBase(g)
    raised = []
    for activity, _ in kb.activities():
        procedures = {o for _, _, o in g.lookup(activity, PKO.executesProcedure, None)}
        steps = {o for procedure in procedures for _, _, o in g.lookup(procedure, PKO.hasStep, None)}
        expected = any((x, "pko:nextStep") in broken for x in procedures) or any(
            (x, "obot:nextAction") in broken for x in steps)
        try:
            kb.task_plan(activity)
        except ChainError:
            assert expected, f"CQ2 cannot order {activity}, but R2 reports none of its owners"
            raised.append(True)
        else:
            assert not expected, f"CQ2 orders {activity}, but R2 reports one of its owners"
            raised.append(False)
    return raised


# -- seeded faults ------------------------------------------------------------


def _members(triples: list[Triple], p: Term) -> list[Term]:
    return list(dict.fromkeys(o for _, q, o in triples if q == p and o.kind != LITERAL)) or [EX.lone]


def _drop(rng: random.Random, triples: list[Triple], p: Term) -> None:
    found = [i for i, t in enumerate(triples) if t.p == p]
    if found:
        del triples[rng.choice(found)]


def _chain_fault(rng: random.Random, triples: list[Triple], kind: str) -> None:
    p = rng.choice(list(CHAINS))
    pool = _members(triples, PKO.hasStep if p == PKO.nextStep else PKO.requiresAction)
    if kind == "cycle":
        ring = [rng.choice(pool) for _ in range(rng.randint(1, 3))]
        links = list(zip(ring, ring[1:] + ring[:1]))
    else:
        a, b, c = (rng.choice(pool) for _ in range(3))
        links = [(a, b), (a, c)] if kind == "fork" else [(a, c), (b, c)]
    triples.extend(Triple(s, p, o) for s, o in links)


def seed_fault(rng: random.Random, triples: list[Triple]) -> None:
    """Apply one random fault to ``triples`` in place."""
    actions = _members(triples, PKO.requiresAction)
    kind = rng.choice(["drop-type", "literal-target", "second-target", "literal-action", "fork", "join", "cycle",
                       "drop-label", "iri-label", "typed-step", "typed-affordance", "r1-link", "literal-node",
                       "drop-link"])
    if kind == "drop-type":
        _drop(rng, triples, RDF.type)
    elif kind == "drop-link":  # most often leaves a chain incomplete
        _drop(rng, triples, rng.choice(list(CHAINS)))
    elif kind == "literal-target":
        triples.append(Triple(rng.choice(actions), OBOT.actsOn, literal("the cup")))
    elif kind == "second-target":
        triples.append(Triple(rng.choice(actions), OBOT.actsOn, rng.choice(_members(triples, OBOT.actsOn))))
    elif kind == "literal-action":
        triples.append(Triple(rng.choice(_members(triples, PKO.hasStep)), PKO.requiresAction, literal("wipe")))
    elif kind in ("fork", "join", "cycle"):
        _chain_fault(rng, triples, kind)
    elif kind == "drop-label":
        _drop(rng, triples, RDFS.label)
    elif kind == "iri-label":
        labels = [i for i, t in enumerate(triples) if t.p == RDFS.label]
        if labels:
            i = rng.choice(labels)
            triples[i] = Triple(triples[i].s, RDFS.label, rng.choice([EX.Name, blank("name")]))
    elif kind == "typed-step":
        triples.append(Triple(rng.choice(_members(triples, PKO.hasStep)), RDF.type, PPLAN.Step))
    elif kind == "typed-affordance":  # an affordance outside SOMA, typed as one or not
        p = rng.choice([OBOT.requiresAffordance, OBOT.enablesAffordance])
        triples.append(Triple(rng.choice(actions), p, EX.Wiping))
        triples.append(Triple(EX.Wiping, RDF.type, rng.choice([OBOT.Affordance, SOMA.Affordance, OBOT.Component])))
    elif kind == "literal-node":  # a literal procedure of an activity, or a literal step of a procedure
        p = rng.choice(list(NODE_RANGES))
        owners = [s for s, q, _ in triples if q == p] or [EX.owner]
        triples.append(Triple(rng.choice(owners), p, literal("make tea")))
    else:
        p = rng.choice([OBOT.actsOn, OBOT.requiresAffordance, OBOT.enablesAffordance, OBOT.hasNode, DUL.hasComponent])
        nodes = [t.s for t in triples] + [EX.elsewhere, SOMA.Wiping, literal("x")]
        triples.append(Triple(rng.choice(nodes[:-1]), p, rng.choice(nodes)))


def faulty(rng: random.Random, source: Graph, faults: int) -> Graph:
    triples = list(source)
    for _ in range(faults):
        seed_fault(rng, triples)
    g = Graph()
    for t in triples:
        g.insert(t)
    return g.freeze()


# Each message validate can give, its numbers written N.
TEMPLATES = {
    "R1 obot:actsOn target must be a component, not a literal",
    "R1 obot:actsOn target is not typed obot:Component",
    "R1 obot:requiresAffordance object is not an affordance IRI",
    "R1 obot:enablesAffordance object is not an affordance IRI",
    "R1 obot:hasNode subject is not typed obot:Agent",
    "R1 obot:hasNode object is not typed ros:Node",
    "R1 dul:hasComponent subject is not typed obot:Environment",
    "R1 dul:hasComponent object is not typed obot:Component",
    *(f"R1 {message}, not a literal" for message in NODE_RANGES.values()),
    *(f"R2 {name} {fault}" for name in CHAINS.values() for fault in
      ("fork: node has N successors", "join: node has N predecessors", "chain contains a cycle",
       "chain: its N members do not form one path")),
    "R3 action requires no affordance",
    "R3 action has N obot:actsOn targets (at most N allowed)",
    "R3 action has no obot:actsOn target",
    *(f"R4 {name} instance has no rdfs:label" for name in LABELLED.values()),
    "R4 pko:executesProcedure object has no rdfs:label",
}


def test_validate_agrees_with_the_oracle_on_the_fixtures(activities, robots, union, kb):
    for g in (activities, robots, union, kb.graph):
        assert_validate_agrees(g)


def test_validate_agrees_with_the_oracle_on_the_fixtures_with_seeded_faults(union):
    raised: list[bool] = []
    for seed in range(20):
        g = faulty(random.Random(seed), union, 3)
        raised += assert_cq2_agrees(g, assert_validate_agrees(g))
    assert any(raised) and not all(raised)


def test_validate_agrees_with_the_oracle_on_random_graphs_with_seeded_faults():
    seen: set[str] = set()
    raised: list[bool] = []
    for seed in range(300):
        rng = random.Random(seed)
        g = faulty(rng, random_ontobot_graph(rng), rng.randint(0, 4))
        reports = assert_validate_agrees(g)
        seen |= {f"{rule} {re.sub(r'[0-9]+', 'N', message)}" for rule, _, message in reports}
        raised += assert_cq2_agrees(g, reports)
    assert seen == TEMPLATES
    assert any(raised) and not all(raised)
