"""The robot/task vocabulary, subclass inference, and structural validation.

The vocabulary collects every class and property the engine's queries and
reasoning touch: the four newly minted ``obot:`` classes, the six minted
``obot:`` object properties, and the reused terms from DUL, SOMA, PKO,
P-Plan, PROV, FOAF, and the ROS ontology, together with the subclass axioms
that anchor the minted classes in those vocabularies.

``add_inferred_types`` materializes in a loading graph (``infer_types`` in a
copy) the RDFS consequence that an instance of a class is an instance of
every superclass, using the vocabulary axioms and the graph's own axioms.

``validate`` runs four advisory rule groups (R1 domain/range, R2 order
chains, R3 action connectivity, R4 label presence) and reports violations
as data; an invalid graph is still readable and queryable.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from ontobot.graph import IRI, LITERAL, Graph, Term, Triple
from ontobot.namespaces import (
    DUL,
    FOAF,
    OBOT,
    PKO,
    PPLAN,
    PROV,
    RDF,
    RDFS,
    ROS,
    SOMA,
    STANDARD_PREFIXES,
)

#: Affordance constants the case study uses as query answers.
AFFORDANCES: frozenset[Term] = frozenset(
    {SOMA.Grasping, SOMA.Holding, SOMA.Placing, SOMA.Pouring, SOMA.Opening, SOMA.Closing}
)

OBOT_CLASSES: frozenset[Term] = frozenset(
    {OBOT.Agent, OBOT.Environment, OBOT.Component, OBOT.Affordance}
)

OBOT_PROPERTIES: frozenset[Term] = frozenset(
    {
        OBOT.hasNode,
        OBOT.enablesAffordance,
        OBOT.hasAffordance,
        OBOT.actsOn,
        OBOT.requiresAffordance,
        OBOT.nextAction,
    }
)


class Vocabulary(NamedTuple):
    classes: frozenset[Term]
    properties: frozenset[Term]
    subclass_axioms: frozenset[tuple[Term, Term]]


ONTOBOT_VOCABULARY = Vocabulary(
    classes=OBOT_CLASSES
    | frozenset(
        {
            DUL.Agent,
            DUL.Place,
            SOMA.Affordance,
            SOMA.PhysicalTask,
            PROV.Activity,
            PKO.Procedure,
            PPLAN.Step,
            PKO.Action,
            ROS.Node,
            ROS.CommunicationComponent,
            ROS.Message,
            ROS.Capability,
            ROS.ROSCommunication,
        }
    ),
    properties=OBOT_PROPERTIES
    | frozenset(
        {
            DUL.hasComponent,
            PKO.executesProcedure,
            PKO.hasStep,
            PKO.nextStep,
            PKO.requiresAction,
            PROV.wasAssociatedWith,
            ROS.communicatesThrough,
            ROS.hasComponent,
            ROS.hasMessage,
            ROS.evokes,
            RDFS.label,
            RDFS.subClassOf,
            RDF.type,
        }
    ),
    subclass_axioms=frozenset(
        {
            (OBOT.Agent, DUL.Agent),
            (OBOT.Agent, PROV.Agent),
            (OBOT.Agent, FOAF.Agent),
            (OBOT.Environment, DUL.Place),
            (OBOT.Affordance, SOMA.Affordance),
            (OBOT.Affordance, SOMA.PhysicalTask),
        }
    ),
)


def _superclass_closure(axioms: Iterable[tuple[Term, Term]]) -> dict[Term, set[Term]]:
    """Reflexive-transitive closure of the subclass relation."""
    direct: dict[Term, set[Term]] = {}
    for sub, sup in axioms:
        direct.setdefault(sub, set()).add(sup)
    closure: dict[Term, set[Term]] = {}
    for cls in direct:
        result = {cls}
        stack = list(direct[cls])
        while stack:
            sup = stack.pop()
            if sup in result:
                continue
            result.add(sup)
            stack.extend(direct.get(sup, ()))
        closure[cls] = result
    return closure


def add_inferred_types(g: Graph, vocabulary: Vocabulary = ONTOBOT_VOCABULARY) -> None:
    """Insert into the unfrozen ``g`` every derivable ``rdf:type`` triple.

    The subclass relation is the union of the vocabulary's axioms and any
    ``rdfs:subClassOf`` triples present in the graph; the result is the
    fixpoint, so applying it twice changes nothing.
    """
    axioms = set(vocabulary.subclass_axioms)
    for t in g.match(None, RDFS.subClassOf, None):
        axioms.add((t.s, t.o))
    closure = _superclass_closure(axioms)
    for t in g.match(None, RDF.type, None):
        for sup in closure.get(t.o, ()):
            g.insert(Triple(t.s, RDF.type, sup))


def infer_types(g: Graph, vocabulary: Vocabulary = ONTOBOT_VOCABULARY) -> Graph:
    """A new frozen graph: ``g`` with all derivable ``rdf:type`` triples added."""
    out = g.copy()
    add_inferred_types(out, vocabulary)
    return out.freeze()


class Violation(NamedTuple):
    rule: str
    subject: Term | Triple
    message: str


class ValidationReport(NamedTuple):
    violations: list[Violation]
    warnings: list[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations


def _is_affordance(g: Graph, term: Term) -> bool:
    if term.kind != IRI:
        return False
    if term in AFFORDANCES or term.value.startswith(SOMA.base):
        return True
    return Triple(term, RDF.type, OBOT.Affordance) in g or Triple(term, RDF.type, SOMA.Affordance) in g


def _check_domain_range(g: Graph, out: ValidationReport) -> None:
    for t in g.match(None, OBOT.actsOn, None):
        if t.o.kind == LITERAL:
            out.violations.append(Violation("R1", t, "obot:actsOn target must be a component, not a literal"))
        elif Triple(t.o, RDF.type, OBOT.Component) not in g:
            out.violations.append(Violation("R1", t, "obot:actsOn target is not typed obot:Component"))
    for prop, label in ((OBOT.requiresAffordance, "obot:requiresAffordance"), (OBOT.enablesAffordance, "obot:enablesAffordance")):
        for t in g.match(None, prop, None):
            if not _is_affordance(g, t.o):
                out.violations.append(Violation("R1", t, f"{label} object is not an affordance IRI"))
    for t in g.match(None, OBOT.hasNode, None):
        if Triple(t.s, RDF.type, OBOT.Agent) not in g:
            out.violations.append(Violation("R1", t, "obot:hasNode subject is not typed obot:Agent"))
        if t.o.kind == LITERAL or Triple(t.o, RDF.type, ROS.Node) not in g:
            out.violations.append(Violation("R1", t, "obot:hasNode object is not typed ros:Node"))
    for t in g.match(None, DUL.hasComponent, None):
        if Triple(t.s, RDF.type, OBOT.Environment) not in g:
            out.violations.append(Violation("R1", t, "dul:hasComponent subject is not typed obot:Environment"))
        if t.o.kind == LITERAL or Triple(t.o, RDF.type, OBOT.Component) not in g:
            out.violations.append(Violation("R1", t, "dul:hasComponent object is not typed obot:Component"))


def _check_order_chains(g: Graph, out: ValidationReport) -> None:
    for prop, label in ((PKO.nextStep, "pko:nextStep"), (OBOT.nextAction, "obot:nextAction")):
        succ: dict[Term, list[Term]] = {}
        pred: dict[Term, list[Term]] = {}
        for t in g.match(None, prop, None):
            succ.setdefault(t.s, []).append(t.o)
            pred.setdefault(t.o, []).append(t.s)
        for node, followers in succ.items():
            if len(followers) > 1:
                out.violations.append(Violation("R2", node, f"{label} fork: node has {len(followers)} successors"))
        for node, sources in pred.items():
            if len(sources) > 1:
                out.violations.append(Violation("R2", node, f"{label} join: node has {len(sources)} predecessors"))
        # Depth first over every successor; a cycle is reported once, at the node its back edge reaches.
        done: set[Term] = set()
        cyclic: set[Term] = set()
        for start in succ:
            if start in done:
                continue
            path = {start}
            stack = [(start, iter(succ[start]))]
            while stack:
                node, followers = stack[-1]
                after = next(followers, None)
                if after is None:
                    stack.pop()
                    path.discard(node)
                    done.add(node)
                elif after in path:
                    if after not in cyclic:
                        cyclic.add(after)
                        out.violations.append(Violation("R2", after, f"{label} chain contains a cycle"))
                elif after in succ and after not in done:
                    path.add(after)
                    stack.append((after, iter(succ[after])))


def _check_action_connectivity(g: Graph, out: ValidationReport) -> None:
    actions: dict[Term, None] = {}
    for t in g.match(None, PKO.requiresAction, None):
        if t.o.kind != LITERAL:
            actions.setdefault(t.o)
    for action in actions:
        affordances = g.objects(action, OBOT.requiresAffordance)
        if not affordances:
            out.violations.append(Violation("R3", action, "action requires no affordance"))
        targets = g.objects(action, OBOT.actsOn)
        if len(targets) > 1:
            out.violations.append(Violation("R3", action, f"action has {len(targets)} obot:actsOn targets (at most 1 allowed)"))
        elif not targets:
            out.warnings.append(Violation("R3", action, "action has no obot:actsOn target"))


def _check_labels(g: Graph, out: ValidationReport) -> None:
    for cls, label in ((PROV.Activity, "prov:Activity"), (PPLAN.Step, "pplan:Step"), (PKO.Action, "pko:Action")):
        for node in g.subjects(RDF.type, cls):
            if not g.objects(node, RDFS.label):
                out.violations.append(Violation("R4", node, f"{label} instance has no rdfs:label"))


def validate(g: Graph, vocabulary: Vocabulary = ONTOBOT_VOCABULARY) -> ValidationReport:
    """Run the structural rule checks; violations are data, not failures."""
    report = ValidationReport(violations=[], warnings=[])
    _check_domain_range(g, report)
    _check_order_chains(g, report)
    _check_action_connectivity(g, report)
    _check_labels(g, report)
    return report


def vocabulary_graph(vocabulary: Vocabulary = ONTOBOT_VOCABULARY) -> Graph:
    """The vocabulary itself as a graph, suitable for Turtle emission."""
    g = Graph(
        {
            name: base
            for name, base in STANDARD_PREFIXES.items()
            if name in ("rdf", "rdfs", "obot", "dul", "soma", "pko", "pplan", "ros", "prov", "foaf")
        }
    )
    for cls in sorted(vocabulary.classes, key=Term.sort_key):
        g.insert(Triple(cls, RDF.type, RDFS.Class))
    for prop in sorted(vocabulary.properties, key=Term.sort_key):
        g.insert(Triple(prop, RDF.type, RDF.Property))
    for sub, sup in sorted(vocabulary.subclass_axioms, key=lambda pair: (pair[0].sort_key(), pair[1].sort_key())):
        g.insert(Triple(sub, RDFS.subClassOf, sup))
    return g.freeze()
