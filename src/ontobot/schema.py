"""The OntoBOT subclass axioms, subclass inference, and structural validation.

The OntoBOT vocabulary is the packaged Turtle file ``fixtures/ontobot-vocab.ttl``:
the four newly minted ``obot:`` classes, the six minted ``obot:`` properties,
reused terms from DUL, SOMA, PKO, P-Plan, PROV and the ROS ontology, and the
six ``rdfs:subClassOf`` axioms that anchor the minted classes in DUL, PROV,
FOAF and SOMA. It declares every predicate, and every class used with ``a``,
that the packaged fixtures and queries use. Of the vocabulary, inference
needs only the axioms, so the code keeps just those, as ``SUBCLASS_AXIOMS``,
and never reads the file.

``add_inferred_types`` materializes in a loading graph (``infer_types`` in a
copy) the RDFS consequence that an instance of a class is an instance of
every superclass, using ``SUBCLASS_AXIOMS`` and the graph's own axioms.

``validate`` runs four advisory rule groups (R1 domain/range, R2 order chains,
each owner's members checked by ``_chain_order``, the rule CQ2 orders by, R3
action connectivity, R4 labels, read from ``literal_labels``, the one rule for
a node's name) and reports violations as data; an invalid graph is still
readable and queryable. It groups no triples itself: R2-R4 read the graph's
own groups (``Graph.group``), the one grouping of triples by position, and
leave them built and kept exact, so a later insert shows in the next report.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from ontobot.graph import IRI, LITERAL, Graph, Term, Triple
from ontobot.namespaces import DUL, FOAF, OBOT, PKO, PPLAN, PROV, RDF, RDFS, ROS, SOMA

#: The vocabulary's ``rdfs:subClassOf`` axioms as ``(sub, sup)`` pairs; a test pins them to the file's.
SUBCLASS_AXIOMS: frozenset[tuple[Term, Term]] = frozenset(
    {
        (OBOT.Agent, DUL.Agent),
        (OBOT.Agent, PROV.Agent),
        (OBOT.Agent, FOAF.Agent),
        (OBOT.Environment, DUL.Place),
        (OBOT.Affordance, SOMA.Affordance),
        (OBOT.Affordance, SOMA.PhysicalTask),
    }
)

#: The order-chain predicates, each with the name that R2 and a plan's ``ChainError`` give it, in R2's report order.
ORDER_CHAINS: dict[Term, str] = {PKO.nextStep: "pko:nextStep", OBOT.nextAction: "obot:nextAction"}
#: Each order chain's member predicate: the chain orders the members an owner has under it.
_CHAIN_MEMBERS: dict[Term, Term] = {PKO.nextStep: PKO.hasStep, OBOT.nextAction: PKO.requiresAction}


def _chain_order(items: list[Term], links: Iterable[Triple]) -> list[Term] | str:
    """Topologically order ``items`` along ``links``, distinct triples of one predicate; else the first fault's reason.

    The chain must be a single path over the items: no forks, no joins, no
    cycles, and no disconnected pieces; a member's second link is a fork.
    """
    if not items:
        return items
    members = set(items)
    succ: dict[Term, Term] = {}
    incoming: set[Term] = set()
    for t in links:
        if t.s not in members or t.o not in members:
            continue
        if t.s in succ:
            return f"fork at {t.s.n3()}"
        if t.o in incoming:
            return f"join at {t.o.n3()}"
        succ[t.s] = t.o
        incoming.add(t.o)
    heads = [x for x in items if x not in incoming]
    if len(heads) != 1:
        return "chain contains a cycle" if not heads else f"{len(heads)} chain heads (incomplete chain)"
    # No node has two successors or two predecessors, and the head has none, so the walk never revisits a node.
    ordered = [heads[0]]
    while ordered[-1] in succ:
        ordered.append(succ[ordered[-1]])
    if len(ordered) != len(items):
        return "chain does not connect all elements"
    return ordered


def literal_labels(g: Graph) -> dict[Term, str]:
    """Each node's first literal ``rdfs:label``, the name every answer shows (read reversed, so the first one wins)."""
    return {t.s: t.o.value for t in reversed(g.lookup(None, RDFS.label, None)) if t.o.kind == LITERAL}


def add_inferred_types(g: Graph) -> None:
    """Insert into the unfrozen ``g`` every derivable ``rdf:type`` triple.

    The subclass relation is the union of ``SUBCLASS_AXIOMS`` and any
    ``rdfs:subClassOf`` triples present in the graph; the result is the
    fixpoint, so applying it twice changes nothing. The order is fixed: each
    asserted type triple, in graph order, gets its class's superclasses
    depth first, each class's direct ones taken from ``SUBCLASS_AXIOMS``
    sorted by ``Term.sort_key``, then from the graph's axioms in graph order.
    """
    direct: dict[Term, list[Term]] = {}
    for sub, sup in sorted(SUBCLASS_AXIOMS):  # pairs of terms compare by sort_key
        direct.setdefault(sub, []).append(sup)
    for t in g.lookup(None, RDFS.subClassOf, None):
        direct.setdefault(t.s, []).append(t.o)
    for t in list(g.lookup(None, RDF.type, None)):  # a copy: the inserts below append to what lookup returns
        if t.o not in direct:
            continue
        seen, stack = {t.o}, direct[t.o][::-1]
        while stack:
            sup = stack.pop()
            if sup not in seen:
                seen.add(sup)
                g.insert(Triple(t.s, RDF.type, sup))
                stack.extend(reversed(direct.get(sup, ())))


def infer_types(g: Graph) -> Graph:
    """A new frozen graph: ``g`` with all derivable ``rdf:type`` triples added."""
    out = g.copy()
    add_inferred_types(out)
    return out.freeze()


class Violation(namedtuple("Violation", "rule subject message")):
    """One finding: its ``rule`` (``"R1"``-``"R4"``), ``subject`` (a ``Term`` or a ``Triple``) and ``message``."""

    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", "violations warnings")):
    """The ``violations`` and the ``warnings`` of one run, each a list of :class:`Violation` in report order."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def _is_affordance(g: Graph, term: Term) -> bool:
    if term.kind != IRI:
        return False
    if term in SOMA:
        return True
    return (term, RDF.type, OBOT.Affordance) in g or (term, RDF.type, SOMA.Affordance) in g


def _check_domain_range(g: Graph, out: ValidationReport) -> None:
    for t in g.lookup(None, OBOT.actsOn, None):
        if t.o.kind == LITERAL:
            out.violations.append(Violation("R1", t, "obot:actsOn target must be a component, not a literal"))
        elif (t.o, RDF.type, OBOT.Component) not in g:
            out.violations.append(Violation("R1", t, "obot:actsOn target is not typed obot:Component"))
    for prop, message in ((PKO.executesProcedure, "pko:executesProcedure object must be a procedure"),
                          (PKO.hasStep, "pko:hasStep object must be a step")):
        for t in g.lookup(None, prop, None):
            if t.o.kind == LITERAL:
                out.violations.append(Violation("R1", t, f"{message}, not a literal"))
    for prop, label in ((OBOT.requiresAffordance, "obot:requiresAffordance"),
                        (OBOT.enablesAffordance, "obot:enablesAffordance")):
        for t in g.lookup(None, prop, None):
            if not _is_affordance(g, t.o):
                out.violations.append(Violation("R1", t, f"{label} object is not an affordance IRI"))
    for t in g.lookup(None, OBOT.hasNode, None):
        if (t.s, RDF.type, OBOT.Agent) not in g:
            out.violations.append(Violation("R1", t, "obot:hasNode subject is not typed obot:Agent"))
        if (t.o, RDF.type, ROS.Node) not in g:
            out.violations.append(Violation("R1", t, "obot:hasNode object is not typed ros:Node"))
    for t in g.lookup(None, DUL.hasComponent, None):
        if (t.s, RDF.type, OBOT.Environment) not in g:
            out.violations.append(Violation("R1", t, "dul:hasComponent subject is not typed obot:Environment"))
        if (t.o, RDF.type, OBOT.Component) not in g:
            out.violations.append(Violation("R1", t, "dul:hasComponent object is not typed obot:Component"))


def _check_order_chains(g: Graph, out: ValidationReport) -> None:
    for prop, label in ORDER_CHAINS.items():
        succ = g.group(prop, 0)
        for node, links in succ.items():
            if len(links) > 1:
                out.violations.append(Violation("R2", node, f"{label} fork: node has {len(links)} successors"))
        for node, links in g.group(prop, 2).items():
            if len(links) > 1:
                out.violations.append(Violation("R2", node, f"{label} join: node has {len(links)} predecessors"))
        # Depth first over every successor; a cycle is reported once, at the node its back edge reaches.
        done: set[Term] = set()
        cyclic: set[Term] = set()
        for start in succ:
            if start in done:
                continue
            path = {start}
            stack = [(start, iter(succ[start]))]
            while stack:
                node, links = stack[-1]
                link = next(links, None)
                if link is None:
                    stack.pop()
                    path.discard(node)
                    done.add(node)
                elif link.o in path:
                    if link.o not in cyclic:
                        cyclic.add(link.o)
                        out.violations.append(Violation("R2", link.o, f"{label} chain contains a cycle"))
                elif link.o in succ and link.o not in done:
                    path.add(link.o)
                    stack.append((link.o, iter(succ[link.o])))
        for owner, members in g.group(_CHAIN_MEMBERS[prop], 0).items():
            items = [o for _, _, o in members]
            if isinstance(_chain_order(items, [t for m in items for t in succ.get(m, ())]), str):
                out.violations.append(Violation("R2", owner, f"{label} chain: its {len(members)} members do not form one path"))


def _check_action_connectivity(g: Graph, out: ValidationReport) -> None:
    for action in g.group(PKO.requiresAction, 2):
        if not g.lookup(action, OBOT.requiresAffordance, None):
            out.violations.append(Violation("R3", action, "action requires no affordance"))
        targets = g.lookup(action, OBOT.actsOn, None)
        if len(targets) > 1:
            out.violations.append(Violation("R3", action, f"action has {len(targets)} obot:actsOn targets (at most 1 allowed)"))
        elif not targets:
            out.warnings.append(Violation("R3", action, "action has no obot:actsOn target"))


def _check_labels(g: Graph, out: ValidationReport) -> None:
    labels = literal_labels(g)
    for cls, label in ((PROV.Activity, "prov:Activity"), (PPLAN.Step, "pplan:Step"), (PKO.Action, "pko:Action"),
                       (OBOT.Agent, "obot:Agent")):
        for node, _, _ in g.lookup(None, RDF.type, cls):
            if node not in labels:
                out.violations.append(Violation("R4", node, f"{label} instance has no rdfs:label"))
    for procedure in g.group(PKO.executesProcedure, 2):
        if procedure not in labels and procedure.kind != LITERAL:  # R1 reports a literal procedure
            out.violations.append(Violation("R4", procedure, "pko:executesProcedure object has no rdfs:label"))


def validate(g: Graph) -> ValidationReport:
    """Run the structural rule checks; violations are data, not failures."""
    report = ValidationReport(violations=[], warnings=[])
    _check_domain_range(g, report)
    _check_order_chains(g, report)
    _check_action_connectivity(g, report)
    _check_labels(g, report)
    return report
