"""Typed reasoning operations over a loaded knowledge base.

A :class:`KnowledgeBase` is the frozen union of an activity graph and a
robot graph with subclass inference applied, built in one pass by
:func:`load_graph`; its validation report is computed on first access and
kept. The graph never changes, so each fact is derived once: labels,
activities, agents and their name indexes at construction; each activity's
record (procedure sets, required set, CQ1 pairs), each robot's capability
profile and the feasibility matrix on first request, as one CLI run asks
one question. Task plans are built on every call from the graph's predicate
groups, each chain ordered from its members' own links; a faulty chain is
re-read in graph order to name its first fault and its owner's label.
On top of it this module answers the six competency questions:

1. which components and affordances an activity involves,
2. the activity's ordered procedure/step/action plan,
3. the affordance set an activity requires,
4. which robots can execute an activity,
5. whether one robot can execute several activities,
6. per-step gap reports and the full robots-by-steps feasibility matrix.

Robot capabilities are resolved through the full communication chain
(agent -> node -> communication component -> communication -> message ->
capability -> enabled affordance), and feasibility is native set
containment: a step is achievable for a robot when its required affordance
set is a subset of the robot's enabled set.

Granularity note: the feasibility matrix's five steps are the activities'
top-level procedures (Retrieve tableware, Retrieve food, Serve food, Put
away food, Load dishwasher); each decomposes further into ordered
fine-grained steps and atomic actions, which is the level the task plan
exposes. A step's required set is the union over all actions beneath it.
"""

from __future__ import annotations

import os
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, Union

from ontobot.graph import LITERAL, Graph, Term, Triple, blank_minter
from ontobot.namespaces import OBOT, PKO, PROV, RDF, RDFS, ROS
from ontobot.schema import ValidationReport, add_inferred_types, validate
from ontobot.turtle import TurtleParseError, parse_turtle_into


class UnknownEntityError(LookupError):
    """A label or IRI did not resolve to an entity of the expected kind."""

    def __init__(self, kind: str, wanted: str, available: Sequence[str]):
        listing = ", ".join(repr(name) for name in available) or "(none)"
        super().__init__(f"unknown {kind}: {wanted!r}; available: {listing}")
        self.kind = kind
        self.wanted = wanted
        self.available = list(available)


class ChainError(ValueError):
    """An order chain (nextStep / nextAction) is cyclic, forked, or incomplete."""

    def __init__(self, property_name: str, owner: str, reason: str):
        super().__init__(f"cannot order {property_name} chain of {owner}: {reason}")
        self.property_name = property_name
        self.owner = owner
        self.reason = reason


class PlanAction(NamedTuple):
    action: Term
    label: str
    target: Term | None
    affordances: frozenset[Term]


class PlanStep(NamedTuple):
    step: Term
    label: str
    actions: tuple[PlanAction, ...]


class PlanProcedure(NamedTuple):
    procedure: Term
    label: str
    steps: tuple[PlanStep, ...]


class TaskPlan(NamedTuple):
    activity: Term
    label: str
    procedures: tuple[PlanProcedure, ...]


class _ActivityFacts(NamedTuple):
    procedures: tuple[tuple[Term, str, frozenset[Term]], ...]  # (procedure, label, required set)
    required: frozenset[Term]  # the union of the procedures' sets
    pairs: frozenset[tuple[Term, Term]]  # CQ1's (component, affordance) pairs


class CapabilityChain(NamedTuple):
    node: Term
    message: Term
    capability: Term


class CapabilityProfile(NamedTuple):
    robot: Term
    label: str
    affordances: frozenset[Term]
    provenance: Mapping[Term, tuple[CapabilityChain, ...]]


class StepFeasibility(NamedTuple):
    step: Term
    label: str
    required: frozenset[Term]
    missing: frozenset[Term]

    @property
    def achievable(self) -> bool:
        return not self.missing


class FeasibilityReport(NamedTuple):
    robot: Term
    robot_label: str
    activity: Term
    activity_label: str
    steps: tuple[StepFeasibility, ...]

    @property
    def missing(self) -> frozenset[Term]:
        out: set[Term] = set()
        for step in self.steps:
            out.update(step.missing)
        return frozenset(out)

    @property
    def achievable(self) -> bool:
        return all(step.achievable for step in self.steps)


class FeasibilityMatrix(NamedTuple):
    """Achievability of every top-level step of every activity, per robot."""

    robots: tuple[tuple[Term, str], ...]
    steps: tuple[tuple[Term, Term, str], ...]  # (activity, step, step label)
    cells: Mapping[tuple[Term, Term], bool]  # (robot, step) -> achievable

    def achievable(self, robot: Term, step: Term) -> bool:
        return self.cells[(robot, step)]


def _chain_order(items: list[Term], links: Iterable[Triple], property_name: str, owner: str) -> list[Term]:
    """Topologically order ``items`` along a successor chain.

    The chain must be a single path over the items: no forks, no joins,
    no cycles, and no disconnected pieces.
    """
    if not items:
        return items
    members = set(items)
    succ: dict[Term, Term] = {}
    incoming: set[Term] = set()
    for t in links:
        if t.s not in members or t.o not in members:
            continue
        if t.s in succ and succ[t.s] != t.o:
            raise ChainError(property_name, owner, f"fork at {t.s.n3()}")
        if t.o in incoming:
            raise ChainError(property_name, owner, f"join at {t.o.n3()}")
        succ[t.s] = t.o
        incoming.add(t.o)
    heads = [x for x in items if x not in incoming]
    if len(heads) != 1:
        reason = "chain contains a cycle" if not heads else f"{len(heads)} chain heads (incomplete chain)"
        raise ChainError(property_name, owner, reason)
    # No node has two successors or two predecessors, and the head has none, so the walk never revisits a node.
    ordered = [heads[0]]
    while ordered[-1] in succ:
        ordered.append(succ[ordered[-1]])
    if len(ordered) != len(items):
        raise ChainError(property_name, owner, "chain does not connect all elements")
    return ordered


def _name_index(instances: Mapping[Term, str]) -> dict[Term | str, Term]:
    """Each instance to itself; each label, then each IRI string not already a key, to the first in load order."""
    index: dict[Term | str, Term] = {node: node for node in instances}
    for node, label in instances.items():
        index.setdefault(label, node)
    for node in instances:
        index.setdefault(node.value, node)
    return index


GraphSource = Union[Graph, str, "os.PathLike[str]"]


def load_graph(sources: Iterable[GraphSource], infer: bool = True,
               read: Callable[[GraphSource], str] = lambda path: Path(path).read_text(encoding="utf-8")) -> Graph:
    """One frozen union of graphs and Turtle files, each file parsed straight into it.

    Blank nodes and prefixes come out as :func:`merge_graphs` gives them, and
    a parse error names its file. With ``infer``, the inferred types are
    added before the union is frozen.
    """
    union, new_blank = Graph(), blank_minter("m")
    for src in sources:
        if isinstance(src, Graph):
            union.add_graph(src, new_blank)
            continue
        try:
            parse_turtle_into(union, read(src), new_blank)
        except TurtleParseError as exc:
            raise TurtleParseError(exc.diagnostic, src) from None
    if infer:
        add_inferred_types(union)
    return union.freeze()


class KnowledgeBase:
    """Frozen, inference-closed union of knowledge graphs; its report is validated on first access.

    The label map, activity and agent maps and their name indexes are built
    at construction; each activity's record (procedure sets, required set,
    CQ1 pairs), each robot's capability profile and the feasibility matrix on
    first request, and kept, so the graph is frozen. A name is a label or
    full IRI: a label beats an equal IRI, and the first in load order wins a
    repeated one. Task plans are built per call, and nothing of them is kept.
    """

    def __init__(self, graph: Graph):
        self.graph = graph.freeze()
        self._report: ValidationReport | None = None
        # Reversed, so that a node's first literal label is the one kept.
        labels = reversed(graph.lookup(None, RDFS.label, None))
        self._labels = {t.s: t.o.value for t in labels if t.o.kind == LITERAL}
        self._activities = {node: self.label_of(node) for node in graph.subjects(RDF.type, PROV.Activity)}
        self._agents = {node: self.label_of(node) for node in graph.subjects(RDF.type, OBOT.Agent)}
        self._activity_names, self._agent_names = _name_index(self._activities), _name_index(self._agents)
        self._facts: dict[Term, _ActivityFacts] = {}
        self._profiles: dict[Term, CapabilityProfile] = {}
        self._matrix: FeasibilityMatrix | None = None

    @classmethod
    def load(cls, *sources: GraphSource) -> "KnowledgeBase":
        """Build a knowledge base from graphs and/or paths to Turtle files."""
        return cls(load_graph(sources))

    @property
    def report(self) -> ValidationReport:
        """The graph's validation report, run on first access and then kept."""
        if self._report is None:
            self._report = validate(self.graph)
        return self._report

    # -- entity lookup -----------------------------------------------------

    def label_of(self, node: Term) -> str:
        return self._labels.get(node, node.value)

    def activities(self) -> list[tuple[Term, str]]:
        return list(self._activities.items())

    def agents(self) -> list[tuple[Term, str]]:
        return list(self._agents.items())

    def _resolve(self, wanted: Term | str, kind: str, instances: dict[Term, str], names: dict[Term | str, Term]) -> Term:
        try:
            return names[wanted]
        except KeyError:
            shown = wanted.n3() if isinstance(wanted, Term) else wanted
            raise UnknownEntityError(kind, shown, sorted(instances.values())) from None

    def activity_by_label(self, wanted: Term | str) -> Term:
        return self._resolve(wanted, "activity", self._activities, self._activity_names)

    def agent_by_label(self, wanted: Term | str) -> Term:
        return self._resolve(wanted, "robot", self._agents, self._agent_names)

    # -- task structure ----------------------------------------------------

    def _ordered(self, owner: Term, members_of: Mapping[Term, Sequence[Triple]],
                 links_of: Mapping[Term, Sequence[Triple]], link: Term, property_name: str) -> list[Term]:
        # members_of and links_of: the member and link predicates' groups by subject.
        members = [t[2] for t in members_of.get(owner, ())]
        own_links = [t for m in members for t in links_of.get(m, ())]
        try:
            return _chain_order(members, own_links, property_name, "")  # this error is never shown
        except ChainError:
            # Which fault is met first depends on link order: name the one graph order meets first.
            return _chain_order(members, self.graph.lookup(None, link, None), property_name, self.label_of(owner))

    def _walk(self, activity: Term) -> _ActivityFacts:
        # One read of the activity's procedures, steps, actions, targets and affordances; the record is kept.
        group = self.graph.group
        has_step, requires_action = group(PKO.hasStep, 0).get, group(PKO.requiresAction, 0).get
        acts_on, requires_affordance = group(OBOT.actsOn, 0).get, group(OBOT.requiresAffordance, 0).get
        procedures, everything, pairs = [], set(), set()
        for _, _, procedure in group(PKO.executesProcedure, 0).get(activity, ()):
            required: set[Term] = set()
            for _, _, step in has_step(procedure, ()):
                for _, _, action in requires_action(step, ()):
                    affordances = [t[2] for t in requires_affordance(action, ())]
                    required.update(affordances)
                    pairs.update((t[2], aff) for t in acts_on(action, ()) for aff in affordances)
            procedures.append((procedure, self.label_of(procedure), frozenset(required)))
            everything |= required
        facts = self._facts[activity] = _ActivityFacts(tuple(procedures), frozenset(everything), frozenset(pairs))
        return facts

    # -- competency question 1 ----------------------------------------------

    def objects_and_affordances(self, activity_label: Term | str) -> frozenset[tuple[Term, Term]]:
        """Distinct (component, affordance) pairs the activity's actions involve."""
        activity = self.activity_by_label(activity_label)
        return (self._facts.get(activity) or self._walk(activity)).pairs

    # -- competency question 2 ----------------------------------------------

    def task_plan(self, activity_label: Term | str) -> TaskPlan:
        """The activity's procedures with fully ordered steps and actions."""
        activity = self.activity_by_label(activity_label)
        group, label = self.graph.group, self.label_of
        has_step, next_step = group(PKO.hasStep, 0), group(PKO.nextStep, 0)
        requires_action, next_action = group(PKO.requiresAction, 0), group(OBOT.nextAction, 0)
        acts_on, requires_affordance = group(OBOT.actsOn, 0).get, group(OBOT.requiresAffordance, 0).get
        procedures = []
        for _, _, procedure in group(PKO.executesProcedure, 0).get(activity, ()):
            steps = []
            for step in self._ordered(procedure, has_step, next_step, PKO.nextStep, "pko:nextStep"):
                actions = []
                for action in self._ordered(step, requires_action, next_action, OBOT.nextAction, "obot:nextAction"):
                    targets = acts_on(action)
                    affordances = frozenset([t[2] for t in requires_affordance(action, ())])
                    actions.append(PlanAction(action, label(action), targets[0][2] if targets else None, affordances))
                steps.append(PlanStep(step, label(step), tuple(actions)))
            procedures.append(PlanProcedure(procedure, label(procedure), tuple(steps)))
        return TaskPlan(activity, label(activity), tuple(procedures))

    # -- competency question 3 ----------------------------------------------

    def required_affordances(self, activity: Term | str) -> frozenset[Term]:
        """Union of the affordances required by all of the activity's actions."""
        activity = self.activity_by_label(activity)
        return (self._facts.get(activity) or self._walk(activity)).required

    # -- capability side (competency questions 4-6) --------------------------

    def capability_profile(self, robot: Term | str) -> CapabilityProfile:
        """All affordances a robot's capabilities enable, with provenance chains."""
        robot = self.agent_by_label(robot)
        if robot in self._profiles:
            return self._profiles[robot]
        provenance: dict[Term, dict[CapabilityChain, None]] = {}  # ordered sets of chains
        for node in self.graph.objects(robot, OBOT.hasNode):
            for component in self.graph.objects(node, ROS.communicatesThrough):
                for comm in self.graph.subjects(ROS.hasComponent, component):
                    if Triple(comm, RDF.type, ROS.ROSCommunication) not in self.graph:
                        continue
                    for message in self.graph.objects(comm, ROS.hasMessage):
                        for capability in self.graph.objects(message, ROS.evokes):
                            for affordance in self.graph.objects(capability, OBOT.enablesAffordance):
                                provenance.setdefault(affordance, {})[CapabilityChain(node, message, capability)] = None
        profile = self._profiles[robot] = CapabilityProfile(
            robot=robot,
            label=self.label_of(robot),
            affordances=frozenset(provenance),
            provenance=MappingProxyType({aff: tuple(chains) for aff, chains in provenance.items()}),
        )
        return profile

    def capable_robots(self, activity: Term | str) -> frozenset[Term]:
        """Robots whose enabled affordances cover the activity's requirements."""
        required = self.required_affordances(activity)
        return frozenset(
            robot
            for robot, _ in self.agents()
            if required <= self.capability_profile(robot).affordances
        )

    def can_execute_all(self, robot: Term | str, activities: Iterable[Term | str]) -> bool:
        """True when one robot covers the union of several activities' requirements."""
        required: set[Term] = set()
        for activity in activities:
            required.update(self.required_affordances(activity))
        return required <= self.capability_profile(robot).affordances

    # -- competency question 6 ----------------------------------------------

    def gap_report(self, robot: Term | str, activity: Term | str) -> FeasibilityReport:
        """Which steps of the activity the robot can and cannot achieve, and why."""
        robot = self.agent_by_label(robot)
        activity = self.activity_by_label(activity)
        enabled = self.capability_profile(robot).affordances
        steps = tuple(
            StepFeasibility(step=step, label=label, required=required, missing=required - enabled)
            for step, label, required in (self._facts.get(activity) or self._walk(activity)).procedures
        )
        return FeasibilityReport(
            robot=robot,
            robot_label=self.label_of(robot),
            activity=activity,
            activity_label=self.label_of(activity),
            steps=steps,
        )

    def feasibility_matrix(self) -> FeasibilityMatrix:
        """Achievability of every activity's top-level steps for every robot.

        Built on first request and kept; ``cells`` is read-only and holds one
        entry per robot and distinct procedure; a shared procedure's rows read one cell.
        """
        if self._matrix is not None:
            return self._matrix
        robots = self.agents()
        steps = [(activity, *step) for activity, _ in self.activities()
                 for step in (self._facts.get(activity) or self._walk(activity)).procedures]
        cells: dict[tuple[Term, Term], bool] = {}
        for robot, _ in robots:
            enabled = self.capability_profile(robot).affordances
            for _, step, _, required in steps:
                cells[(robot, step)] = required <= enabled
        labelled = tuple((activity, step, label) for activity, step, label, _ in steps)
        matrix = self._matrix = FeasibilityMatrix(robots=tuple(robots), steps=labelled, cells=MappingProxyType(cells))
        return matrix
