"""Typed reasoning operations over a loaded knowledge base.

A :class:`KnowledgeBase` is the frozen union of an activity graph and a
robot graph with subclass inference applied, built in one pass by
:func:`load_graph`; its docstring says which facts it derives once and keeps.
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
from collections import namedtuple
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, Sequence, Union

from ontobot.graph import Graph, Term, Triple, blank_minter
from ontobot.namespaces import OBOT, PKO, PROV, RDF, ROS
from ontobot.schema import ORDER_CHAINS, ValidationReport, _chain_order, add_inferred_types, literal_labels, validate
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


class PlanAction(namedtuple("PlanAction", "action label target affordances")):
    """A plan's action: the ``target`` it acts on (or ``None``) and the frozenset of ``affordances`` it requires."""

    __slots__ = ()


class PlanStep(namedtuple("PlanStep", "step label actions")):
    """A step of a procedure, with its ``actions`` in chain order: a tuple of :class:`PlanAction`."""

    __slots__ = ()


class PlanProcedure(namedtuple("PlanProcedure", "procedure label steps")):
    """A procedure of an activity, with its ``steps`` in chain order: a tuple of :class:`PlanStep`."""

    __slots__ = ()


class TaskPlan(namedtuple("TaskPlan", "activity label procedures")):
    """CQ2's answer: an activity and its ``procedures``, a tuple of :class:`PlanProcedure`."""

    __slots__ = ()


class _ActivityFacts(namedtuple("_ActivityFacts", "procedures required pairs")):
    """An activity's kept record: ``procedures``, ``(procedure, label, required set)`` triples; ``required``,
    the union of their sets; and ``pairs``, CQ1's ``(component, affordance)`` pairs."""

    __slots__ = ()


class CapabilityChain(namedtuple("CapabilityChain", "node message capability")):
    """The ROS node, message and capability through which a robot enables an affordance."""

    __slots__ = ()


class CapabilityProfile(namedtuple("CapabilityProfile", "robot label affordances provenance")):
    """A robot's enabled ``affordances``, and their ``provenance``: a read-only mapping from each affordance
    to its tuple of :class:`CapabilityChain`."""

    __slots__ = ()


class StepFeasibility(namedtuple("StepFeasibility", "step label required missing")):
    """One top-level step of a gap report: the affordances it ``required`` and those the robot is ``missing``."""

    __slots__ = ()

    @property
    def achievable(self) -> bool:
        return not self.missing


class FeasibilityReport(namedtuple("FeasibilityReport", "robot robot_label activity activity_label steps")):
    """CQ6's gap report: a robot, an activity, and its ``steps``, a tuple of :class:`StepFeasibility`."""

    __slots__ = ()


class FeasibilityMatrix(namedtuple("FeasibilityMatrix", "robots steps cells")):
    """Achievability of every top-level step of every activity, per robot.

    ``robots`` holds ``(robot, label)`` pairs, ``steps`` ``(activity, step, step label)``
    triples, and ``cells`` maps ``(robot, step)`` to achievable (a bool).
    """

    __slots__ = ()

    def achievable(self, robot: Term, step: Term) -> bool:
        return self.cells[(robot, step)]


class _Names(dict):
    """Each instance to itself; each label, then each IRI string not already a key, to the first in load order."""

    def __init__(self, kind: str, instances: Mapping[Term, str]):
        super().__init__([(node, node) for node in instances])
        for node, label in instances.items():
            self.setdefault(label, node)
        for node in instances:
            self.setdefault(node.value, node)
        self.kind, self.instances = kind, instances

    def __missing__(self, wanted: Term | str) -> Term:  # a miss lists the kind's labels, sorted
        shown = wanted.n3() if isinstance(wanted, Term) else wanted
        raise UnknownEntityError(self.kind, shown, sorted(self.instances.values()))


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
    """Frozen, inference-closed union of knowledge graphs; each fact is derived once and kept.

    The graph never changes, so nothing kept goes stale. The label map
    (``schema.literal_labels``), the activity and agent maps and their name
    indexes are built at construction; the validation report, each activity's
    record (procedure sets, required set, CQ1 pairs), each robot's capability
    profile, each gap report (one per robot and activity pair asked) and the
    matrix on first request, as one CLI run asks one question.
    Each question resolves its names and reads these records itself, never
    through another. A name is a label or full IRI: a label beats an equal IRI,
    the first in load order wins a repeated one, and a miss raises
    :class:`UnknownEntityError`. CQ5 and CQ6 resolve the activity names before
    the robot; CQ5 then stops at the first activity the robot does not cover.
    Task plans are built per call from the predicate groups, each chain from its
    members' own links; only a faulty chain is re-read in graph order, to name
    its first fault and its owner's label, and nothing of a plan is kept.
    """

    def __init__(self, graph: Graph):
        self.graph = graph.freeze()
        self._validation: ValidationReport | None = None
        self._labels = literal_labels(graph)
        self._activities = {node: self.label_of(node) for node, _, _ in graph.lookup(None, RDF.type, PROV.Activity)}
        self._agents = {node: self.label_of(node) for node, _, _ in graph.lookup(None, RDF.type, OBOT.Agent)}
        self._activity_names, self._agent_names = _Names("activity", self._activities), _Names("robot", self._agents)
        self._facts: dict[Term, _ActivityFacts] = {}
        self._profiles: dict[Term, CapabilityProfile] = {}
        self._reports: dict[tuple[Term, Term], FeasibilityReport] = {}
        self._matrix: FeasibilityMatrix | None = None

    @classmethod
    def load(cls, *sources: GraphSource) -> "KnowledgeBase":
        """Build a knowledge base from graphs and/or paths to Turtle files."""
        return cls(load_graph(sources))

    @property
    def report(self) -> ValidationReport:
        """The graph's validation report, run on first access and then kept."""
        if self._validation is None:
            self._validation = validate(self.graph)
        return self._validation

    # -- entity lookup -----------------------------------------------------

    def label_of(self, node: Term) -> str:
        return self._labels.get(node, node.value)

    def activities(self) -> list[tuple[Term, str]]:
        return list(self._activities.items())

    def agents(self) -> list[tuple[Term, str]]:
        return list(self._agents.items())

    def activity_by_label(self, wanted: Term | str) -> Term:
        return self._activity_names[wanted]

    def agent_by_label(self, wanted: Term | str) -> Term:
        return self._agent_names[wanted]

    # -- task structure ----------------------------------------------------

    def _ordered(self, owner: Term, members_of: Mapping[Term, Sequence[Triple]],
                 links_of: Mapping[Term, Sequence[Triple]], link: Term) -> list[Term]:
        # members_of and links_of: the member and link predicates' groups by subject.
        members = [t[2] for t in members_of.get(owner, ())]
        ordered = _chain_order(members, [t for m in members for t in links_of.get(m, ())])
        if isinstance(ordered, str):  # the first fault depends on link order: name the one graph order meets first
            raise ChainError(ORDER_CHAINS[link], self.label_of(owner), _chain_order(members, self.graph.lookup(None, link, None)))
        return ordered

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
        activity = self._activity_names[activity_label]
        return (self._facts.get(activity) or self._walk(activity)).pairs

    # -- competency question 2 ----------------------------------------------

    def task_plan(self, activity_label: Term | str) -> TaskPlan:
        """The activity's procedures with fully ordered steps and actions."""
        activity = self._activity_names[activity_label]
        group, label = self.graph.group, self.label_of
        has_step, next_step = group(PKO.hasStep, 0), group(PKO.nextStep, 0)
        requires_action, next_action = group(PKO.requiresAction, 0), group(OBOT.nextAction, 0)
        acts_on, requires_affordance = group(OBOT.actsOn, 0).get, group(OBOT.requiresAffordance, 0).get
        procedures = []
        for _, _, procedure in group(PKO.executesProcedure, 0).get(activity, ()):
            steps = []
            for step in self._ordered(procedure, has_step, next_step, PKO.nextStep):
                actions = []
                for action in self._ordered(step, requires_action, next_action, OBOT.nextAction):
                    targets = acts_on(action)
                    affordances = frozenset([t[2] for t in requires_affordance(action, ())])
                    actions.append(PlanAction(action, label(action), targets[0][2] if targets else None, affordances))
                steps.append(PlanStep(step, label(step), tuple(actions)))
            procedures.append(PlanProcedure(procedure, label(procedure), tuple(steps)))
        return TaskPlan(activity, label(activity), tuple(procedures))

    # -- competency question 3 ----------------------------------------------

    def required_affordances(self, activity: Term | str) -> frozenset[Term]:
        """Union of the affordances required by all of the activity's actions."""
        activity = self._activity_names[activity]
        return (self._facts.get(activity) or self._walk(activity)).required

    # -- capability side (competency questions 4-6) --------------------------

    def capability_profile(self, robot: Term | str) -> CapabilityProfile:
        """All affordances a robot's capabilities enable, with provenance chains."""
        robot = self._agent_names[robot]
        return self._profiles.get(robot) or self._profile(robot)

    def _profile(self, robot: Term) -> CapabilityProfile:
        provenance: dict[Term, dict[CapabilityChain, None]] = {}  # ordered sets of chains
        graph, group = self.graph, self.graph.group
        through, comms_of = group(ROS.communicatesThrough, 0).get, group(ROS.hasComponent, 2).get
        messages, evokes, enables = group(ROS.hasMessage, 0).get, group(ROS.evokes, 0).get, group(OBOT.enablesAffordance, 0).get
        for _, _, node in group(OBOT.hasNode, 0).get(robot, ()):
            for _, _, component in through(node, ()):
                for comm, _, _ in comms_of(component, ()):
                    if (comm, RDF.type, ROS.ROSCommunication) not in graph:
                        continue
                    for _, _, message in messages(comm, ()):
                        for _, _, capability in evokes(message, ()):
                            for _, _, affordance in enables(capability, ()):
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
        activity, profiles = self._activity_names[activity], self._profiles
        required = (self._facts.get(activity) or self._walk(activity)).required
        return frozenset([robot for robot in self._agents
                          if required <= (profiles.get(robot) or self._profile(robot)).affordances])

    def can_execute_all(self, robot: Term | str, activities: Iterable[Term | str]) -> bool:
        """True when one robot covers each activity's requirements; the first activity it does not cover decides."""
        activities = list(map(self._activity_names.__getitem__, activities))  # every name resolves before any test
        robot = self._agent_names[robot]
        enabled, facts = (self._profiles.get(robot) or self._profile(robot)).affordances, self._facts
        for activity in activities:
            if not (facts.get(activity) or self._walk(activity)).required <= enabled:
                return False
        return True

    # -- competency question 6 ----------------------------------------------

    def gap_report(self, robot: Term | str, activity: Term | str) -> FeasibilityReport:
        """Which steps of the activity the robot can and cannot achieve, and why; built on first request and kept,
        one report per robot and activity pair asked."""
        activity, robot = self._activity_names[activity], self._agent_names[robot]  # as CQ5 resolves them
        return self._reports.get((robot, activity)) or self._report(robot, activity)

    def _report(self, robot: Term, activity: Term) -> FeasibilityReport:
        profile = self._profiles.get(robot) or self._profile(robot)
        steps = tuple([StepFeasibility(step, label, required, required - profile.affordances)
                       for step, label, required in (self._facts.get(activity) or self._walk(activity)).procedures])
        report = self._reports[(robot, activity)] = FeasibilityReport(
            robot, profile.label, activity, self._activities[activity], steps)
        return report

    def feasibility_matrix(self) -> FeasibilityMatrix:
        """Achievability of every activity's top-level steps for every robot.

        Built on first request and kept; ``cells`` is read-only and holds one
        entry per robot and distinct procedure; a shared procedure's rows read one cell.
        """
        if self._matrix is not None:
            return self._matrix
        facts, profiles = self._facts, self._profiles
        steps = [(activity, *step) for activity in self._activities
                 for step in (facts.get(activity) or self._walk(activity)).procedures]
        cells: dict[tuple[Term, Term], bool] = {}
        for robot in self._agents:
            enabled = (profiles.get(robot) or self._profile(robot)).affordances
            for _, step, _, required in steps:
                cells[(robot, step)] = required <= enabled
        labelled = tuple((activity, step, label) for activity, step, label, _ in steps)
        matrix = self._matrix = FeasibilityMatrix(tuple(self._agents.items()), labelled, MappingProxyType(cells))
        return matrix
