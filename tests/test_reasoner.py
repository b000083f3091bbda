from __future__ import annotations

import gc
import random
import weakref

import pytest

from helpers import oracle_evaluate, random_ontobot_graph, record_calls
from ontobot.cli import main
from ontobot.fixtures import query_path
from ontobot.graph import Graph, GraphError, Term, Triple, literal
from ontobot.namespaces import EX, OBOT, PROV, RDF, RDFS, SOMA, Namespace
from ontobot.query import evaluate, parse_query
from ontobot.reasoner import ChainError, FeasibilityReport, KnowledgeBase, PlanAction, PlanStep, UnknownEntityError
from ontobot.turtle import parse_turtle

AFFORDANCE = {
    "G": SOMA.Grasping,
    "H": SOMA.Holding,
    "P": SOMA.Placing,
    "Pour": SOMA.Pouring,
    "O": SOMA.Opening,
    "C": SOMA.Closing,
}

MINI_PREFIXES = """\
@prefix : <https://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix obot: <https://w3id.org/onto-bot#> .
@prefix soma: <http://www.ease-crc.org/ont/SOMA.owl#> .
@prefix pko: <https://w3id.org/pko#> .
@prefix pplan: <http://purl.org/net/p-plan#> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix ros: <http://data.mksmart.org/onto-ros/class#> .
"""


def mini_kb(body: str) -> KnowledgeBase:
    return KnowledgeBase.load(parse_turtle(MINI_PREFIXES + body))


# One copy of a small kitchen: an activity of two procedures with chained
# steps and actions, and a robot whose communication chain enables part of
# what it needs.
COPY_TEMPLATE = """
:act{i} a prov:Activity ; rdfs:label "Activity {i}" ; pko:executesProcedure :fetch{i} , :pour{i} .
:fetch{i} a pko:Procedure ; rdfs:label "Fetch {i}" ; pko:hasStep :grasp{i} , :lift{i} .
:grasp{i} a pplan:Step ; rdfs:label "Grasp {i}" ; pko:nextStep :lift{i} ; pko:requiresAction :graspCup{i} .
:lift{i} a pplan:Step ; rdfs:label "Lift {i}" ; pko:requiresAction :holdCup{i} , :raiseCup{i} .
:pour{i} a pko:Procedure ; rdfs:label "Pour {i}" ; pko:hasStep :tilt{i} .
:tilt{i} a pplan:Step ; rdfs:label "Tilt {i}" ; pko:requiresAction :tiltCup{i} .
:graspCup{i} a pko:Action ; rdfs:label "Grasp cup {i}" ; obot:actsOn :cup{i} ; obot:requiresAffordance soma:Grasping .
:holdCup{i} a pko:Action ; rdfs:label "Hold cup {i}" ; obot:actsOn :cup{i} ; obot:requiresAffordance soma:Holding ;
    obot:nextAction :raiseCup{i} .
:raiseCup{i} a pko:Action ; rdfs:label "Raise cup {i}" ; obot:actsOn :cup{i} ; obot:requiresAffordance soma:Holding .
:tiltCup{i} a pko:Action ; rdfs:label "Tilt cup {i}" ; obot:actsOn :cup{i} ; obot:requiresAffordance soma:Pouring .
:cup{i} a obot:Component ; rdfs:label "Cup {i}" .
:bot{i} a obot:Agent ; rdfs:label "Bot {i}" ; obot:hasNode :node{i} .
:node{i} a ros:Node ; ros:communicatesThrough :topic{i} .
:topic{i} a ros:CommunicationComponent .
:channel{i} a ros:ROSCommunication ; ros:hasComponent :topic{i} ; ros:hasMessage :message{i} .
:message{i} a ros:Message ; ros:evokes :gripping{i} .
:gripping{i} a ros:Capability ; obot:enablesAffordance soma:Grasping , soma:Holding .
"""


def copies_kb(n: int) -> KnowledgeBase:
    return mini_kb("".join(COPY_TEMPLATE.format(i=i) for i in range(n)))


# Shapes the random OntoBOT graphs never make: a procedure two activities
# execute, an action two steps require, an action with two targets, one with
# a literal target, and one with no required affordance.
EDGE_BODY = """
:a a prov:Activity ; rdfs:label "A" ; pko:executesProcedure :shared , :own .
:b a prov:Activity ; rdfs:label "B" ; pko:executesProcedure :shared .
:shared rdfs:label "Shared" ; pko:hasStep :s1 , :s2 .
:own rdfs:label "Own" ; pko:hasStep :s3 .
:s1 pko:requiresAction :grasp , :open .
:s2 pko:requiresAction :grasp , :look .
:s3 pko:requiresAction :pour .
:grasp obot:actsOn :cup , :bowl ; obot:requiresAffordance soma:Grasping , soma:Holding .
:open obot:actsOn "the drawer" ; obot:requiresAffordance soma:Opening .
:look obot:actsOn :shelf .
:pour obot:requiresAffordance soma:Pouring .
:bot a obot:Agent ; rdfs:label "Bot" ; obot:hasNode :node .
:node ros:communicatesThrough :topic .
:channel a ros:ROSCommunication ; ros:hasComponent :topic ; ros:hasMessage :message .
:message ros:evokes :gripping .
:gripping obot:enablesAffordance soma:Grasping , soma:Holding , soma:Opening .
"""


# -- CQ1 ---------------------------------------------------------------------


def test_cq1_drawer_bowl_orange_juice_pairs(kb):
    pairs = kb.objects_and_affordances("Prepare breakfast")
    for obj, affs in (
        (EX.drawer, {"O", "C"}),
        (EX.bowl, {"G", "H", "P"}),
        (EX.orangeJuice, {"G", "H", "P", "Pour"}),
    ):
        got = {aff for o, aff in pairs if o == obj}
        assert got == {AFFORDANCE[a] for a in affs}


def test_cq1_unknown_label_lists_available(kb):
    with pytest.raises(UnknownEntityError) as excinfo:
        kb.objects_and_affordances("Nonexistent activity")
    message = str(excinfo.value)
    assert "Prepare breakfast" in message
    assert "Reorganise the kitchen" in message


def test_cq1_matches_query_engine(kb):
    q = parse_query(query_path("cq1_object_affordances").read_text(encoding="utf-8"))
    via_query = {(s["object"], s["affordance"]) for s in evaluate(q, kb.graph)}
    assert kb.objects_and_affordances("Prepare breakfast") == via_query


# -- CQ2 ---------------------------------------------------------------------


def test_cq2_serve_food_structure(kb):
    plan = kb.task_plan("Prepare breakfast")
    assert [p.label for p in plan.procedures] == ["Retrieve tableware", "Retrieve food", "Serve food"]
    serve = plan.procedures[2]
    assert [s.label for s in serve.steps] == ["Serve milk", "Serve orange juice", "Serve cereal"]
    expected_actions = {
        "Serve milk": ["Grasp the milk", "Pour milk into the bowl", "Put milk down"],
        "Serve orange juice": ["Grasp the orange juice", "Pour the orange juice", "Put orange juice down"],
        "Serve cereal": ["Grasp the cereal box", "Pour cereal into the bowl", "Put cereal box down"],
    }
    for step in serve.steps:
        assert [a.label for a in step.actions] == expected_actions[step.label]
        assert all(a.affordances for a in step.actions)


def test_cq2_action_targets_and_affordances(kb):
    plan = kb.task_plan("Prepare breakfast")
    serve_milk = plan.procedures[2].steps[0]
    pour = serve_milk.actions[1]
    assert pour.target == EX.milk
    assert pour.affordances == {SOMA.Pouring}


def test_cq2_action_target_is_its_first_acts_on_object_in_graph_order():
    kb = mini_kb(
        """
        :act a prov:Activity ; rdfs:label "Tidy" ; pko:executesProcedure :proc .
        :proc a pko:Procedure ; rdfs:label "Only" ; pko:hasStep :step .
        :step a pplan:Step ; rdfs:label "Single" ; pko:requiresAction :both , :none .
        :both a pko:Action ; rdfs:label "Both" ; obot:actsOn :drawer , :bowl ;
            obot:requiresAffordance soma:Opening , soma:Grasping ; obot:nextAction :none .
        :none a pko:Action ; rdfs:label "None" .
        """
    )
    assert kb.task_plan("Tidy").procedures[0].steps[0].actions == (
        PlanAction(EX.both, "Both", EX.drawer, frozenset({SOMA.Opening, SOMA.Grasping})),
        PlanAction(EX.none, "None", None, frozenset()),
    )


def test_cq2_single_action_step_without_chain():
    kb = mini_kb(
        """
        :act a prov:Activity ; rdfs:label "Solo" ; pko:executesProcedure :proc .
        :proc a pko:Procedure ; rdfs:label "Only" ; pko:hasStep :step .
        :step a pplan:Step ; rdfs:label "Single" ; pko:requiresAction :action .
        :action a pko:Action ; rdfs:label "Do it" ;
            obot:requiresAffordance soma:Grasping .
        """
    )
    plan = kb.task_plan("Solo")
    assert [a.label for a in plan.procedures[0].steps[0].actions] == ["Do it"]


def test_cq2_procedure_without_steps_and_step_without_actions_are_empty():
    kb = mini_kb(
        """
        :act a prov:Activity ; rdfs:label "Empty" ; pko:executesProcedure :bare , :proc .
        :bare a pko:Procedure ; rdfs:label "No steps" .
        :proc a pko:Procedure ; rdfs:label "Idle" ; pko:hasStep :step .
        :step a pplan:Step ; rdfs:label "Nothing to do" .
        """
    )
    plan = kb.task_plan("Empty")
    assert [(p.label, p.steps) for p in plan.procedures] == [
        ("No steps", ()),
        ("Idle", (PlanStep(step=EX.step, label="Nothing to do", actions=()),)),
    ]


def test_cq2_broken_chain_is_an_error():
    cycles = [
        (
            """
            :proc pko:hasStep :s1 , :s2 .
            :s1 a pplan:Step ; rdfs:label "One" ; pko:nextStep :s2 .
            :s2 a pplan:Step ; rdfs:label "Two" ; pko:nextStep :s1 .
            """,
            "cannot order pko:nextStep chain of Loop: chain contains a cycle",
        ),
        # A chain of one member that links to itself is a cycle too.
        (
            """
            :proc pko:hasStep :step .
            :step a pplan:Step ; rdfs:label "Only" ; pko:nextStep :step .
            """,
            "cannot order pko:nextStep chain of Loop: chain contains a cycle",
        ),
        (
            """
            :proc pko:hasStep :step .
            :step a pplan:Step ; rdfs:label "Only" ; pko:requiresAction :action .
            :action a pko:Action ; rdfs:label "Do it" ; obot:nextAction :action .
            """,
            "cannot order obot:nextAction chain of Only: chain contains a cycle",
        ),
    ]
    # Each message names the chain's owner by its label.
    for body, message in cycles:
        kb = mini_kb(
            """
            :act a prov:Activity ; rdfs:label "Broken" ; pko:executesProcedure :proc .
            :proc a pko:Procedure ; rdfs:label "Loop" .
            """
            + body
        )
        with pytest.raises(ChainError) as excinfo:
            kb.task_plan("Broken")
        assert str(excinfo.value) == message


def test_a_forked_chain_builds_one_chain_error(monkeypatch):
    built = []

    class CountedChainError(ChainError):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr("ontobot.reasoner.ChainError", CountedChainError)
    kb = mini_kb(
        """
        :act a prov:Activity ; rdfs:label "Forked" ; pko:executesProcedure :proc .
        :proc a pko:Procedure ; rdfs:label "Fork" ; pko:hasStep :s1 , :s2 , :s3 .
        :s1 a pplan:Step ; rdfs:label "One" ; pko:nextStep :s2 , :s3 .
        :s2 a pplan:Step ; rdfs:label "Two" .
        :s3 a pplan:Step ; rdfs:label "Three" .
        """
    )
    with pytest.raises(ChainError) as excinfo:
        kb.task_plan("Forked")
    assert str(excinfo.value) == "cannot order pko:nextStep chain of Fork: fork at <https://example.org/s1>"
    assert built == [("pko:nextStep", "Fork", "fork at <https://example.org/s1>")]


def test_cq2_matches_query_engine(kb):
    q = parse_query(query_path("cq2_action_sequence").read_text(encoding="utf-8"))
    via_query = {
        (s["procedureLabel"].value, s["stepLabel"].value, s["actionLabel"].value)
        for s in evaluate(q, kb.graph)
    }
    plan = kb.task_plan("Prepare breakfast")
    via_plan = {
        (procedure.label, step.label, action.label)
        for procedure in plan.procedures
        for step in procedure.steps
        for action in step.actions
    }
    assert via_plan == via_query


# -- CQ3 ---------------------------------------------------------------------


def test_cq3_required_affordance_sets(kb):
    breakfast = kb.required_affordances(kb.activity_by_label("Prepare breakfast"))
    reorganise = kb.required_affordances(kb.activity_by_label("Reorganise the kitchen"))
    assert breakfast == set(AFFORDANCE.values())
    assert reorganise == set(AFFORDANCE.values()) - {SOMA.Pouring}


def test_cq3_accepts_full_iri_string(kb):
    assert kb.required_affordances("https://example.org/prepareBreakfast") == set(AFFORDANCE.values())


def test_cq3_activity_without_actions_is_empty():
    kb = mini_kb(':act a prov:Activity ; rdfs:label "Idle" .')
    assert kb.required_affordances("Idle") == frozenset()


def test_knowledge_base_freezes_the_graph_it_is_given():
    # Its label, activity and agent maps are built once, so a later insert would leave them stale.
    graph = Graph()
    graph.insert(Triple(EX.act, RDF.type, PROV.Activity))
    graph.insert(Triple(EX.act, RDFS.label, literal("Idle")))
    kb = KnowledgeBase(graph)
    assert kb.graph is graph and graph.frozen
    with pytest.raises(GraphError):
        graph.insert(Triple(EX.bot, RDF.type, OBOT.Agent))
    assert kb.activities() == [(EX.act, "Idle")]


def test_cq3_unknown_iri_is_an_error(kb):
    with pytest.raises(UnknownEntityError):
        kb.required_affordances("https://example.org/noSuchActivity")


def test_a_name_resolves_to_the_first_instance_by_label_then_by_iri():
    kb = mini_kb(
        """
:b a prov:Activity ; rdfs:label "B" .
:a a prov:Activity ; rdfs:label "https://example.org/b" .
:twin2 a prov:Activity ; rdfs:label "Twin" .
:twin1 a prov:Activity ; rdfs:label "Twin" .
:bare a prov:Activity .
:bot a obot:Agent ; rdfs:label "Bot" .
"""
    )
    # A label beats another node's equal IRI string, though that node comes first.
    assert kb.activity_by_label("https://example.org/b") == EX.a
    assert kb.activity_by_label("B") == EX.b
    # Of two activities with one label, the first in load order wins.
    assert kb.activity_by_label("Twin") == EX.twin2
    assert kb.activity_by_label("https://example.org/twin1") == EX.twin1
    assert kb.activity_by_label("https://example.org/bare") == EX.bare
    with pytest.raises(UnknownEntityError) as excinfo:
        kb.activity_by_label("Bot")
    assert excinfo.value.available == ["B", "Twin", "Twin", "https://example.org/b", "https://example.org/bare"]
    # A term resolves only to an instance of the kind asked for.
    assert kb.agent_by_label(EX.bot) == EX.bot
    with pytest.raises(UnknownEntityError):
        kb.activity_by_label(EX.bot)
    with pytest.raises(UnknownEntityError):
        kb.agent_by_label(EX.a)


def test_resolving_a_label_compares_it_with_at_most_one_stored_name():
    # The names are indexed once, so a lookup does not scan the activities.
    compared: list[object] = []

    class CountedName(str):
        __hash__ = str.__hash__

        def __eq__(self, other: object) -> bool:
            compared.append(other)
            return str.__eq__(self, other)

    for n in (8, 16):
        kb = copies_kb(n)
        compared.clear()
        assert kb.activity_by_label(CountedName(f"Activity {n - 1}")) == getattr(EX, f"act{n - 1}")
        assert len(compared) <= 1, (n, compared)


def test_cq1_and_cq3_match_the_oracle_on_shared_and_partial_actions():
    kb = mini_kb(EDGE_BODY)
    cq1 = query_path("cq1_object_affordances").read_text(encoding="utf-8")
    rows3 = oracle_evaluate(parse_query(query_path("cq3_required_affordances").read_text(encoding="utf-8")), kb.graph)
    for label in ("A", "B"):
        q1 = parse_query(cq1.replace('"Prepare breakfast"', f'"{label}"'))
        assert kb.objects_and_affordances(label) == set(oracle_evaluate(q1, kb.graph)), label
        assert kb.required_affordances(label) == {aff for name, aff in rows3 if name.value == label}, label
    assert kb.objects_and_affordances("B") == {
        (EX.cup, SOMA.Grasping), (EX.cup, SOMA.Holding), (EX.bowl, SOMA.Grasping), (EX.bowl, SOMA.Holding),
        (literal("the drawer"), SOMA.Opening),
    }
    assert kb.required_affordances("A") == {SOMA.Grasping, SOMA.Holding, SOMA.Opening, SOMA.Pouring}


def test_cq3_matches_query_engine(kb):
    q = parse_query(query_path("cq3_required_affordances").read_text(encoding="utf-8"))
    rows = evaluate(q, kb.graph)
    for activity, label in kb.activities():
        via_query = {s["affordance"] for s in rows if s["activityLabel"].value == label}
        assert kb.required_affordances(activity) == via_query


# -- capability profiles -------------------------------------------------------


def test_capability_profiles_match_robot_descriptions(kb):
    expected = {
        "TIAGo": {"G", "H", "P", "Pour", "O", "C"},
        "HSR": {"G", "H", "P", "O", "C"},
        "UR3": {"G", "H", "P", "Pour"},
        "Stretch": {"G", "P", "O", "C"},
    }
    for robot, label in kb.agents():
        profile = kb.capability_profile(robot)
        assert profile.affordances == {AFFORDANCE[a] for a in expected[label]}, label


def test_capability_profile_provenance_chain(kb):
    profile = kb.capability_profile(kb.agent_by_label("TIAGo"))
    chains = profile.provenance[SOMA.Pouring]
    assert len(chains) == 1
    node, message, capability = chains[0]
    assert node == EX.tiagoArmNode
    assert message == EX.tiagoMotionCommand
    assert capability == EX.tiagoPouring


def test_capability_profile_requires_agent_typing(kb):
    with pytest.raises(UnknownEntityError):
        kb.capability_profile(EX.drawer)


def test_capability_profile_without_nodes_is_empty():
    kb = mini_kb(':bot a obot:Agent ; rdfs:label "Bot" .')
    assert kb.capability_profile("Bot").affordances == frozenset()


def test_capability_profile_skips_communication_not_typed_ros_communication():
    kb = mini_kb(
        """
:bot a obot:Agent ; rdfs:label "Bot" ; obot:hasNode :node .
:node a ros:Node ; ros:communicatesThrough :topic .
:typed a ros:ROSCommunication ; ros:hasComponent :topic ; ros:hasMessage :grip .
:untyped ros:hasComponent :topic ; ros:hasMessage :pour .
:grip ros:evokes :gripping . :gripping obot:enablesAffordance soma:Grasping .
:pour ros:evokes :pouring . :pouring obot:enablesAffordance soma:Pouring .
"""
    )
    assert kb.capability_profile("Bot").affordances == {SOMA.Grasping}


def test_capability_profile_matches_query_engine(kb):
    q = parse_query(query_path("robot_affordances").read_text(encoding="utf-8"))
    rows = evaluate(q, kb.graph)
    for robot, label in kb.agents():
        via_query = {s["affordance"] for s in rows if s["robotLabel"].value == label}
        assert kb.capability_profile(robot).affordances == via_query


# -- CQ4 ---------------------------------------------------------------------


def test_cq4_capable_robots(kb):
    breakfast = kb.capable_robots(kb.activity_by_label("Prepare breakfast"))
    reorganise = kb.capable_robots(kb.activity_by_label("Reorganise the kitchen"))
    assert {kb.label_of(r) for r in breakfast} == {"TIAGo"}
    assert {kb.label_of(r) for r in reorganise} == {"TIAGo", "HSR"}


def test_cq4_activity_without_requirements_allows_all_robots(kb, activities, robots):
    extra = parse_turtle(MINI_PREFIXES + ':idle a prov:Activity ; rdfs:label "Idle" .')
    extended = KnowledgeBase.load(activities, robots, extra)
    capable = extended.capable_robots("Idle")
    assert {extended.label_of(r) for r in capable} == {"TIAGo", "HSR", "UR3", "Stretch"}


# -- CQ5 ---------------------------------------------------------------------


def test_cq5_only_tiago_can_execute_both(kb):
    activities = [a for a, _ in kb.activities()]
    results = {label: kb.can_execute_all(robot, activities) for robot, label in kb.agents()}
    assert results == {"TIAGo": True, "HSR": False, "UR3": False, "Stretch": False}


def test_cq5_empty_activity_set_is_vacuously_true(kb):
    for robot, _ in kb.agents():
        assert kb.can_execute_all(robot, []) is True


def test_cq5_consistent_with_cq4(kb):
    for activity, _ in kb.activities():
        capable = kb.capable_robots(activity)
        for robot, _ in kb.agents():
            assert (robot in capable) == kb.can_execute_all(robot, [activity])


def test_cq5_and_cq6_match_the_oracle_on_random_graphs():
    # The packaged CQ5 query, projected per activity as well, and the robot query, both through the nested-loop
    # oracle: a robot executes a list of activities when it enables the union of their requirements, and each
    # step misses what it requires minus what the robot enables.
    q5, qr = (parse_query(query_path(name).read_text(encoding="utf-8"))
              for name in ("cq5_required_affordances", "robot_affordances"))
    per_activity_q5 = q5._replace(projection=["activity", *q5.projection])
    for seed in range(120):
        kb = KnowledgeBase.load(random_ontobot_graph(random.Random(seed)))
        requires: dict[Term, set[Term]] = {activity: set() for activity, _ in kb.activities()}
        for activity, affordance in oracle_evaluate(per_activity_q5, kb.graph):
            requires[activity].add(affordance)
        assert {aff for (aff,) in oracle_evaluate(q5, kb.graph)} == set().union(*requires.values()), seed
        enables: dict[str, set[Term]] = {label: set() for _, label in kb.agents()}
        for label, affordance in oracle_evaluate(qr, kb.graph):
            enables[label.value].add(affordance)
        activities = list(requires)
        for robot, label in kb.agents():
            uncovered = [activity for activity in activities if not requires[activity] <= enables[label]]
            lists = [[], activities, [*activities, activities[0]], [activities[-1]] * 2, uncovered[:1] + activities,
                     [kb.label_of(activity) for activity in reversed(activities)]]
            for names in lists:
                wanted = set().union(*(requires[kb.activity_by_label(name)] for name in names)) <= enables[label]
                assert kb.can_execute_all(label, names) is wanted, (seed, label, names)
                assert kb.can_execute_all(robot, iter(names)) is wanted, (seed, label, names)
            for activity in activities:
                steps = kb.gap_report(robot, activity).steps
                assert set().union(*(step.required for step in steps)) == requires[activity], seed
                for step in steps:
                    assert step.missing == step.required - enables[label], (seed, label, step.label)


def test_cq5_and_cq6_resolve_every_name_before_they_test_an_activity(kb):
    assert kb.can_execute_all("HSR", ["Prepare breakfast"]) is False
    # An unknown label after an activity the robot does not cover still raises, naming that label.
    with pytest.raises(UnknownEntityError) as excinfo:
        kb.can_execute_all("HSR", ["Prepare breakfast", "No such activity"])
    assert (excinfo.value.kind, excinfo.value.wanted) == ("activity", "No such activity")
    # The activities resolve before the robot, so an unknown robot with an unknown activity names the activity.
    with pytest.raises(UnknownEntityError) as excinfo:
        kb.can_execute_all("No such robot", ["Reorganise the kitchen", "No such activity"])
    assert (excinfo.value.kind, excinfo.value.wanted) == ("activity", "No such activity")
    with pytest.raises(UnknownEntityError) as excinfo:
        kb.can_execute_all("No such robot", [])
    assert (excinfo.value.kind, excinfo.value.wanted) == ("robot", "No such robot")
    # CQ6 resolves in the same order: the activity, then the robot.
    with pytest.raises(UnknownEntityError) as excinfo:
        kb.gap_report("No such robot", "No such activity")
    assert (excinfo.value.kind, excinfo.value.wanted) == ("activity", "No such activity")
    with pytest.raises(UnknownEntityError) as excinfo:
        kb.gap_report("No such robot", "Prepare breakfast")
    assert (excinfo.value.kind, excinfo.value.wanted) == ("robot", "No such robot")
    # A kept report changes neither: once HSR's report on the activity is kept, each miss raises as before.
    kept = kb.gap_report("HSR", "Prepare breakfast")
    for robot, activity, kind, wanted in (("HSR", "No such activity", "activity", "No such activity"),
                                          ("No such robot", "No such activity", "activity", "No such activity"),
                                          ("No such robot", "Prepare breakfast", "robot", "No such robot")):
        with pytest.raises(UnknownEntityError) as excinfo:
            kb.gap_report(robot, activity)
        assert (excinfo.value.kind, excinfo.value.wanted) == (kind, wanted)
    assert kb.gap_report("HSR", "Prepare breakfast") is kept


# -- CQ6 ---------------------------------------------------------------------


def test_cq6_hsr_gap_report(kb):
    report = kb.gap_report(kb.agent_by_label("HSR"), kb.activity_by_label("Prepare breakfast"))
    by_label = {step.label: step for step in report.steps}
    assert by_label["Retrieve tableware"].achievable
    assert by_label["Retrieve food"].achievable
    assert not by_label["Serve food"].achievable
    assert by_label["Serve food"].missing == {SOMA.Pouring}
    assert not all(step.achievable for step in report.steps)
    assert frozenset().union(*(step.missing for step in report.steps)) == {SOMA.Pouring}


def test_cq6_ur3_gap_report(kb):
    report = kb.gap_report(kb.agent_by_label("UR3"), kb.activity_by_label("Prepare breakfast"))
    by_label = {step.label: step for step in report.steps}
    assert by_label["Serve food"].achievable
    for label in ("Retrieve tableware", "Retrieve food"):
        assert not by_label[label].achievable
        assert by_label[label].missing == {SOMA.Opening, SOMA.Closing}


def test_cq6_stretch_misses_holding_everywhere(kb):
    stretch = kb.agent_by_label("Stretch")
    for activity, _ in kb.activities():
        report = kb.gap_report(stretch, activity)
        assert report.steps
        for step in report.steps:
            assert not step.achievable
            assert SOMA.Holding in step.missing


def test_cq6_tiago_achieves_everything(kb):
    tiago = kb.agent_by_label("TIAGo")
    for activity, _ in kb.activities():
        assert all(step.achievable for step in kb.gap_report(tiago, activity).steps)


def test_feasibility_matrix_expected_cells(kb):
    matrix = kb.feasibility_matrix()
    expected = {
        ("Prepare breakfast", "Retrieve tableware"): {"TIAGo": True, "HSR": True, "UR3": False, "Stretch": False},
        ("Prepare breakfast", "Retrieve food"): {"TIAGo": True, "HSR": True, "UR3": False, "Stretch": False},
        ("Prepare breakfast", "Serve food"): {"TIAGo": True, "HSR": False, "UR3": True, "Stretch": False},
        ("Reorganise the kitchen", "Put away food"): {"TIAGo": True, "HSR": True, "UR3": False, "Stretch": False},
        ("Reorganise the kitchen", "Load dishwasher"): {"TIAGo": True, "HSR": True, "UR3": False, "Stretch": False},
    }
    got = {}
    for activity, step, label in matrix.steps:
        got[(kb.label_of(activity), label)] = {
            robot_label: matrix.achievable(robot, step) for robot, robot_label in matrix.robots
        }
    assert got == expected


def test_matrix_cells_agree_with_gap_reports(kb):
    matrix = kb.feasibility_matrix()
    for activity, step, label in matrix.steps:
        for robot, _ in matrix.robots:
            report = kb.gap_report(robot, activity)
            by_label = {s.label: s.achievable for s in report.steps}
            assert matrix.achievable(robot, step) == by_label[label]


def test_matrix_empty_without_robots(activities):
    kb = KnowledgeBase.load(activities)
    matrix = kb.feasibility_matrix()
    assert matrix.robots == ()
    assert matrix.cells == {}
    with pytest.raises(UnknownEntityError, match=r"^unknown robot: 'HSR'; available: \(none\)$"):
        kb.capability_profile("HSR")


def test_cq3_decomposes_into_cq6_step_requirements(kb):
    any_robot = kb.agents()[0][0]
    for activity, _ in kb.activities():
        report = kb.gap_report(any_robot, activity)
        union = frozenset().union(*(step.required for step in report.steps))
        assert union == kb.required_affordances(activity)


def test_cq5_cq4_cq6_consistency(kb):
    for activity, _ in kb.activities():
        capable = kb.capable_robots(activity)
        for robot, _ in kb.agents():
            in_cq4 = robot in capable
            via_cq5 = kb.can_execute_all(robot, [activity])
            via_cq6 = all(step.achievable for step in kb.gap_report(robot, activity).steps)
            assert in_cq4 == via_cq5 == via_cq6


def test_granting_an_affordance_never_shrinks_feasibility(kb, activities, robots):
    grant = parse_turtle(
        MINI_PREFIXES
        + """
        :hsrMotionCommand ros:evokes :hsrPouring .
        :hsrPouring a ros:Capability ; rdfs:label "HSR pouring" ;
            obot:enablesAffordance soma:Pouring .
        """
    )
    upgraded = KnowledgeBase.load(activities, robots, grant)
    for activity, _ in kb.activities():
        assert kb.capable_robots(activity) <= upgraded.capable_robots(activity)
    before = kb.feasibility_matrix()
    after = upgraded.feasibility_matrix()
    for key, achievable in before.cells.items():
        if achievable:
            assert after.cells[key]
    # HSR's pouring gap is closed, so it can now prepare breakfast
    breakfast = upgraded.activity_by_label("Prepare breakfast")
    assert upgraded.agent_by_label("HSR") in upgraded.capable_robots(breakfast)


@pytest.mark.parametrize(
    "ask",
    [
        pytest.param(lambda kb: kb.feasibility_matrix(), id="feasibility-matrix"),
        pytest.param(lambda kb: kb.capable_robots("Activity 0"), id="capable-robots"),
        pytest.param(lambda kb: kb.can_execute_all("Bot 0", [a for a, _ in kb.activities()]), id="can-execute-all"),
    ],
)
def test_graph_lookups_grow_linearly_with_robots(monkeypatch, ask):
    # Counted on the first call to a fresh knowledge base, so the count covers
    # deriving the facts it keeps; twice the robots may at most double the
    # reads, through Graph.lookup or a key of a Graph.group view, and the
    # triples they find.
    counts, sums = [], []
    for n in (8, 16):
        kb = copies_kb(n)
        with monkeypatch.context() as patch:
            calls = record_calls(patch, "lookup", "group", group_reads=True)
            first = ask(kb)
        counts.append(len(calls))
        sums.append(sum(len(found) for name, found in calls if name != "group"))
        assert ask(kb) == first
    assert counts[1] <= 2 * counts[0], counts
    assert 0 < sums[1] <= 2 * sums[0], sums


def test_cq5_reads_no_activity_after_the_first_one_the_robot_does_not_cover(monkeypatch):
    # Bot 0 enables grasping and holding, not the pouring Activity 0 needs, so CQ5 is decided there: on a fresh
    # knowledge base of 8 or 16 copies it reads what CQ5 on Activity 0 alone reads, and no other decomposition.
    reads = []
    for n, only_the_first in ((8, False), (16, False), (8, True)):
        kb = copies_kb(n)
        activities = [label for _, label in kb.activities()][: 1 if only_the_first else None]
        with monkeypatch.context() as patch:
            calls = record_calls(patch, "lookup", "group", group_reads=True)
            assert kb.can_execute_all("Bot 0", activities) is False
        reads.append([(name, found) for name, found in calls if name != "group"])
    assert reads[0] == reads[1] == reads[2]
    assert sum(name == "group read" for name, _ in reads[0]) > 0


ACTIVITY_QUESTIONS = {
    "cq1": lambda kb: kb.objects_and_affordances("Activity 0"),
    "cq3": lambda kb: kb.required_affordances("Activity 0"),
    "cq6": lambda kb: kb.gap_report("Bot 0", "Activity 0"),
}


@pytest.mark.parametrize("question", ["cq1", "cq3", "cq6"])
def test_activity_questions_read_triples_bounded_by_the_activity(monkeypatch, question):
    # The first call in a graph of twice the copies reads the same triples and fetches the same groups.
    ask, sums, fetches = ACTIVITY_QUESTIONS[question], [], []
    for n in (8, 16):
        kb = copies_kb(n)
        with monkeypatch.context() as patch:
            calls = record_calls(patch, "lookup", "group", group_reads=True)
            ask(kb)
        sums.append(sum(len(found) for name, found in calls if name != "group"))
        fetches.append(sum(name == "group" for name, _ in calls))
    assert sums[0] == sums[1] > 0, sums
    assert fetches[0] == fetches[1], fetches


@pytest.mark.parametrize(
    "first, then", [("cq1", "cq1"), ("cq3", "cq3"), ("cq3", "cq1"), ("cq6", "cq1"), ("cq1", "cq3"), ("cq6", "cq6")]
)
def test_one_walk_per_activity_serves_cq1_cq3_and_cq6(monkeypatch, first, then):
    # Once any of them has read the activity, CQ1 and CQ3 read no graph and hand out the kept set; once CQ6 has
    # answered for a robot and the activity, it reads no graph and hands out the kept report.
    kb = copies_kb(8)
    ACTIVITY_QUESTIONS[first](kb)
    ask = ACTIVITY_QUESTIONS[then]
    with monkeypatch.context() as patch:
        calls = record_calls(patch, "lookup", "group", group_reads=True)
        kept = ask(kb)
        assert ask(kb) is kept
    assert calls == []
    if then == "cq6":
        assert isinstance(kept, FeasibilityReport) and kept.steps
    else:
        assert isinstance(kept, frozenset) and kept


def test_task_plan_reads_triples_bounded_by_the_plan(monkeypatch):
    # The same plan in a graph of twice the copies: the triples its first call
    # reads, through Graph.lookup or a key of a Graph.group view, must not grow
    # with the graph, and neither may the number of groups it fetches.
    sums, fetches = [], []
    for n in (8, 16):
        kb = copies_kb(n)
        with monkeypatch.context() as patch:
            calls = record_calls(patch, "lookup", "group", group_reads=True)
            first = kb.task_plan("Activity 0")
        sums.append(sum(len(found) for name, found in calls if name != "group"))
        fetches.append(sum(name == "group" for name, _ in calls))
        assert kb.task_plan("Activity 0") == first
    assert [[a.label for s in p.steps for a in s.actions] for p in first.procedures] == [
        ["Grasp cup 0", "Hold cup 0", "Raise cup 0"], ["Tilt cup 0"]
    ]
    assert sums[0] == sums[1] > 0, sums
    assert fetches[0] == fetches[1], fetches


# Each question of the knowledge base, asked about the fixtures.
QUESTIONS = {
    "objects_and_affordances": lambda kb: kb.objects_and_affordances("Prepare breakfast"),
    "task_plan": lambda kb: kb.task_plan("Prepare breakfast"),
    "required_affordances": lambda kb: kb.required_affordances("Prepare breakfast"),
    "capability_profile": lambda kb: kb.capability_profile("HSR"),
    "capable_robots": lambda kb: kb.capable_robots("Prepare breakfast"),
    "can_execute_all": lambda kb: kb.can_execute_all("HSR", ["Prepare breakfast", "Reorganise the kitchen"]),
    "gap_report": lambda kb: kb.gap_report("HSR", "Prepare breakfast"),
    "feasibility_matrix": lambda kb: kb.feasibility_matrix(),
}


@pytest.mark.parametrize("question", QUESTIONS)
def test_no_question_goes_through_another(monkeypatch, activities, robots, question):
    # Each question resolves its names and reads the kept records itself: on a fresh knowledge base, with every
    # other public method raising, it gives the answer it gives unpatched. label_of is an accessor, not a question.
    ask = QUESTIONS[question]
    expected, kb = ask(KnowledgeBase.load(activities, robots)), KnowledgeBase.load(activities, robots)

    def refusing(name: str):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{question} goes through KnowledgeBase.{name}")
        return property(refuse) if name == "report" else refuse

    patched = [name for name in vars(KnowledgeBase) if not name.startswith("_") and name not in (question, "label_of")]
    for name in patched:
        monkeypatch.setattr(KnowledgeBase, name, refusing(name))
    assert {"activities", "agents", "activity_by_label", "agent_by_label", "report"} < set(patched)
    assert ask(kb) == expected


def test_a_dropped_knowledge_base_needs_no_garbage_collector(activities, robots):
    # No kept record refers back to its knowledge base, so the last reference going frees it with the collector off.
    enabled = gc.isenabled()
    gc.disable()
    try:
        kb = KnowledgeBase.load(activities, robots)
        for ask in QUESTIONS.values():
            ask(kb)
        assert kb.report is kb.report
        dropped = weakref.ref(kb)
        del kb
        assert dropped() is None
    finally:
        if enabled:
            gc.enable()


def test_warm_questions_mint_no_vocabulary_terms(monkeypatch, kb):
    # A Namespace keeps each term it mints, so once a round of CQ1-CQ6 and the matrix
    # has read every term it names, a second round never reaches Namespace.__getattr__.
    def ask_all() -> None:
        for ask in QUESTIONS.values():
            ask(kb)

    ask_all()
    minted: list[str] = []
    mint = Namespace.__getattr__

    def counting(namespace: Namespace, name: str):
        minted.append(name)
        return mint(namespace, name)

    monkeypatch.setattr(Namespace, "__getattr__", counting)
    ask_all()
    assert minted == []


def test_kept_facts_are_handed_out_read_only(activities, robots):
    kb = KnowledgeBase.load(activities, robots)
    tiago = kb.capability_profile("TIAGo")
    assert tiago == kb.capability_profile(kb.agent_by_label("TIAGo"))
    with pytest.raises(TypeError):
        tiago.provenance[SOMA.Pouring] = ()
    breakfast = kb.required_affordances("Prepare breakfast")
    assert breakfast is kb.required_affordances(kb.activity_by_label("Prepare breakfast"))
    assert isinstance(breakfast, frozenset)
    pairs = kb.objects_and_affordances("Prepare breakfast")
    assert pairs is kb.objects_and_affordances(kb.activity_by_label("Prepare breakfast"))
    assert isinstance(pairs, frozenset)
    kb.agents().clear()
    kb.activities().clear()
    assert [label for _, label in kb.agents()] == ["TIAGo", "HSR", "UR3", "Stretch"]
    assert [label for _, label in kb.activities()] == ["Prepare breakfast", "Reorganise the kitchen"]


@pytest.mark.parametrize(
    "graphs",
    [
        pytest.param(lambda activities, robots: (activities, robots), id="fixtures"),
        pytest.param(lambda activities, robots: (copies_kb(8).graph,), id="copies-8"),
    ],
)
def test_the_matrix_is_kept_and_handed_out_read_only(monkeypatch, activities, robots, graphs):
    sources = graphs(activities, robots)
    kb = KnowledgeBase.load(*sources)
    matrix = kb.feasibility_matrix()
    with monkeypatch.context() as patch:
        calls = record_calls(patch, "lookup")
        patch.setattr(KnowledgeBase, "capability_profile", lambda *args: calls.append(("profile", args)))
        assert kb.feasibility_matrix() is matrix
    assert calls == []
    key = next(iter(matrix.cells))
    with pytest.raises(TypeError):
        matrix.cells[key] = False
    fresh = KnowledgeBase.load(*sources).feasibility_matrix()
    assert (matrix.robots, matrix.steps) == (fresh.robots, fresh.steps)
    assert list(matrix.cells.items()) == list(fresh.cells.items())
    assert len(matrix.cells) == len(matrix.robots) * len(matrix.steps)


def test_a_procedure_two_activities_execute_has_one_cell_per_robot(capsys, tmp_path):
    kb = mini_kb(EDGE_BODY)
    matrix = kb.feasibility_matrix()
    assert matrix.steps == ((EX.a, EX.shared, "Shared"), (EX.a, EX.own, "Own"), (EX.b, EX.shared, "Shared"))
    assert dict(matrix.cells) == {(EX.bot, EX.shared): True, (EX.bot, EX.own): False}
    path = tmp_path / "edge.ttl"
    path.write_text(MINI_PREFIXES + EDGE_BODY, encoding="utf-8")
    assert main(["cq", "6", "-k", str(path), "--matrix"]) == 0
    assert capsys.readouterr().out == (
        "activity  step    Bot\n"
        "--------  ------  ---\n"
        "A         Shared  ✓\n"
        "A         Own     ✗\n"
        "B         Shared  ✓\n"
    )


def test_fixture_sizes_meet_documented_lower_bounds(activities, robots):
    assert len(activities) >= 300
    assert len(robots) >= 100


def test_validation_report_attached(kb):
    assert kb.report.ok
