"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines. Every expected value is pinned here; nothing is deferred to later
calibration. Criteria 1-6 check the six competency-question results
exactly (zero tolerance, set/cell equality); criteria 7-10 are randomized
equivalence and property checks against independent oracles.
"""

from __future__ import annotations

import random

from helpers import isomorphic, oracle_evaluate, random_graph, random_ontobot_graph, random_query, row_key
from ontobot.cli import main
from ontobot.fixtures import query_path
from ontobot.graph import Graph, Triple, iri
from ontobot.namespaces import EX, RDF, RDFS, SOMA
from ontobot.query import evaluate, parse_query
from ontobot.reasoner import KnowledgeBase
from ontobot.schema import infer_types
from ontobot.turtle import parse_turtle, serialize_turtle

GRASPING = SOMA.Grasping
HOLDING = SOMA.Holding
PLACING = SOMA.Placing
POURING = SOMA.Pouring
OPENING = SOMA.Opening
CLOSING = SOMA.Closing

ALL_SIX = frozenset({GRASPING, HOLDING, PLACING, POURING, OPENING, CLOSING})


def _pass(number: int, description: str) -> None:
    print(f"criterion {number:2d}: PASS  {description}")


def test_criterion_1_cq1_reproduction(activities):
    query = parse_query(query_path("cq1_object_affordances").read_text(encoding="utf-8"))
    pairs = {(s["object"], s["affordance"]) for s in evaluate(query, activities)}
    expected_exact = {
        EX.drawer: {OPENING, CLOSING},
        EX.bowl: {GRASPING, HOLDING, PLACING},
        EX.orangeJuice: {GRASPING, HOLDING, PLACING, POURING},
    }
    for component, affordances in expected_exact.items():
        assert {aff for obj, aff in pairs if obj == component} == affordances
    _pass(1, "CQ1 pairings for :drawer, :bowl, :orangeJuice match exactly")


def test_criterion_2_cq2_reproduction(kb):
    plan = kb.task_plan("Prepare breakfast")
    serve = {p.label: p for p in plan.procedures}["Serve food"]
    assert [s.label for s in serve.steps] == ["Serve milk", "Serve orange juice", "Serve cereal"]
    expected = {
        "Serve milk": ["Grasp the milk", "Pour milk into the bowl", "Put milk down"],
        "Serve orange juice": ["Grasp the orange juice", "Pour the orange juice", "Put orange juice down"],
        "Serve cereal": ["Grasp the cereal box", "Pour cereal into the bowl", "Put cereal box down"],
    }
    for step in serve.steps:
        assert [a.label for a in step.actions] == expected[step.label]
    _pass(2, "CQ2 'Serve food' steps and action orderings match exactly")


def test_criterion_3_cq3_reproduction(kb):
    breakfast = kb.required_affordances(kb.activity_by_label("Prepare breakfast"))
    reorganise = kb.required_affordances(kb.activity_by_label("Reorganise the kitchen"))
    assert breakfast == ALL_SIX
    assert len(breakfast) == 6
    assert reorganise == ALL_SIX - {POURING}
    assert len(reorganise) == 5
    _pass(3, "CQ3 required-affordance sets match (6 with Pouring / 5 without)")


def test_criterion_4_cq4_reproduction(kb):
    breakfast = kb.capable_robots(kb.activity_by_label("Prepare breakfast"))
    reorganise = kb.capable_robots(kb.activity_by_label("Reorganise the kitchen"))
    assert {kb.label_of(r) for r in breakfast} == {"TIAGo"}
    assert {kb.label_of(r) for r in reorganise} == {"TIAGo", "HSR"}
    _pass(4, "CQ4 capable robots = {TIAGo} and {TIAGo, HSR}")


def test_criterion_5_cq5_reproduction(kb):
    activities = [activity for activity, _ in kb.activities()]
    verdicts = {label: kb.can_execute_all(robot, activities) for robot, label in kb.agents()}
    assert verdicts == {"TIAGo": True, "HSR": False, "UR3": False, "Stretch": False}
    _pass(5, "CQ5 only TIAGo can execute both activities")


def test_criterion_6_cq6_reproduction(kb):
    matrix = kb.feasibility_matrix()
    expected = {
        "Retrieve tableware": {"TIAGo": True, "HSR": True, "UR3": False, "Stretch": False},
        "Retrieve food": {"TIAGo": True, "HSR": True, "UR3": False, "Stretch": False},
        "Serve food": {"TIAGo": True, "HSR": False, "UR3": True, "Stretch": False},
        "Put away food": {"TIAGo": True, "HSR": True, "UR3": False, "Stretch": False},
        "Load dishwasher": {"TIAGo": True, "HSR": True, "UR3": False, "Stretch": False},
    }
    assert len(matrix.steps) == 5
    got = {
        label: {robot_label: matrix.achievable(robot, step) for robot, robot_label in matrix.robots}
        for _, step, label in matrix.steps
    }
    assert got == expected

    # every cross comes with a non-empty missing set consistent with the prose
    for activity, _ in kb.activities():
        for robot, robot_label in kb.agents():
            report = kb.gap_report(robot, activity)
            for step in report.steps:
                if step.achievable:
                    continue
                assert step.missing
                if robot_label == "HSR":
                    assert step.missing == {POURING}
                elif robot_label == "UR3":
                    assert step.missing == {OPENING, CLOSING}
                elif robot_label == "Stretch":
                    assert HOLDING in step.missing
    _pass(6, "CQ6 matrix matches cell-for-cell with consistent missing sets")


def test_criterion_7_query_engine_oracle_equivalence():
    rng = random.Random(20250808)
    cases = 0
    while cases < 200:
        g = random_graph(rng, max_triples=rng.choice([20, 40, 80, 120]))
        q = random_query(rng, g, max_patterns=6)
        engine = [tuple(s[v] for v in q.projection) for s in evaluate(q, g)]
        oracle = oracle_evaluate(q, g)
        assert sorted(engine, key=row_key) == sorted(oracle, key=row_key)
        cases += 1
    # a few cases at the size ceiling
    for _ in range(10):
        g = random_graph(rng, max_triples=500)
        q = random_query(rng, g, max_patterns=6)
        engine = [tuple(s[v] for v in q.projection) for s in evaluate(q, g)]
        oracle = oracle_evaluate(q, g)
        assert sorted(engine, key=row_key) == sorted(oracle, key=row_key)
        cases += 1
    _pass(7, f"evaluate() matched the nested-loop oracle on {cases} random cases")


def test_criterion_8_turtle_round_trip(activities, robots):
    for g in (activities, robots):
        assert set(parse_turtle(serialize_turtle(g))) == set(g)
    rng = random.Random(20250809)
    cases = 0
    for _ in range(70):
        g = random_graph(rng, max_triples=50, with_blanks=False, prefixes={"n": "https://example.org/"})
        assert set(parse_turtle(serialize_turtle(g))) == set(g)
        cases += 1
    for _ in range(40):
        g = random_graph(rng, max_triples=40, with_blanks=True)
        assert isomorphic(parse_turtle(serialize_turtle(g)), g)
        cases += 1
    _pass(8, f"round-trip held for both fixtures and {cases} random graphs")


def test_criterion_9_inference_properties():
    rng = random.Random(20250810)
    for _ in range(60):
        classes = [iri(f"https://example.org/C{i}") for i in range(rng.randint(1, 20))]
        instances = [iri(f"https://example.org/i{i}") for i in range(rng.randint(1, 12))]
        g = Graph()
        for _ in range(rng.randint(0, 30)):
            g.insert(Triple(rng.choice(classes), RDFS.subClassOf, rng.choice(classes)))
        for x in instances:
            for _ in range(rng.randint(0, 2)):
                g.insert(Triple(x, RDF.type, rng.choice(classes)))
        g.freeze()
        once = infer_types(g)
        assert set(infer_types(once)) == set(once)
        h = g.copy()
        for _ in range(rng.randint(0, 10)):
            h.insert(Triple(rng.choice(instances), RDF.type, rng.choice(classes)))
        for _ in range(rng.randint(0, 5)):
            h.insert(Triple(rng.choice(classes), RDFS.subClassOf, rng.choice(classes)))
        h.freeze()
        assert set(once) <= set(infer_types(h))
    _pass(9, "infer_types idempotent and monotone on 60 random lattices")


def test_criterion_10_cross_oracle_consistency(kb):
    # CQ1
    q1 = parse_query(query_path("cq1_object_affordances").read_text(encoding="utf-8"))
    via_query = {(s["object"], s["affordance"]) for s in evaluate(q1, kb.graph)}
    assert kb.objects_and_affordances("Prepare breakfast") == via_query

    # CQ2
    q2 = parse_query(query_path("cq2_action_sequence").read_text(encoding="utf-8"))
    rows = {
        (s["activity"], s["procedureLabel"].value, s["stepLabel"].value, s["actionLabel"].value)
        for s in evaluate(q2, kb.graph)
    }
    plan = kb.task_plan("Prepare breakfast")
    flattened = {
        (plan.activity, procedure.label, step.label, action.label)
        for procedure in plan.procedures
        for step in procedure.steps
        for action in step.actions
    }
    assert flattened == rows

    # CQ3
    q3 = parse_query(query_path("cq3_required_affordances").read_text(encoding="utf-8"))
    rows3 = evaluate(q3, kb.graph)
    for activity, label in kb.activities():
        via_q = {s["affordance"] for s in rows3 if s["activityLabel"].value == label}
        assert kb.required_affordances(activity) == via_q

    # affordance half of CQ4-CQ6: robot profiles match the verbatim query
    qr = parse_query(query_path("robot_affordances").read_text(encoding="utf-8"))
    rows_r = evaluate(qr, kb.graph)
    for robot, label in kb.agents():
        via_q = {s["affordance"] for s in rows_r if s["robotLabel"].value == label}
        assert kb.capability_profile(robot).affordances == via_q
    _pass(10, "reasoner results equal verbatim query evaluation for CQ1-CQ3 and robot profiles")


def test_criterion_10_random_cross_oracle(kb, tmp_path, capsys):
    # The same comparison on seeded graphs in the fixtures' domain, with the nested-loop
    # oracle in place of evaluate(); the first graphs also go through the CLI.
    q1, q3, qr = (
        parse_query(query_path(name).read_text(encoding="utf-8"))
        for name in ("cq1_object_affordances", "cq3_required_affordances", "robot_affordances")
    )
    chains = qr._replace(projection=["robot", "affordance", "node", "msg", "capability"])

    def assert_provenance_is_every_chain(kb: KnowledgeBase, seed: object) -> None:
        # Each robot's provenance holds each (node, message, capability) chain to an affordance once, and no other.
        rows = oracle_evaluate(chains, kb.graph)
        for robot, _ in kb.agents():
            provenance = kb.capability_profile(robot).provenance
            assert all(len(set(found)) == len(found) for found in provenance.values()), (seed, robot)
            got = {(affordance, *chain) for affordance, found in provenance.items() for chain in found}
            assert got == {row[1:] for row in rows if row[0] is robot}, (seed, robot)

    assert_provenance_is_every_chain(kb, "fixtures")
    seeds, cli_runs = 120, 0
    for seed in range(seeds):
        graph = random_ontobot_graph(random.Random(seed))
        kb = KnowledgeBase.load(graph)
        rows1, rows3, rows_r = (oracle_evaluate(q, kb.graph) for q in (q1, q3, qr))
        for q, oracle in ((q1, rows1), (q3, rows3), (qr, rows_r)):
            engine = [tuple(s[v] for v in q.projection) for s in evaluate(q, kb.graph)]
            assert sorted(engine, key=row_key) == sorted(oracle, key=row_key), seed
        assert kb.objects_and_affordances("Prepare breakfast") == set(rows1), seed
        for activity, label in kb.activities():
            assert kb.required_affordances(activity) == {aff for name, aff in rows3 if name.value == label}, seed
        for robot, label in kb.agents():
            assert kb.capability_profile(robot).affordances == {aff for name, aff in rows_r if name.value == label}, seed
        assert_provenance_is_every_chain(kb, seed)
        if seed >= 20:
            continue
        path = tmp_path / f"{seed}.ttl"
        path.write_text(serialize_turtle(graph), encoding="utf-8")
        kg = ["-k", str(path)]
        for argv in (
            ["validate", str(path)],
            ["cq", "1", *kg, "--activity", "Prepare breakfast"],
            ["cq", "2", *kg, "--activity", "Prepare breakfast"],
            ["cq", "3", *kg],
            ["cq", "4", *kg, "--activity", "Prepare breakfast"],
            ["cq", "5", *kg, "--robot", "Robot 0"],
            ["cq", "6", *kg, "--robot", "Robot 0", "--activity", "Prepare breakfast"],
            ["cq", "6", *kg, "--matrix"],
        ):
            code = main(argv)
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 4) and "internal error" not in err, (seed, argv, code, err)
            cli_runs += 1
    _pass(10, f"reasoner, evaluate() and the nested-loop oracle agree on {seeds} random OntoBOT graphs, "
              "capability provenance included; "
              f"{cli_runs} CLI runs exited 0-2 or 4")
