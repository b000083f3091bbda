"""The one-pass load: the union it builds, and the work a cold CQ does."""

from __future__ import annotations

import sys
from collections import Counter
from itertools import chain

import pytest

from golden_cli import BLANK_ACTIVITIES, BLANK_ROBOTS, PREFIX_A, PREFIX_B
from helpers import oracle_load, outputs_across_memory_layouts
from ontobot import schema
from ontobot.cli import main
from ontobot.fixtures import activities_path, robots_path, vocabulary_path
from ontobot.graph import BLANK, Graph, Triple, merge_graphs
from ontobot.namespaces import EX, OBOT, PROV, RDF, RDFS
from ontobot.reasoner import KnowledgeBase, load_graph
from ontobot.schema import infer_types
from ontobot.turtle import TurtleParseError, parse_turtle

# Classes with superclasses from SUBCLASS_AXIOMS and from the graph, a blank instance, and inferred types that
# an instance already has, one of which is asserted after the type it is inferred from.
AXIOMS = (
    f"""@prefix : <https://example.org/> .
@prefix rdfs: <{RDFS.base}> .
@prefix obot: <{OBOT.base}> .
:Machine rdfs:subClassOf :Artifact .
obot:Agent rdfs:subClassOf :Machine .
_:r a obot:Agent .
""",
    f"""@prefix : <https://example.org/two/> .
@prefix rdfs: <{RDFS.base}> .
@prefix obot: <{OBOT.base}> .
:Robot rdfs:subClassOf obot:Agent , <https://example.org/Machine> .
:r2 a :Robot .
:r3 a :Robot .
:r2 a <https://example.org/Machine> , <{PROV.Agent.value}> .
""",
)

PAIRS = {
    "fixtures": (activities_path().read_text(encoding="utf-8"), robots_path().read_text(encoding="utf-8")),
    "blank-nodes": (BLANK_ACTIVITIES, BLANK_ROBOTS),
    "prefix-rebinding": (PREFIX_A, PREFIX_B),
    "in-graph-axioms": AXIOMS,
}


@pytest.mark.parametrize("as_graph", [(False, False), (True, True), (True, False)], ids=["paths", "graphs", "mixed"])
@pytest.mark.parametrize("pair", PAIRS)
def test_one_pass_union_equals_merge_then_infer(tmp_path, pair, as_graph):
    paths = []
    for i, text in enumerate(PAIRS[pair]):
        paths.append(tmp_path / f"{i}.ttl")
        paths[-1].write_text(text, encoding="utf-8")
    sources = [parse_turtle(p.read_text(encoding="utf-8")) if graph else p for p, graph in zip(paths, as_graph)]
    triples, prefixes = oracle_load(sources)
    got = KnowledgeBase.load(*sources).graph
    assert got.frozen
    assert list(got) == triples
    assert list(got.prefixes.items()) == prefixes


@pytest.mark.parametrize("pair", PAIRS)
def test_one_pass_union_without_inference_equals_merge(tmp_path, pair):
    paths = []
    for i, text in enumerate(PAIRS[pair]):
        paths.append(tmp_path / f"{i}.ttl")
        paths[-1].write_text(text, encoding="utf-8")
    triples, prefixes = oracle_load(paths, infer=False)
    got = load_graph(paths, infer=False)
    assert got.frozen
    assert list(got) == triples
    assert list(got.prefixes.items()) == prefixes


# Blank subjects, blank objects and blank-free triples interleaved, with the label _:x in both documents.
SHARED_LABEL = (
    f"""@prefix : <https://example.org/> .
:r1 a <{OBOT.Agent.value}> .
_:x :p :a .
:a :q _:y .
_:x :r _:x .
:b :p "lit" .
""",
    f"""@prefix : <https://example.org/two/> .
:c :p :d .
_:x a <{OBOT.Agent.value}> .
:d :q _:x .
:r2 a <{OBOT.Agent.value}> .
""",
)


def test_a_union_of_graphs_shares_each_source_triple_with_no_blank_end(tmp_path):
    paths = []
    for i, text in enumerate(SHARED_LABEL):
        paths.append(tmp_path / f"{i}.ttl")
        paths[-1].write_text(text, encoding="utf-8")
    graphs = [parse_turtle(p.read_text(encoding="utf-8")) for p in paths]

    def state() -> list:
        return [(len(g), g.frozen, list(g), list(g.lookup(None, RDF.type, None))) for g in graphs]

    before = state()
    union = load_graph(graphs, infer=False)
    assert list(union) == list(load_graph(paths, infer=False))
    pairs = list(zip(union, chain(*graphs), strict=True))
    shared = [got is t for got, t in pairs if BLANK not in (t.s.kind, t.o.kind)]
    assert len(shared) == 4 and all(shared)
    kb = KnowledgeBase.load(*graphs)
    assert Triple(EX.r1, RDF.type, PROV.Agent) in kb.graph and len(kb.graph) > len(union)
    assert state() == before


def test_extra_subclass_axioms_come_in_as_a_source_graph():
    axioms, instances = Graph(), Graph()
    axioms.insert(Triple(EX.Mug, RDFS.subClassOf, OBOT.Component))
    instances.insert(Triple(EX.mug1, RDF.type, EX.Mug))
    kb = KnowledgeBase.load(axioms, instances)
    assert Triple(EX.mug1, RDF.type, OBOT.Component) in kb.graph


def test_vocabulary_loads_beside_the_instance_files():
    def answers(kb: KnowledgeBase) -> list:
        activities, robots = kb.activities(), kb.agents()
        out: list = [activities, robots, kb.feasibility_matrix()]
        for activity, _ in activities:
            out += [kb.objects_and_affordances(activity), kb.task_plan(activity), kb.required_affordances(activity)]
            out.append(kb.capable_robots(activity))
            out += [kb.gap_report(robot, activity) for robot, _ in robots]
        out += [kb.can_execute_all(robot, [a for a, _ in activities]) for robot, _ in robots]
        return out

    alone = KnowledgeBase.load(activities_path(), robots_path())
    with_vocabulary = KnowledgeBase.load(vocabulary_path(), activities_path(), robots_path())
    assert len(with_vocabulary.graph) > len(alone.graph)
    assert answers(with_vocabulary) == answers(alone)
    assert with_vocabulary.report.ok


def count_calls(monkeypatch, calls: Counter) -> None:
    """Count calls of ``schema.validate`` under every name it is imported as, and of two Graph methods."""

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    validate = schema.validate
    wrapper = counted("validate", validate)
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "ontobot"]:
        for attr, value in list(vars(module).items()):
            if value is validate:
                monkeypatch.setattr(module, attr, wrapper)
    for name in ("insert", "copy"):
        monkeypatch.setattr(Graph, name, counted(name, getattr(Graph, name)))


def test_the_loaded_graph_has_one_order_whatever_the_memory_layout():
    script = (
        "from ontobot.fixtures import activities_path, robots_path\n"
        "from ontobot.reasoner import KnowledgeBase\n"
        "for t in KnowledgeBase.load(activities_path(), robots_path()).graph: print(t.n3())\n"
    )
    orders = outputs_across_memory_layouts(script)
    assert len(orders) == 1
    assert len(next(iter(orders)).splitlines()) == len(KnowledgeBase.load(activities_path(), robots_path()).graph)


def test_cold_cq_parses_once_and_does_not_validate(monkeypatch, capsys):
    calls: Counter = Counter()
    count_calls(monkeypatch, calls)
    graphs = [parse_turtle(path.read_text(encoding="utf-8")) for path in (activities_path(), robots_path())]
    parsed = calls["insert"]
    union = merge_graphs(graphs)
    calls.clear()
    infer_types(union)
    candidates = calls["insert"]
    calls.clear()

    argv = ["cq", "4", "-k", str(activities_path()), "-k", str(robots_path()), "--activity", "Prepare breakfast"]
    assert main(argv) == 0
    assert capsys.readouterr().out.split() == ["robot", "-----", "TIAGo"]
    assert calls["validate"] == 0
    assert calls["copy"] == 0
    assert 0 < calls["insert"] <= parsed + candidates


def test_report_is_validated_on_first_access_only(monkeypatch):
    calls: Counter = Counter()
    count_calls(monkeypatch, calls)
    kb = KnowledgeBase.load(activities_path(), robots_path())
    assert calls["validate"] == 0
    first = kb.report
    assert calls["validate"] == 1
    assert kb.report is first
    assert calls["validate"] == 1
    assert first.ok


def test_parse_error_names_the_file_it_is_in(tmp_path):
    good, bad = tmp_path / "good.ttl", tmp_path / "bad.ttl"
    good.write_text(PREFIX_B, encoding="utf-8")
    bad.write_text("@prefix : <https://e.org/> .\n:a :b\n", encoding="utf-8")
    with pytest.raises(TurtleParseError) as excinfo:
        KnowledgeBase.load(good, bad)
    assert str(excinfo.value).startswith(f"{bad}: line 3, column 1: ")
    assert excinfo.value.diagnostic.line == 3
