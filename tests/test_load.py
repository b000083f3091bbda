"""The one-pass load: the union it builds, and the work a cold CQ does."""

from __future__ import annotations

import sys
from collections import Counter

import pytest

from golden_cli import BLANK_ACTIVITIES, BLANK_ROBOTS, PREFIX_A, PREFIX_B
from ontobot import schema
from ontobot.cli import main
from ontobot.fixtures import activities_path, robots_path
from ontobot.graph import Graph, Triple, merge_graphs
from ontobot.namespaces import EX, OBOT, RDF, RDFS
from ontobot.reasoner import KnowledgeBase, load_graph
from ontobot.schema import infer_types
from ontobot.turtle import TurtleParseError, parse_turtle

PAIRS = {
    "fixtures": (activities_path().read_text(encoding="utf-8"), robots_path().read_text(encoding="utf-8")),
    "blank-nodes": (BLANK_ACTIVITIES, BLANK_ROBOTS),
    "prefix-rebinding": (PREFIX_A, PREFIX_B),
}


@pytest.mark.parametrize("as_graph", [(False, False), (True, True), (True, False)], ids=["paths", "graphs", "mixed"])
@pytest.mark.parametrize("pair", PAIRS)
def test_one_pass_union_equals_merge_then_infer(tmp_path, pair, as_graph):
    paths = []
    for i, text in enumerate(PAIRS[pair]):
        paths.append(tmp_path / f"{i}.ttl")
        paths[-1].write_text(text, encoding="utf-8")
    expected = infer_types(merge_graphs([parse_turtle(p.read_text(encoding="utf-8")) for p in paths]))
    sources = [parse_turtle(p.read_text(encoding="utf-8")) if graph else p for p, graph in zip(paths, as_graph)]
    got = KnowledgeBase.load(*sources).graph
    assert got.frozen
    assert list(got) == list(expected)
    assert list(got.prefixes.items()) == list(expected.prefixes.items())


@pytest.mark.parametrize("pair", PAIRS)
def test_one_pass_union_without_inference_equals_merge(tmp_path, pair):
    paths = []
    for i, text in enumerate(PAIRS[pair]):
        paths.append(tmp_path / f"{i}.ttl")
        paths[-1].write_text(text, encoding="utf-8")
    expected = merge_graphs([parse_turtle(p.read_text(encoding="utf-8")) for p in paths])
    got = load_graph(paths, infer=False)
    assert got.frozen
    assert list(got) == list(expected)


def test_extra_subclass_axioms_come_in_as_a_source_graph():
    axioms, instances = Graph(), Graph()
    axioms.insert(Triple(EX.Mug, RDFS.subClassOf, OBOT.Component))
    instances.insert(Triple(EX.mug1, RDF.type, EX.Mug))
    kb = KnowledgeBase.load(axioms, instances)
    assert Triple(EX.mug1, RDF.type, OBOT.Component) in kb.graph


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
