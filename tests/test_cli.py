from __future__ import annotations

import argparse
import csv
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from ontobot import cli
from ontobot.cli import main
from ontobot.fixtures import activities_path, queries_dir, robots_path

MATRIX_GOLDEN = """\
activity                step                TIAGo  HSR  UR3  Stretch
----------------------  ------------------  -----  ---  ---  -------
Prepare breakfast       Retrieve tableware  ✓      ✓    ✗    ✗
Prepare breakfast       Retrieve food       ✓      ✓    ✗    ✗
Prepare breakfast       Serve food          ✓      ✗    ✓    ✗
Reorganise the kitchen  Put away food       ✓      ✓    ✗    ✗
Reorganise the kitchen  Load dishwasher     ✓      ✓    ✗    ✗
"""


def run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(text: str) -> list[list[str]]:
    return [row for row in csv.reader(io.StringIO(text))]


def kg_args() -> list[str]:
    return ["-k", str(activities_path()), "-k", str(robots_path())]


def query_file(name: str) -> str:
    return str(queries_dir() / f"{name}.rq")


# -- validate -----------------------------------------------------------------


def test_validate_fixtures_passes(capsys):
    code, out, _ = run(capsys, "validate", str(activities_path()), str(robots_path()))
    assert code == 0
    assert "0 violations" in out


def test_validate_reports_cycle_with_exit_1(capsys, tmp_path):
    bad = tmp_path / "bad.ttl"
    bad.write_text(
        "@prefix : <https://example.org/> .\n"
        "@prefix pko: <https://w3id.org/pko#> .\n"
        ":s1 pko:nextStep :s2 .\n"
        ":s2 pko:nextStep :s1 .\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "validate", str(bad))
    assert code == 1
    assert "R2" in out


def test_validate_quotes_a_literal_so_it_does_not_read_as_an_iri(capsys, tmp_path):
    kg = tmp_path / "literal.ttl"
    kg.write_text(
        "@prefix obot: <https://w3id.org/onto-bot#> .\n"
        '<https://example.org/a> obot:requiresAffordance "soma:Grasping" .\n',
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "validate", str(kg))
    assert code == 1
    assert out.splitlines()[0] == (
        'R1  <https://example.org/a> obot:requiresAffordance "soma:Grasping"  '
        "obot:requiresAffordance object is not an affordance IRI"
    )


def test_validate_writes_an_iri_as_turtle_so_a_record_stays_one_line(capsys, tmp_path):
    kg = tmp_path / "iri.ttl"
    kg.write_text(
        "@prefix pko: <https://w3id.org/pko#> .\n"
        "<https://e.org/s> pko:requiresAction <https://e.org/act\\u000Aion> .\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "validate", str(kg))
    assert code == 1
    assert out.splitlines() == [
        "R3  <https://e.org/act\\u000Aion>  action requires no affordance",
        "R3  <https://e.org/act\\u000Aion>  warning: action has no obot:actsOn target",
        "FAIL: 1 violations, 1 warnings",
    ]


def test_validate_fails_a_literal_action_that_cq2_cannot_order(capsys, tmp_path):
    # A literal reached by pko:requiresAction is an action too: R3 checks it, and CQ2 cannot order it, which R2
    # reports at the step whose actions the literal leaves unchained.
    lines = activities_path().read_text(encoding="utf-8").splitlines(keepends=True)
    assert lines[133] == "    pko:requiresAction :graspGlass , :putGlassDown .\n"
    lines[133] = '    pko:requiresAction :graspGlass , :putGlassDown , "wipe the glass" .\n'
    kg = tmp_path / "activities.ttl"
    kg.write_text("".join(lines), encoding="utf-8")
    code, out, _ = run(capsys, "validate", str(kg), str(robots_path()))
    assert code == 1
    assert out.splitlines() == [
        "R2  :getGlass  obot:nextAction chain: its 3 members do not form one path",
        'R3  "wipe the glass"  action requires no affordance',
        'R3  "wipe the glass"  warning: action has no obot:actsOn target',
        "FAIL: 2 violations, 1 warnings",
    ]
    code, out, err = run(capsys, "cq", "2", "-k", str(kg), "-k", str(robots_path()), "--activity", "Prepare breakfast")
    assert (code, out) == (2, "")
    assert err == "ontobot: cannot order obot:nextAction chain of Get the glass: 2 chain heads (incomplete chain)\n"


LABEL_PROBE_PREFIXES = (
    "@prefix : <https://example.org/> .\n"
    "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
    "@prefix prov: <http://www.w3.org/ns/prov#> .\n"
    "@prefix pplan: <http://purl.org/net/p-plan#> .\n"
    "@prefix pko: <https://w3id.org/pko#> .\n"
    "@prefix obot: <https://w3id.org/onto-bot#> .\n"
    "@prefix soma: <http://www.ease-crc.org/ont/SOMA.owl#> .\n"
)


def test_validate_fails_an_activity_and_a_step_labelled_only_by_iris(capsys, tmp_path):
    # An IRI label is no name: answers would show the IRI, and the label would not resolve.
    kg = tmp_path / "iri-labels.ttl"
    kg.write_text(
        LABEL_PROBE_PREFIXES
        + ":act a prov:Activity ; rdfs:label :ActName ; pko:executesProcedure :p1 .\n"
        ':p1 rdfs:label "P1" ; pko:hasStep :s1 .\n'
        ":s1 a pplan:Step ; rdfs:label :StepName ; pko:requiresAction :a1 .\n"
        ':a1 a pko:Action ; rdfs:label "grasp" ; obot:requiresAffordance soma:Grasping ; obot:actsOn :cup .\n'
        ":cup a obot:Component .\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "validate", str(kg))
    assert code == 1
    assert out.splitlines() == [
        "R4  :act  prov:Activity instance has no rdfs:label",
        "R4  :s1  pplan:Step instance has no rdfs:label",
        "FAIL: 2 violations, 0 warnings",
    ]
    code, out, err = run(capsys, "cq", "2", "-k", str(kg), "--activity", "ActName")
    assert (code, out, err) == (4, "", "ontobot: unknown activity: 'ActName'; available: 'https://example.org/act'\n")


def test_validate_fails_a_robot_and_a_procedure_with_no_label(capsys, tmp_path):
    # The matrix names each procedure a step and each robot a column: without a label it would show their IRIs.
    kg = tmp_path / "no-labels.ttl"
    kg.write_text(
        LABEL_PROBE_PREFIXES
        + ':act a prov:Activity ; rdfs:label "Act" ; pko:executesProcedure :p1 .\n'
        ":p1 a pko:Procedure ; pko:hasStep :s1 .\n"
        ':s1 a pplan:Step ; rdfs:label "S1" ; pko:requiresAction :a1 .\n'
        ':a1 a pko:Action ; rdfs:label "grasp" ; obot:requiresAffordance soma:Grasping ; obot:actsOn :cup .\n'
        ":cup a obot:Component .\n"
        ":bot a obot:Agent .\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "validate", str(kg))
    assert code == 1
    assert out.splitlines() == [
        "R4  :bot  obot:Agent instance has no rdfs:label",
        "R4  :p1  pko:executesProcedure object has no rdfs:label",
        "FAIL: 2 violations, 0 warnings",
    ]


def test_validate_fails_a_literal_procedure_and_a_literal_step_once_each(capsys, tmp_path):
    # No label can name a literal, which cannot be a subject: R1 reports each link, and R4 adds nothing.
    kg = tmp_path / "literal-nodes.ttl"
    kg.write_text(
        LABEL_PROBE_PREFIXES
        + ':act a prov:Activity ; rdfs:label "Act" ; pko:executesProcedure :p1 , "make tea" .\n'
        ':p1 a pko:Procedure ; rdfs:label "P1" ; pko:hasStep "boil" .\n',
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "validate", str(kg))
    assert code == 1
    assert out.splitlines() == [
        'R1  :act pko:executesProcedure "make tea"  pko:executesProcedure object must be a procedure, not a literal',
        'R1  :p1 pko:hasStep "boil"  pko:hasStep object must be a step, not a literal',
        "FAIL: 2 violations, 0 warnings",
    ]


def test_validate_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "validate", "/no/such/file.ttl")
    assert code == 2
    assert "file.ttl" in err


def test_validate_parse_error_exits_2(capsys, tmp_path):
    broken = tmp_path / "broken.ttl"
    broken.write_text(":a :b ", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(broken))
    assert code == 2


@pytest.mark.parametrize(
    "obj, message",
    [
        # '²' passes str.isdigit() but starts no numeric literal.
        pytest.param("²", "unexpected character: '²'", id="superscript-digit"),
        # Escapes must name Unicode scalar values: nothing above U+10FFFF, no surrogate halves.
        pytest.param("<https://e.org/\\U0011FFFF>", "invalid \\U escape", id="escape-above-10ffff"),
        pytest.param("<https://e.org/\\uD800>", "invalid \\u escape", id="escape-surrogate"),
    ],
)
def test_validate_unicode_digit_exits_2_with_one_line_message(capsys, tmp_path, obj, message):
    odd = tmp_path / "odd.ttl"
    odd.write_text(f"@prefix : <https://e.org/> .\n:a :b {obj} .\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(odd))
    assert code == 2
    assert out == ""
    assert err == f"ontobot: {odd}: line 2, column 7: {message}\n"


def test_validate_non_utf8_file_exits_2(capsys, tmp_path):
    binary = tmp_path / "binary.ttl"
    binary.write_bytes(b"\xff\xfe\x00garbage")
    code, _, err = run(capsys, "validate", str(binary))
    assert code == 2
    assert "UTF-8" in err


@pytest.mark.parametrize(
    "argv, ttl",
    [
        pytest.param(["cq", "6", "--matrix"], None, id="matrix-check-marks"),
        pytest.param(["validate", "cafe.ttl"], "<https://e.org/caf\u00e9> <https://w3id.org/pko#nextStep> "
                     "<https://e.org/caf\u00e9> .\n", id="violation-iri"),
    ],
)
def test_output_stdout_cannot_encode_exits_2_with_one_line_message(capsys, monkeypatch, tmp_path, argv, ttl):
    if ttl is not None:
        (tmp_path / "cafe.ttl").write_text(ttl, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("ONTOBOT_FIXTURES", raising=False)
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(io.BytesIO(), encoding="ascii"))
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("ontobot: 'ascii' codec can't encode character")
    assert err.count("\n") == 1


CLOSED_STDOUT_CALLS = [
    pytest.param(["cq", "3"], id="cq"),
    pytest.param(["query", "-f", query_file("cq1_object_affordances")], id="query"),
    pytest.param(["validate", str(activities_path())], id="validate"),
]


@pytest.mark.parametrize("argv", CLOSED_STDOUT_CALLS)
def test_closed_stdout_exits_2_before_any_file_is_read(capsys, monkeypatch, argv):
    # sys.stdout is None when file descriptor 1 is closed at start; no answer could be printed, so nothing is read.
    read = []
    monkeypatch.setattr(cli, "_read_text", read.append)
    monkeypatch.setattr(sys, "stdout", None)
    assert main(argv) == 2
    assert capsys.readouterr().err == "ontobot: cannot write output: stdout is closed\n"
    assert read == []


@pytest.mark.parametrize("argv", CLOSED_STDOUT_CALLS)
def test_closed_stdout_descriptor_exits_2_in_a_new_process(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]), "PYTHONIOENCODING": "utf-8"}
    done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "ontobot.cli", *argv],
                          env=env, capture_output=True, encoding="utf-8")
    assert (done.returncode, done.stderr) == (2, "ontobot: cannot write output: stdout is closed\n")


@pytest.mark.parametrize("argv, code", [(["--help"], 0), (["cq", "9"], 2)])
def test_closed_stdout_leaves_help_and_usage_errors_to_argparse(capsys, monkeypatch, argv, code):
    monkeypatch.setattr(sys, "stdout", None)
    assert main(argv) == code
    assert capsys.readouterr().err.startswith("usage: ontobot")


@pytest.mark.parametrize("argv", [["cq", "4", "--activity", "Prepare breakfast"], ["validate", "x.ttl"]])
def test_internal_error_exits_5_with_one_line_message(capsys, monkeypatch, argv):
    def broken(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "cmd_cq", broken)
    monkeypatch.setattr(cli, "cmd_validate", broken)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 5
    assert out == ""
    assert err == "ontobot: internal error: KeyError: 'lost'\n"


def test_chain_error_holding_line_breaks_is_one_stderr_line(capsys, tmp_path):
    kg = tmp_path / "fork.ttl"
    kg.write_text(
        "@prefix : <https://e.org/> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "@prefix pko: <https://w3id.org/pko#> .\n"
        "@prefix prov: <http://www.w3.org/ns/prov#> .\n"
        ':act a prov:Activity ; rdfs:label "Forked" ; pko:executesProcedure :proc .\n'
        ':proc rdfs:label "P\\nQ" ; pko:hasStep <https://e.org/s\\u000A1> , :s2 , :s3 .\n'
        "<https://e.org/s\\u000A1> pko:nextStep :s2 , :s3 .\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "cq", "2", "-k", str(kg), "--activity", "Forked")
    assert (code, out) == (2, "")
    assert err == "ontobot: cannot order pko:nextStep chain of P\\nQ: fork at <https://e.org/s\\n1>\n"


def test_cq2_one_step_linked_to_itself_exits_2(capsys, tmp_path):
    kg = tmp_path / "loop.ttl"
    kg.write_text(
        "@prefix : <https://e.org/> .\n"
        "@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .\n"
        "@prefix pko: <https://w3id.org/pko#> .\n"
        "@prefix prov: <http://www.w3.org/ns/prov#> .\n"
        ':act a prov:Activity ; rdfs:label "Looped" ; pko:executesProcedure :proc .\n'
        ':proc rdfs:label "Proc" ; pko:hasStep :step .\n'
        ":step pko:nextStep :step .\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "cq", "2", "-k", str(kg), "--activity", "Looped")
    assert (code, out) == (2, "")
    assert err == "ontobot: cannot order pko:nextStep chain of Proc: chain contains a cycle\n"


def test_unreadable_path_holding_a_line_break_is_one_stderr_line(capsys, tmp_path):
    missing = tmp_path / "no\nsuch.ttl"
    code, out, err = run(capsys, "cq", "2", "-k", str(missing), "--activity", "Forked")
    assert (code, out) == (2, "")
    shown = str(missing).replace("\n", "\\n")
    assert err == f"ontobot: cannot read {shown}: No such file or directory\n"


def test_internal_error_holding_line_breaks_is_one_stderr_line(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("two\nlines\r")

    monkeypatch.setattr(cli, "cmd_cq", broken)
    code, out, err = run(capsys, "cq", "4", "--activity", "Prepare breakfast")
    assert (code, out) == (5, "")
    assert err == "ontobot: internal error: RuntimeError: two\\nlines\\r\n"


def test_interrupt_is_not_an_internal_error(monkeypatch, capsys):
    # Ctrl-C while a file is read: one stderr line and 128 + SIGINT, not a traceback and not exit 5.
    def interrupted(path):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_read_text", interrupted)
    assert run(capsys, "validate", "x.ttl") == (130, "", "ontobot: interrupted\n")


@pytest.mark.parametrize("argv, code", [(["cq", "7"], 2), ([], 2), (["--help"], 0)])
def test_usage_error_returns_its_exit_code(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    if code:  # argparse's wording differs across Python versions; its usage line does not
        assert captured.err.startswith("usage: ontobot")
    else:
        assert captured.out.startswith("usage: ontobot")


# A named command parses with its own parser alone; build_parser() is the oracle for what it must give.


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "a.ttl", "b.ttl"],
        ["query", "--kg=a.ttl", "-k", "b.ttl", "-f", "q.rq", "-o", "json"],
        ["cq", "4", "--kg=a.ttl", "-k", "b.ttl", "--act", "Prepare breakfast", "-o", "json"],
        ["cq", "6", "--matrix", "--robot", "HSR", "-o", "csv"],
    ],
)
def test_one_command_parser_gives_the_full_parsers_fields(argv):
    full = vars(cli.build_parser().parse_args(argv))
    assert full.pop("command") == argv[0]
    assert vars(cli._parse_args(argv)) == full


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"], ["-h"], ["cq", "-h"], ["query", "--help"], ["validate", "-h"],  # help
        [], ["nope"], ["-k", "a.ttl", "cq", "4"],  # no command, an unknown one, an option first
        ["cq"], ["cq", "7"], ["cq", "x"], ["query"], ["validate"],  # a missing or invalid positional, no -f
        ["query", "-o", "xml", "-f", "a"], ["cq", "4", "--act"],  # a bad choice, a missing value
        ["cq", "4", "--bogus"], ["cq", "4", "--activity", "X", "extra"],  # left over: the top-level usage
    ],
)
def test_usage_output_matches_the_full_parser(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(argv)
    expected = (int(exc.value.code or 0), *capsys.readouterr())
    assert run(capsys, *argv) == expected


@pytest.mark.parametrize(
    "argv, code, parsers",
    [(["cq", "4", "--activity", "Prepare breakfast"], 0, 1), (["--help"], 0, 4), (["nope"], 2, 4)],
)
def test_a_named_command_builds_only_its_own_parser(capsys, monkeypatch, argv, code, parsers):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(weakref.ref(self))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(argv) == code
    assert len(built) == parsers
    gc.collect()
    assert [ref for ref in built if ref() is not None] == []  # nothing outlives the call


# -- query --------------------------------------------------------------------


def test_query_cq1_rows(capsys):
    code, out, _ = run(capsys, "query", *kg_args(), "-f", query_file("cq1_object_affordances"), "-o", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["object", "affordance"]
    body = {tuple(r) for r in rows[1:]}
    assert (":drawer", "soma:Opening") in body
    assert (":drawer", "soma:Closing") in body
    assert (":bowl", "soma:Grasping") in body
    assert (":orangeJuice", "soma:Pouring") in body
    drawer = {aff for obj, aff in body if obj == ":drawer"}
    assert drawer == {"soma:Opening", "soma:Closing"}


def test_query_two_part_capability_queries(capsys):
    # CQ4 ships as two files: required affordances, then per-robot affordances.
    code, out, _ = run(capsys, "query", *kg_args(), "-f", query_file("cq4_required_affordances"), "-o", "csv")
    assert code == 0
    required = {row[0] for row in csv_rows(out)[1:]}
    assert required == {"soma:Grasping", "soma:Holding", "soma:Placing", "soma:Opening", "soma:Closing"}

    code, out, _ = run(capsys, "query", *kg_args(), "-f", query_file("robot_affordances"), "-o", "csv")
    assert code == 0
    enabled: dict[str, set[str]] = {}
    for robot, affordance in csv_rows(out)[1:]:
        enabled.setdefault(robot, set()).add(affordance)
    capable = {robot for robot, affs in enabled.items() if required <= affs}
    assert capable == {"TIAGo", "HSR"}


def test_query_empty_result_exits_0(capsys, tmp_path):
    q = tmp_path / "none.rq"
    q.write_text(
        "PREFIX : <https://example.org/>\nSELECT ?x WHERE { ?x :noSuchProperty ?y . }",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "query", *kg_args(), "-f", str(q), "-o", "csv")
    assert code == 0
    assert csv_rows(out) == [["x"]]


def test_query_cells_show_each_term_kind(capsys, tmp_path):
    # A literal shows its bare lexical form, then its tag or datatype; IRIs and blank nodes show as in Turtle.
    # In a table, a line break shows as its escape, so that a row stays one line, and a backslash as '\\',
    # so that the last two cells differ; json keeps them as they are.
    kg = tmp_path / "kinds.ttl"
    kg.write_text(
        "@prefix : <https://example.org/> .\n@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
        ':a :v "say \\"hi\\"" , "colour"@en-GB , "7"^^xsd:int , "odd"^^<https://other.org/t> , _:n , <https://other.org/x> .\n'
        ':a :v "two\\nlines\\r" , "two\\\\nlines" .\n',
        encoding="utf-8",
    )
    q = tmp_path / "all.rq"
    q.write_text("PREFIX : <https://example.org/>\nSELECT ?v WHERE { :a :v ?v . }", encoding="utf-8")
    code, out, _ = run(capsys, "query", "-k", str(kg), "-f", str(q))
    assert code == 0
    assert out.splitlines() == [
        "v",
        "-" * 26,
        "<https://other.org/x>",
        "_:m0",
        "7^^xsd:int",
        "colour@en-GB",
        "odd^^<https://other.org/t>",
        'say "hi"',
        "two\\nlines\\r",
        "two\\\\nlines",
    ]
    code, out, _ = run(capsys, "query", "-k", str(kg), "-f", str(q), "-o", "json")
    assert json.loads(out)["rows"][-2:] == [["two\nlines\r"], ["two\\nlines"]]


def test_query_with_having_exits_3(capsys, tmp_path):
    q = tmp_path / "having.rq"
    q.write_text(
        "PREFIX : <https://example.org/>\n"
        "SELECT ?x WHERE { ?x :p ?y . HAVING (?y > 1) }",
        encoding="utf-8",
    )
    code, _, err = run(capsys, "query", *kg_args(), "-f", str(q))
    assert code == 3
    assert "HAVING" in err


def test_query_syntax_error_exits_2(capsys, tmp_path):
    q = tmp_path / "broken.rq"
    q.write_text("SELECT WHERE { }", encoding="utf-8")
    code, _, err = run(capsys, "query", *kg_args(), "-f", str(q))
    assert code == 2


def test_query_syntax_error_names_the_query_file(capsys, tmp_path):
    # As a Turtle parse error names its file.
    q = tmp_path / "broken.rq"
    q.write_text("SELECT ?x\nWHERE { ?x }", encoding="utf-8")
    code, _, err = run(capsys, "query", *kg_args(), "-f", str(q))
    assert code == 2
    assert err == f"ontobot: {q}: line 2, column 12: unexpected '}}'\n"


# -- cq -----------------------------------------------------------------------


def test_cq4_breakfast_names_tiago(capsys):
    code, out, _ = run(capsys, "cq", "4", *kg_args(), "--activity", "Prepare breakfast", "-o", "csv")
    assert code == 0
    assert csv_rows(out) == [["robot"], ["TIAGo"]]


def test_cq4_reorganise_names_tiago_and_hsr(capsys):
    code, out, _ = run(capsys, "cq", "4", *kg_args(), "--activity", "Reorganise the kitchen", "-o", "csv")
    assert code == 0
    assert csv_rows(out) == [["robot"], ["HSR"], ["TIAGo"]]


def test_cq5_only_tiago_passes(capsys):
    for robot, verdict in (("TIAGo", "true"), ("HSR", "false"), ("UR3", "false"), ("Stretch", "false")):
        code, out, _ = run(capsys, "cq", "5", *kg_args(), "--robot", robot, "-o", "csv")
        assert code == 0
        row = csv_rows(out)[1]
        assert row[0] == robot
        assert row[2] == verdict


def test_cq6_matrix_golden_table(capsys):
    code, out, _ = run(capsys, "cq", "6", *kg_args(), "--matrix")
    assert code == 0
    assert out == MATRIX_GOLDEN


def test_cq6_gap_report_for_hsr(capsys):
    code, out, _ = run(capsys, "cq", "6", *kg_args(), "--robot", "HSR", "--activity", "Prepare breakfast", "-o", "csv")
    assert code == 0
    rows = csv_rows(out)
    assert rows[0] == ["step", "required", "missing", "achievable"]
    by_step = {row[0]: row for row in rows[1:]}
    assert by_step["Serve food"][2] == "soma:Pouring"
    assert by_step["Serve food"][3] == "false"
    assert by_step["Retrieve tableware"][2] == ""
    assert by_step["Retrieve tableware"][3] == "true"


def test_cq_unknown_label_exits_4_with_suggestions(capsys):
    code, _, err = run(capsys, "cq", "3", *kg_args(), "--activity", "No such")
    assert code == 4
    assert "Prepare breakfast" in err


def test_cq6_with_two_unknown_names_names_the_activity(capsys):
    # The reasoner decides the order: the activity resolves before the robot, as in CQ5.
    code, out, err = run(capsys, "cq", "6", *kg_args(), "--robot", "Nobody", "--activity", "Nothing")
    assert (code, out) == (4, "")
    assert err == "ontobot: unknown activity: 'Nothing'; available: 'Prepare breakfast', 'Reorganise the kitchen'\n"


def test_cq_missing_required_argument_exits_2(capsys):
    code, _, err = run(capsys, "cq", "1", *kg_args())
    assert code == 2
    assert "--activity" in err


def test_cq6_requires_robot_or_matrix(capsys):
    code, _, err = run(capsys, "cq", "6", *kg_args(), "--activity", "Prepare breakfast")
    assert code == 2
    assert "--robot" in err


def test_cq6_gap_report_requires_activity(capsys):
    assert run(capsys, "cq", "6", *kg_args(), "--robot", "HSR") == (2, "", "ontobot: cq 6 requires --activity\n")


BREAKFAST = ["--activity", "Prepare breakfast"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["cq", "1", "-k", "broken.ttl"], 2, "cq 1 requires --activity"),
        (["cq", "6", "-k", "broken.ttl", "--activity", "X"], 2, "cq 6 requires --robot"),
        (["query", "-k", "broken.ttl", "-f", "having.rq"], 3, "unsupported feature: HAVING"),
        (["query", "-k", "broken.ttl", "-f", "missing.rq"], 2, "cannot read missing.rq: No such file or directory"),
        # A missing option is named before an unread one.
        (["cq", "4", "-k", "broken.ttl", "--robot", "HSR"], 2, "cq 4 requires --activity"),
        # An option the question does not read; unread ones are named in the order --activity, --robot, --matrix.
        (["cq", "1", "-k", "broken.ttl", *BREAKFAST, "--robot", "HSR"], 2, "cq 1 does not take --robot"),
        (["cq", "1", "-k", "broken.ttl", *BREAKFAST, "--matrix"], 2, "cq 1 does not take --matrix"),
        (["cq", "2", "-k", "broken.ttl", *BREAKFAST, "--robot", "HSR"], 2, "cq 2 does not take --robot"),
        (["cq", "3", "-k", "broken.ttl", "--robot", "HSR"], 2, "cq 3 does not take --robot"),
        (["cq", "3", "-k", "broken.ttl", *BREAKFAST, "--matrix"], 2, "cq 3 does not take --matrix"),
        (["cq", "4", "-k", "broken.ttl", *BREAKFAST, "--robot", "HSR"], 2, "cq 4 does not take --robot"),
        (["cq", "4", "-k", "broken.ttl", *BREAKFAST, "--matrix", "--robot", "HSR"], 2, "cq 4 does not take --robot"),
        (["cq", "5", "-k", "broken.ttl", "--robot", "HSR", *BREAKFAST], 2, "cq 5 does not take --activity"),
        (["cq", "5", "-k", "broken.ttl", "--robot", "HSR", "--matrix"], 2, "cq 5 does not take --matrix"),
        (["cq", "5", "-k", "broken.ttl", "--matrix", "--robot", "HSR", *BREAKFAST], 2, "cq 5 does not take --activity"),
        (["cq", "6", "-k", "broken.ttl", "--matrix", "--activity", "No such"], 2,
         "cq 6 --matrix does not take --activity"),
        (["cq", "6", "-k", "broken.ttl", "--matrix", "--activity", ""], 2, "cq 6 --matrix does not take --activity"),
        (["cq", "6", "-k", "broken.ttl", "--matrix", "--robot", "HSR"], 2, "cq 6 --matrix does not take --robot"),
        (["cq", "6", "-k", "broken.ttl", "--robot", "HSR", "--matrix", "--activity", "X"], 2,
         "cq 6 --matrix does not take --activity"),
    ],
)
def test_own_arguments_are_checked_before_any_graph_is_read(capsys, monkeypatch, tmp_path, argv, code, message):
    # A fault that argv alone shows is reported, not hidden by a broken graph, and no graph is read for it.
    (tmp_path / "broken.ttl").write_text("@prefix : <https://example.org/> .\n:a :b\n", encoding="utf-8")
    (tmp_path / "having.rq").write_text(
        "PREFIX : <https://example.org/>\nSELECT ?x WHERE { ?x :p ?y . HAVING (?y > 1) }", encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    read, read_text = [], cli._read_text

    def recording(path):
        read.append(str(path))
        return read_text(path)

    monkeypatch.setattr(cli, "_read_text", recording)
    assert run(capsys, *argv) == (code, "", f"ontobot: {message}\n")
    assert [path for path in read if path.endswith(".ttl")] == []


def test_cq_json_output_is_byte_identical_across_runs(capsys):
    args = ("cq", "6", *kg_args(), "--matrix", "-o", "json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["id"] == "cq6-matrix"
    assert payload["columns"][:2] == ["activity", "step"]
    assert len(payload["rows"]) == 5


def test_cq1_json_schema(capsys):
    code, out, _ = run(capsys, "cq", "1", *kg_args(), "--activity", "Prepare breakfast", "-o", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"id", "columns", "rows"}
    assert payload["id"] == "cq1"
    assert payload["columns"] == ["object", "affordance"]
    assert [":drawer", "soma:Opening"] in payload["rows"]


# -- cq/query row equivalence (CQ1-CQ3) ----------------------------------------


def _row_multiset(text: str) -> list[tuple[str, ...]]:
    return sorted(tuple(row) for row in csv_rows(text)[1:])


def test_cq1_and_query_rows_agree(capsys):
    _, via_query, _ = run(capsys, "query", *kg_args(), "-f", query_file("cq1_object_affordances"), "-o", "csv")
    _, via_cq, _ = run(capsys, "cq", "1", *kg_args(), "--activity", "Prepare breakfast", "-o", "csv")
    assert _row_multiset(via_query) == _row_multiset(via_cq)


def test_cq2_and_query_rows_agree(capsys):
    _, via_query, _ = run(capsys, "query", *kg_args(), "-f", query_file("cq2_action_sequence"), "-o", "csv")
    _, via_cq, _ = run(capsys, "cq", "2", *kg_args(), "--activity", "Prepare breakfast", "-o", "csv")
    assert _row_multiset(via_query) == _row_multiset(via_cq)


def test_cq3_and_query_rows_agree(capsys):
    _, via_query, _ = run(capsys, "query", *kg_args(), "-f", query_file("cq3_required_affordances"), "-o", "csv")
    _, via_cq, _ = run(capsys, "cq", "3", *kg_args(), "-o", "csv")
    assert _row_multiset(via_query) == _row_multiset(via_cq)


# -- default fixtures and environment override ---------------------------------


def test_cq_uses_packaged_fixtures_by_default(capsys, monkeypatch):
    monkeypatch.delenv("ONTOBOT_FIXTURES", raising=False)
    code, out, _ = run(capsys, "cq", "4", "--activity", "Prepare breakfast", "-o", "csv")
    assert code == 0
    assert csv_rows(out) == [["robot"], ["TIAGo"]]


def test_ontobot_fixtures_env_var(capsys, monkeypatch, tmp_path):
    shutil.copy(activities_path(), tmp_path / "activities.ttl")
    shutil.copy(robots_path(), tmp_path / "robots.ttl")
    monkeypatch.setenv("ONTOBOT_FIXTURES", str(tmp_path))
    code, out, _ = run(capsys, "cq", "4", "--activity", "Prepare breakfast", "-o", "csv")
    assert code == 0
    assert csv_rows(out) == [["robot"], ["TIAGo"]]


def test_ontobot_fixtures_env_var_empty_dir_exits_2(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("ONTOBOT_FIXTURES", str(tmp_path))
    code, _, err = run(capsys, "cq", "4", "--activity", "Prepare breakfast")
    assert code == 2
    assert "ONTOBOT_FIXTURES" in err


def test_unreadable_input_without_strerror_shows_the_error_itself(capsys, monkeypatch):
    # An OSError raised with no errno carries no strerror, so the message falls back to the error's text.
    def refuse(*args, **kwargs):
        raise OSError("the volume is offline")

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    assert run(capsys, "validate", "kg.ttl") == (2, "", "ontobot: cannot read kg.ttl: the volume is offline\n")


@pytest.mark.parametrize("argv", [
    ["validate", "a\x00b.ttl"],
    ["cq", "3", "-k", "a\x00b.ttl"],
    ["query", "-k", "a.ttl", "-f", "a\x00b.rq"],
])
def test_path_holding_a_nul_byte_is_an_unreadable_file(capsys, argv):
    # open() refuses such a path with a ValueError, not an OSError: a bad input, exit 2, not an internal error.
    path = next(arg for arg in argv if "\x00" in arg)
    assert run(capsys, *argv) == (2, "", f"ontobot: cannot read {path}: embedded null byte\n")


def test_interrupt_while_a_file_opens_is_not_an_unreadable_file(capsys, monkeypatch):
    # Only an OSError or a ValueError from open() names the file: Ctrl-C still ends the command as an interrupt.
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "open", interrupted, raising=False)
    assert run(capsys, "validate", "kg.ttl") == (130, "", "ontobot: interrupted\n")
