"""The CLI transcript corpus: stdout, stderr and exit code of every command.

``tests/golden/cli.json`` holds one record per invocation of ``cli.main``.
``write_inputs`` writes what the invocations read, relative to the working
directory:

- ``fixtures/`` and ``queries/``: the packaged graphs and queries;
- ``copies/``: two renamed copies of both fixtures in one pair of files;
- ``blank/``: a small activity/robot pair whose nodes are mostly blank,
  with the same blank labels in both files, so the union's ``_:m<n>``
  labels reach ``validate``, ``cq`` and ``query`` output;
- ``prefix/``: a pair where one file rebinds ``x:`` and the other binds
  ``z:`` to the same namespace, so the union's prefix table shows in every
  prefixed cell;
- ``errors/``: inputs for the failures of exit codes 1-4.

Regenerate the corpus only for an intended change of output, and say what
changed in CHANGES.md:

    PYTHONPATH=src python tests/golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

from ontobot import cli
from ontobot.fixtures import activities_path, queries_dir, robots_path

CORPUS = Path(__file__).resolve().parent / "golden" / "cli.json"
FORMATS = ("table", "csv", "json")

_HEAD = """\
@prefix : <https://example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix obot: <https://w3id.org/onto-bot#> .
@prefix dul: <http://www.ontologydesignpatterns.org/ont/dul/DUL.owl#> .
@prefix soma: <http://www.ease-crc.org/ont/SOMA.owl#> .
@prefix pko: <https://w3id.org/pko#> .
@prefix pplan: <http://purl.org/net/p-plan#> .
@prefix prov: <http://www.w3.org/ns/prov#> .
@prefix ros: <http://data.mksmart.org/onto-ros/class#> .
"""

# One activity and two robots, nearly all blank nodes. Both files use the
# labels _:act and _:node, which must stay apart in the union.
BLANK_ACTIVITIES = _HEAD + """
_:act a prov:Activity ;
    rdfs:label "Prepare breakfast" ;
    pko:hasUserQuestionOccurrence _:question ;
    pko:executesProcedure _:clear .
_:question rdfs:label "Can you clear the table?" .
_:clear a pko:Procedure ;
    rdfs:label "Clear the table" ;
    pko:hasStep _:take , _:wipe .
_:take a pplan:Step ;
    rdfs:label "Take the cup" ;
    pko:nextStep _:wipe ;
    pko:requiresAction _:grasp , _:place .
_:grasp a pko:Action ;
    rdfs:label "Grasp the cup" ;
    obot:nextAction _:place ;
    obot:actsOn _:cup ;
    obot:requiresAffordance soma:Grasping .
_:place a pko:Action ;
    rdfs:label "Place the cup" ;
    obot:actsOn _:cup ;
    obot:requiresAffordance soma:Placing .
_:wipe a pplan:Step ;
    rdfs:label "Wipe the table" ;
    pko:requiresAction _:hold .
_:hold a pko:Action ;
    rdfs:label "Hold the cloth" ;
    obot:requiresAffordance soma:Holding .
_:cup a obot:Component ;
    rdfs:label "Cup" ;
    obot:hasAffordance soma:Grasping , soma:Placing .
_:node a obot:Environment ;
    dul:hasComponent _:cup .
"""

BLANK_ROBOTS = _HEAD + """
_:act a obot:Agent ;
    rdfs:label "Tidybot" ;
    obot:hasNode _:node .
_:node a ros:Node ;
    ros:communicatesThrough _:topic .
_:topic a ros:CommunicationComponent .
_:channel a ros:ROSCommunication ;
    ros:hasComponent _:topic ;
    ros:hasMessage _:message .
_:message a ros:Message ;
    ros:evokes _:grasping , _:placing , _:holding .
_:grasping a ros:Capability ; obot:enablesAffordance soma:Grasping .
_:placing a ros:Capability ; obot:enablesAffordance soma:Placing .
_:holding a ros:Capability ; obot:enablesAffordance soma:Holding .
:plainbot a obot:Agent ;
    rdfs:label "Plainbot" ;
    obot:hasNode _:bare .
"""

# x: is rebound half-way; z: in the other file names the final namespace
# of x:, and y: the first one. The other file's own x: loses to this one.
# Tagged and typed labels reach query cells.
PREFIX_A = """\
@prefix x: <https://old.example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix obot: <https://w3id.org/onto-bot#> .
@prefix soma: <http://www.ease-crc.org/ont/SOMA.owl#> .
@prefix pko: <https://w3id.org/pko#> .
@prefix pplan: <http://purl.org/net/p-plan#> .
@prefix prov: <http://www.w3.org/ns/prov#> .
x:kettle a obot:Component .
@prefix x: <https://example.org/> .
x:makeTea a prov:Activity ;
    rdfs:label "Make tea"@en ;
    pko:hasUserQuestionOccurrence x:question ;
    pko:executesProcedure x:brew .
x:brew a pko:Procedure ;
    rdfs:label "Brew tea" ;
    pko:hasStep x:steep .
x:steep a pplan:Step ;
    rdfs:label "Steep the tea"^^xsd:string ;
    pko:requiresAction x:pour , x:wipe .
x:pour a pko:Action ;
    rdfs:label "Pour the water" ;
    obot:nextAction x:wipe ;
    obot:actsOn x:kettle ;
    obot:requiresAffordance soma:Pouring .
x:wipe a pko:Action ;
    rdfs:label "Wipe the counter" ;
    obot:actsOn x:cloth ;
    obot:requiresAffordance soma:Holding .
x:cloth a obot:Component .
"""

PREFIX_B = """\
@prefix z: <https://example.org/> .
@prefix y: <https://old.example.org/> .
@prefix x: <https://other.example.org/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
@prefix obot: <https://w3id.org/onto-bot#> .
@prefix soma: <http://www.ease-crc.org/ont/SOMA.owl#> .
@prefix ros: <http://data.mksmart.org/onto-ros/class#> .
z:teabot a obot:Agent ;
    rdfs:label "Teabot" ;
    obot:hasNode z:node .
z:node a ros:Node ;
    ros:communicatesThrough z:topic .
z:channel a ros:ROSCommunication ;
    ros:hasComponent z:topic ;
    ros:hasMessage z:message .
z:message ros:evokes z:pouring , z:holding .
z:pouring obot:enablesAffordance soma:Pouring .
z:holding obot:enablesAffordance y:Holding , x:Holding .
"""

ERRORS = {
    "cycle.ttl": _HEAD + ":s1 pko:nextStep :s2 .\n:s2 pko:nextStep :s1 .\n",
    "broken.ttl": _HEAD + ":a :b \n",
    # Two first actions in one step: the graph loads, CQ2 cannot order it.
    "fork.ttl": _HEAD + """
:act a prov:Activity ; rdfs:label "Forked" ; pko:executesProcedure :proc .
:proc a pko:Procedure ; rdfs:label "Proc" ; pko:hasStep :step .
:step a pplan:Step ; rdfs:label "Step" ; pko:requiresAction :a1 , :a2 , :a3 .
:a1 a pko:Action ; rdfs:label "A1" ; obot:nextAction :a3 .
:a2 a pko:Action ; rdfs:label "A2" ; obot:nextAction :a3 .
:a3 a pko:Action ; rdfs:label "A3" .
""",
    # A fork at :s1 and a join at :s4. Read in file order the join comes
    # first; read in hasStep order, the fork.
    "steps.ttl": _HEAD + """
:act a prov:Activity ; rdfs:label "Tangled steps" ; pko:executesProcedure :proc .
:proc a pko:Procedure ; rdfs:label "Tidy up" ; pko:hasStep :s1 , :s2 , :s3 , :s4 .
:s3 pko:nextStep :s4 .
:s2 pko:nextStep :s4 .
:s1 pko:nextStep :s2 , :s3 .
""",
    # The first step orders; the second has a fork at :a1 and a join at :a2,
    # met in the opposite order by file order and by requiresAction order.
    "actions.ttl": _HEAD + """
:act a prov:Activity ; rdfs:label "Tangled actions" ; pko:executesProcedure :proc .
:proc a pko:Procedure ; rdfs:label "Tidy up" ; pko:hasStep :s1 , :s2 .
:s1 rdfs:label "Clear" ; pko:nextStep :s2 ; pko:requiresAction :a0 .
:s2 rdfs:label "Stack" ; pko:requiresAction :a1 , :a2 , :a3 .
:a3 obot:nextAction :a2 .
:a1 obot:nextAction :a2 , :a3 .
""",
    # Three steps and one link: each node is well formed, but the chain leaves :s3 out, so validate fails it
    # and CQ2 cannot order it.
    "incomplete.ttl": _HEAD + """
:act a prov:Activity ; rdfs:label "Act" ; pko:executesProcedure :p1 .
:p1 rdfs:label "P1" ; pko:hasStep :s1 , :s2 , :s3 .
:s1 a pplan:Step ; rdfs:label "S1" ; pko:nextStep :s2 .
:s2 a pplan:Step ; rdfs:label "S2" .
:s3 a pplan:Step ; rdfs:label "S3" .
""",
    # A procedure and a robot with no rdfs:label: the matrix would name them by their IRIs (two R4 lines).
    "unlabelled.ttl": _HEAD + """
:act a prov:Activity ; rdfs:label "Act" ; pko:executesProcedure :p1 .
:p1 a pko:Procedure ; pko:hasStep :s1 .
:s1 a pplan:Step ; rdfs:label "S1" ; pko:requiresAction :a1 .
:a1 a pko:Action ; rdfs:label "grasp" ; obot:requiresAffordance soma:Grasping ; obot:actsOn :cup .
:cup a obot:Component .
:bot a obot:Agent .
""",
    # A literal procedure and a literal step, which no label can name: one R1 line each.
    "literal-nodes.ttl": _HEAD + """
:act a prov:Activity ; rdfs:label "Act" ; pko:executesProcedure :p1 , "make tea" .
:p1 a pko:Procedure ; rdfs:label "P1" ; pko:hasStep "boil" .
""",
    "having.rq": "PREFIX : <https://example.org/>\nSELECT ?x WHERE { ?x :p ?y . HAVING (?y > 1) }\n",
    "broken.rq": "SELECT WHERE { }\n",
}

_COPY_TOKEN = re.compile(r'<[^>\s]*>|"[^"\n]*"|#[^\n]*|(?<![\w:-]):[A-Za-z][\w-]*')


def renamed_copy(text: str, n: int) -> str:
    """Copy ``n`` of a fixture: every ``:name`` gets ``_n``, every string `` n``."""

    def rename(m: re.Match) -> str:
        token = m.group()
        if token.startswith("#"):
            return ""  # comments may quote labels
        if token.startswith('"'):
            return f'{token[:-1]} {n}"'
        if token.startswith(":"):
            return f"{token}_{n}"
        return token

    return _COPY_TOKEN.sub(rename, text)


def write_inputs(root: Path) -> None:
    files = {
        "blank/activities.ttl": BLANK_ACTIVITIES,
        "blank/robots.ttl": BLANK_ROBOTS,
        "prefix/a.ttl": PREFIX_A,
        "prefix/b.ttl": PREFIX_B,
        **{f"errors/{name}": text for name, text in ERRORS.items()},
    }
    for source in (activities_path(), robots_path()):
        text = source.read_text(encoding="utf-8")
        files[f"fixtures/{source.name}"] = text
        files[f"copies/{source.name}"] = renamed_copy(text, 1) + renamed_copy(text, 2)
    for source in sorted(queries_dir().glob("*.rq")):
        files[f"queries/{source.name}"] = source.read_text(encoding="utf-8")
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text, encoding="utf-8")
    (root / "errors" / "binary.ttl").write_bytes(b"\xff\xfe\x00garbage")
    (root / "errors" / "empty").mkdir(exist_ok=True)


def _commands(kg: list[str], activity: str, robot: str, queries: bool) -> list[list[str]]:
    """The commands that render a table, without their output format."""
    rq = [f"queries/{p.name}" for p in sorted(queries_dir().glob("*.rq"))] if queries else []
    return [
        ["cq", "1", *kg, "--activity", activity],
        ["cq", "2", *kg, "--activity", activity],
        ["cq", "3", *kg],
        ["cq", "4", *kg, "--activity", activity],
        ["cq", "5", *kg, "--robot", robot],
        ["cq", "6", *kg, "--robot", robot, "--activity", activity],
        ["cq", "6", *kg, "--matrix"],
        *(["query", *kg, "-f", q] for q in rq),
    ]


def cases() -> list[dict]:
    """Every invocation of the corpus: a name, argv and the environment it sets."""
    out: list[dict] = []

    def add(name: str, argv: list[str], env: dict[str, str] | None = None) -> None:
        out.append({"name": name, "argv": argv, "env": env or {}})

    # Every format is pinned on the fixtures. The other pairs pin what they
    # add (more copies, blank labels, prefix choice) in fewer formats, to keep
    # the replay near one second: the two-copy pair costs twice as much per
    # invocation, so it answers the CQs in one format and runs no query files.
    inputs = {
        # name: (files, activity, robot, formats, queries)
        "fixtures": (["fixtures/activities.ttl", "fixtures/robots.ttl"], "Prepare breakfast", "HSR", FORMATS, True),
        "copies": (["copies/activities.ttl", "copies/robots.ttl"], "Prepare breakfast 2", "UR3 1", ("table",), False),
        "blank": (["blank/activities.ttl", "blank/robots.ttl"], "Prepare breakfast", "Plainbot", ("table", "json"), True),
        "prefix": (["prefix/a.ttl", "prefix/b.ttl"], "Make tea", "Teabot", ("table", "csv"), True),
    }
    for name, (files, activity, robot, formats, queries) in inputs.items():
        add(f"{name}-validate", ["validate", *files])
        kg = [arg for path in files for arg in ("-k", path)]
        for argv in _commands(kg, activity, robot, queries):
            what = "-".join(a.removeprefix("queries/").removesuffix(".rq") for a in argv if a not in kg)
            for fmt in formats:
                add(f"{name}-{what}-{fmt}".replace(" ", "_"), [*argv, "-o", fmt])
    add("defaults-cq4", ["cq", "4", "--activity", "Reorganise the kitchen"])

    fixtures = ["-k", "fixtures/activities.ttl", "-k", "fixtures/robots.ttl"]
    add("exit1-validate-cycle", ["validate", "errors/cycle.ttl"])
    add("exit1-validate-incomplete-chain", ["validate", "errors/incomplete.ttl"])
    add("exit1-validate-unlabelled-robot-and-procedure", ["validate", "errors/unlabelled.ttl"])
    add("exit1-validate-literal-procedure-and-step", ["validate", "errors/literal-nodes.ttl"])
    add("exit2-validate-missing-file", ["validate", "fixtures/activities.ttl", "errors/missing.ttl"])
    add("exit2-validate-parse-error", ["validate", "fixtures/activities.ttl", "errors/broken.ttl"])
    add("exit2-validate-not-utf8", ["validate", "errors/binary.ttl"])
    add("exit2-cq-parse-error-in-second-file", ["cq", "4", "-k", "fixtures/activities.ttl", "-k", "errors/broken.ttl",
                                                "--activity", "Prepare breakfast"])
    add("exit2-cq-missing-argument", ["cq", "1", *fixtures])
    add("exit2-cq6-needs-robot", ["cq", "6", *fixtures, "--activity", "Prepare breakfast"])
    add("exit2-cq2-chain-fork", ["cq", "2", "-k", "errors/fork.ttl", "--activity", "Forked"])
    add("exit2-cq2-step-chain-fork-and-join", ["cq", "2", "-k", "errors/steps.ttl", "--activity", "Tangled steps"])
    add("exit2-cq2-action-chain-fork-and-join", ["cq", "2", "-k", "errors/actions.ttl", "--activity", "Tangled actions"])
    add("exit2-cq2-incomplete-chain", ["cq", "2", "-k", "errors/incomplete.ttl", "--activity", "Act"])
    add("exit2-query-syntax", ["query", *fixtures, "-f", "errors/broken.rq"])
    add("exit2-query-missing-file", ["query", *fixtures, "-f", "errors/missing.rq"])
    add("exit2-empty-fixtures-dir", ["cq", "4", "--activity", "Prepare breakfast"], {"ONTOBOT_FIXTURES": "errors/empty"})
    add("exit3-query-having", ["query", *fixtures, "-f", "errors/having.rq"])
    add("exit4-cq-unknown-activity", ["cq", "3", *fixtures, "--activity", "No such"])
    add("exit4-cq-unknown-robot", ["cq", "5", *fixtures, "--robot", "Nobody"])
    return out


def run_case(case: dict) -> dict:
    """Run one invocation in-process; the working directory must hold the inputs."""
    saved = {name: os.environ.get(name) for name in ("ONTOBOT_FIXTURES", *case["env"])}
    os.environ.pop("ONTOBOT_FIXTURES", None)
    os.environ.update(case["env"])
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(case["argv"])
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    return {
        "exit": code,
        "stdout": stdout.getvalue().splitlines(keepends=True),
        "stderr": stderr.getvalue().splitlines(keepends=True),
    }


def generate(workdir: Path) -> list[dict]:
    write_inputs(workdir)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return [{**case, **run_case(case)} for case in cases()]
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        corpus = generate(Path(tmp))
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{CORPUS}: {len(corpus)} invocations", file=sys.stderr)
