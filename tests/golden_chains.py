"""The CQ2 pin corpus: the plan, or the ``ChainError``, that ``task_plan`` gives.

``graphs`` builds 600 seeded random activities, fifty to a graph. Each activity
has one or two procedures of two to six steps, each step one to four
actions. Every procedure's ``pko:nextStep`` chain and every step's
``obot:nextAction`` chain starts as a path over its members in a random
order; most activities then have some chains broken: links dropped (gaps),
links added between random members (forks, joins, cycles, self-loops) and
links out to the members of another chain. The link triples of a graph are
inserted last, in one shuffled order, so the order the graph holds them in
disagrees with the order of each owner's members. A chain with several
faults therefore names a different fault depending on which order its links
are read in; the corpus pins the one graph order meets first.

``tests/golden/chains.json`` maps each activity to its outcome: the plan's
order as text (procedures, their steps, each step's actions), or the exact
``ChainError`` message. Regenerate it only for an intended change of
output, and say what changed in CHANGES.md:

    PYTHONPATH=src python tests/golden_chains.py
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from ontobot.graph import Graph, Term, Triple, iri
from ontobot.namespaces import OBOT, PKO, PROV, RDF
from ontobot.reasoner import ChainError, KnowledgeBase, TaskPlan

CORPUS = Path(__file__).resolve().parent / "golden" / "chains.json"
SEED, GRAPHS, ACTIVITIES = 7, 12, 50
EX = "https://example.org/"


def _chain_links(rng: random.Random, members: list[Term], foreign: list[Term], broken: bool) -> list[tuple[Term, Term]]:
    path = rng.sample(members, len(members))
    links = list(zip(path, path[1:]))
    if broken:
        for _ in range(rng.randint(0, 2)):
            if links:
                links.pop(rng.randrange(len(links)))
        for _ in range(rng.randint(1, 5)):
            links.append((rng.choice(members), rng.choice(members + foreign)))
    return links


def graphs(seed: int = SEED) -> list[tuple[Graph, list[Term]]]:
    """Each graph with its activities, in the order they were made."""
    rng = random.Random(seed)
    out = []
    for g in range(GRAPHS):
        triples: list[Triple] = []
        links: list[Triple] = []
        activities = []
        previous: list[Term] = [iri(EX + "elsewhere")]

        def add(s: Term, p: Term, o: Term) -> None:
            triples.append(Triple(s, p, o))

        def chain(owner: Term, member: Term, link: Term, members: list[Term], broken: bool) -> None:
            nonlocal previous
            for m in rng.sample(members, len(members)):
                add(owner, member, m)
            for s, o in _chain_links(rng, members, previous, broken):
                links.append(Triple(s, link, o))
            previous = members

        for a in range(ACTIVITIES):
            name = f"{g}_{a}"
            activity = iri(f"{EX}act{name}")
            activities.append(activity)
            add(activity, RDF.type, PROV.Activity)
            faulty = rng.random() < 0.75
            for p in range(rng.randint(1, 2)):
                procedure = iri(f"{EX}p{name}_{p}")
                add(activity, PKO.executesProcedure, procedure)
                steps = [iri(f"{EX}s{name}_{p}_{i}") for i in range(rng.randint(2, 6))]
                chain(procedure, PKO.hasStep, PKO.nextStep, steps, faulty and rng.random() < 0.5)
                for step in steps:
                    actions = [iri(f"{step.value}_{j}") for j in range(rng.randint(1, 4))]
                    chain(step, PKO.requiresAction, OBOT.nextAction, actions, faulty and rng.random() < 0.3)
        rng.shuffle(links)
        graph = Graph()
        graph.insert_all(triples + links)
        out.append((graph.freeze(), activities))
    return out


def plan_text(plan: TaskPlan) -> str:
    """``p: s(a a) s(a) | p: ...`` in plan order, by local name."""

    def local(term: Term) -> str:
        return term.value.removeprefix(EX)

    return " | ".join(
        local(p.procedure) + ": " + " ".join(f"{local(s.step)}({' '.join(local(a.action) for a in s.actions)})" for s in p.steps)
        for p in plan.procedures
    )


def outcomes(seed: int = SEED) -> dict[str, str]:
    """Each activity's plan text, or its ``ChainError`` message."""
    out = {}
    for graph, activities in graphs(seed):
        kb = KnowledgeBase(graph)
        for activity in activities:
            try:
                out[activity.value.removeprefix(EX)] = plan_text(kb.task_plan(activity))
            except ChainError as exc:
                out[activity.value.removeprefix(EX)] = str(exc)
    return out


if __name__ == "__main__":
    corpus = outcomes()
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=0, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"{CORPUS}: {len(corpus)} activities, {sum(v.startswith('cannot order') for v in corpus.values())} errors",
          file=sys.stderr)
