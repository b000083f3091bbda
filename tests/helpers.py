"""Shared test machinery: independent oracles and random generators.

The oracles here deliberately avoid the package's evaluation paths:
`scan_match` is a plain linear scan, `oracle_evaluate` is a naive
nested-loop join in the query's original pattern order with no indexes
and no reordering (each pattern's candidates come from one linear scan),
`isomorphic` reads each graph in one iteration, `oracle_infer` is a
brute-force fixpoint of subclass inference, and `oracle_load` builds the
one-pass load's union by iteration, in the order README states.
`random_ontobot_graph` generates graphs in the fixtures' domain for the
reasoner's cross-oracle.
`record_calls` counts the graph reads, through a method or through a group's
view, that the work-bound tests hold to the size of the answer.
`outputs_across_memory_layouts` runs a script in fresh processes that hand
out different addresses. `assert_outcomes_match_corpus` replays a pin corpus.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from collections.abc import Callable, Mapping, Sequence
from pathlib import Path

import ontobot
from ontobot.fixtures import vocabulary_path
from ontobot.graph import BLANK, Graph, Term, Triple, blank, iri, literal
from ontobot.namespaces import EX, OBOT, PKO, PROV, RDF, RDFS, ROS, SOMA
from ontobot.query import Query, TriplePattern, Var
from ontobot.schema import SUBCLASS_AXIOMS
from ontobot.turtle import parse_turtle


def outputs_across_memory_layouts(script: str) -> set[str]:
    """The distinct stdouts of ``script`` run in four fresh processes, which allocate 0, 1, 5,000 and 40,000
    objects before the script imports ``ontobot``.

    Terms hash by identity, so an order taken from a set of terms would follow the addresses a process hands
    out. The script sees ``sys`` imported, and the processes read no ``ONTOBOT_FIXTURES`` directory.
    """
    prologue = "import sys; junk = [object() for _ in range(int(sys.argv[1]))]\n"
    env = {**os.environ, "PYTHONPATH": str(Path(ontobot.__file__).resolve().parents[1]), "PYTHONIOENCODING": "utf-8"}
    env.pop("ONTOBOT_FIXTURES", None)
    return {
        subprocess.run([sys.executable, "-c", prologue + script, n], env=env, capture_output=True, encoding="utf-8",
                       check=True).stdout
        for n in ("0", "1", "5000", "40000")
    }


def assert_outcomes_match_corpus(corpus: Path, outcomes: Callable[[], dict[str, str]]) -> None:
    """Fail unless ``outcomes()`` names the recorded cases in their order and gives each its recorded outcome."""
    recorded = json.loads(corpus.read_text(encoding="utf-8"))
    got = outcomes()
    assert list(got) == list(recorded)
    differing = [name for name in recorded if got[name] != recorded[name]]
    assert not differing, f"{len(differing)} of {len(recorded)} outcomes differ\n" + "\n".join(
        f"{name}:\n  got      {got[name]}\n  recorded {recorded[name]}" for name in differing[:3]
    )


def short(term: Term) -> str:
    return term.value.rsplit("#", 1)[-1].rsplit("/", 1)[-1]


def scan_match(graph: Graph, s: Term | None, p: Term | None, o: Term | None) -> set[Triple]:
    return {
        t
        for t in graph
        if (s is None or t.s == s) and (p is None or t.p == p) and (o is None or t.o == o)
    }


class _RecordedGroup(Mapping):
    """A `Graph.group` view that appends ("group read", the triples found) to `calls` for each key read."""

    def __init__(self, view: Mapping[Term, Sequence[Triple]], calls: list[tuple[str, object]]):
        self._view, self._calls = view, calls

    def __getitem__(self, key: Term) -> Sequence[Triple]:
        found = self._view[key]
        self._calls.append(("group read", found))
        return found

    def get(self, key: Term, default=None):
        found = self._view.get(key)
        self._calls.append(("group read", () if found is None else found))
        return default if found is None else found

    def __iter__(self):
        return iter(self._view)

    def __len__(self) -> int:
        return len(self._view)


def record_calls(monkeypatch, *names: str, group_reads: bool = False) -> list[tuple[str, object]]:
    """Wrap each named `Graph` method so that every call appends (name, result) to the returned list.

    With `group_reads`, each view that a recorded `Graph.group` call returns is
    wrapped as well, and each key read through it appends ("group read", the
    triples that read found). Pass a `monkeypatch.context()` to stop recording
    where the context ends.
    """
    calls: list[tuple[str, object]] = []

    def recording(name: str, method):
        def wrapper(graph: Graph, *args):
            found = method(graph, *args)
            calls.append((name, found))
            return _RecordedGroup(found, calls) if group_reads and name == "group" else found

        return wrapper

    for name in names:
        monkeypatch.setattr(Graph, name, recording(name, getattr(Graph, name)))
    return calls


def _unify(pattern: TriplePattern, triple: Triple, binding: dict[str, Term]) -> dict[str, Term] | None:
    out = dict(binding)
    for slot, value in zip(pattern, triple):
        if isinstance(slot, Var):
            bound = out.get(slot.name)
            if bound is None:
                out[slot.name] = value
            elif bound != value:
                return None
        elif slot != value:
            return None
    return out


def oracle_evaluate(query: Query, graph: Graph) -> list[tuple[Term, ...]]:
    """Projected rows from a naive nested-loop join; multiset, unsorted."""
    triples = list(graph)
    # Each pattern's candidates: one linear scan for the triples that hold its constants.
    candidates = [
        [t for t in triples if all(isinstance(slot, Var) or slot == value for slot, value in zip(pattern, t))]
        for pattern in query.pattern
    ]
    rows: list[tuple[Term, ...]] = []

    def descend(i: int, binding: dict[str, Term]) -> None:
        if i == len(query.pattern):
            rows.append(tuple(binding[name] for name in query.projection))
            return
        for t in candidates[i]:
            extended = _unify(query.pattern[i], t, binding)
            if extended is not None:
                descend(i + 1, extended)

    descend(0, {})
    if query.distinct:
        seen: set[tuple[Term, ...]] = set()
        unique = []
        for row in rows:
            if row not in seen:
                seen.add(row)
                unique.append(row)
        return unique
    return rows


def _has_blank(t: Triple) -> bool:
    return t.s.kind == BLANK or t.o.kind == BLANK


def _split(g: Graph) -> tuple[set[Triple], list[Triple], dict[Term, tuple]]:
    """One pass over ``g``: its ground triples, its triples that hold a blank node,
    and each blank node's signature, the sorted predicates of its outgoing and of
    its incoming triples. Blank nodes keep their first-seen order."""
    ground: set[Triple] = set()
    blank_triples: list[Triple] = []
    edges: dict[Term, tuple[list[str], list[str]]] = {}
    for t in g:
        if not _has_blank(t):
            ground.add(t)
            continue
        blank_triples.append(t)
        if t.s.kind == BLANK:
            edges.setdefault(t.s, ([], []))[0].append(t.p.value)
        if t.o.kind == BLANK:
            edges.setdefault(t.o, ([], []))[1].append(t.p.value)
    signatures = {node: (tuple(sorted(out)), tuple(sorted(into))) for node, (out, into) in edges.items()}
    return ground, blank_triples, signatures


def isomorphic(a: Graph, b: Graph) -> bool:
    """True when the graphs are equal up to a bijective blank-node renaming
    (RDF 1.1 Concepts, section 3.6).

    Reads each graph once by iteration and never through an index, so it can
    check what the indexes hold. Brute force with signature pruning; intended for
    test-sized graphs (a handful of blank nodes), not for adversarial inputs.
    """
    if len(a) != len(b):
        return False
    a_ground, a_blank_triples, a_sigs = _split(a)
    b_ground, b_blank_list, b_sigs = _split(b)
    if a_ground != b_ground or len(a_sigs) != len(b_sigs):
        return False
    b_blank_triples = set(b_blank_list)
    candidates = {n: [m for m in b_sigs if b_sigs[m] == sig] for n, sig in a_sigs.items()}
    if any(not opts for opts in candidates.values()):
        return False
    order = sorted(a_sigs, key=lambda n: len(candidates[n]))

    def rename(t: Triple, mapping: dict[Term, Term]) -> Triple:
        s = mapping.get(t.s, t.s) if t.s.kind == BLANK else t.s
        o = mapping.get(t.o, t.o) if t.o.kind == BLANK else t.o
        return Triple(s, t.p, o)

    def assign(i: int, mapping: dict[Term, Term], used: set[Term]) -> bool:
        if i == len(order):
            return all(rename(t, mapping) in b_blank_triples for t in a_blank_triples)
        node = order[i]
        for target in candidates[node]:
            if target in used:
                continue
            mapping[node] = target
            used.add(target)
            if assign(i + 1, mapping, used):
                return True
            del mapping[node]
            used.discard(target)
        return False

    return assign(0, {}, set())


@functools.cache
def _vocabulary_subclass_pairs() -> frozenset[tuple[Term, Term]]:
    vocabulary = parse_turtle(vocabulary_path().read_text(encoding="utf-8"))
    return frozenset((s, o) for s, p, o in vocabulary if p == RDFS.subClassOf)


def oracle_infer(graph: Graph) -> set[Triple]:
    """``graph``'s triples closed under "x a C, C ⊑ D ⇒ x a D", by brute force over plain tuples.

    The pairs C ⊑ D are the graph's own and the packaged vocabulary file's, as the parser reads them;
    nothing comes from ``ontobot.schema``. Each round matches every type triple with every pair, until
    a round derives nothing new.
    """
    triples = {(s, p, o) for s, p, o in graph}
    pairs = _vocabulary_subclass_pairs() | {(s, o) for s, p, o in triples if p == RDFS.subClassOf}
    while True:
        derived = {(x, RDF.type, d) for x, p, c in triples if p == RDF.type for sub, d in pairs if sub == c}
        if derived <= triples:
            return {Triple(*t) for t in triples}
        triples |= derived


def oracle_load(sources: Sequence[Graph | Path], infer: bool = True) -> tuple[list[Triple], list[tuple[str, str]]]:
    """The triples and prefix items that ``load_graph(sources, infer)`` must hold, in order, built from README's rules.

    Each path is parsed with ``parse_turtle``; a graph is taken as given. Each source's blank nodes become
    ``m0``, ``m1``, ... in first-seen order across the sources, subject before object; a repeated triple keeps
    its first place; the first binding of a prefix name wins. With ``infer``, each asserted type triple, in
    order, is followed by its class's superclasses in depth-first preorder, each class's direct ones taken
    from ``SUBCLASS_AXIOMS`` sorted by ``Term.sort_key``, then from the union's ``rdfs:subClassOf`` triples,
    and a triple already present is skipped. Nothing here goes through ``Graph.add_graph``, an index or
    ``ontobot.schema``'s inference.
    """
    triples: dict[Triple, None] = {}
    prefixes: dict[str, str] = {}
    minted = 0
    for source in sources:
        g = source if isinstance(source, Graph) else parse_turtle(source.read_text(encoding="utf-8"))
        for name, namespace in g.prefixes.items():
            prefixes.setdefault(name, namespace)
        renamed: dict[Term, Term] = {}
        for s, p, o in g:
            for term in (s, o):
                if term.kind == BLANK and term not in renamed:
                    renamed[term], minted = blank(f"m{minted}"), minted + 1
            triples.setdefault(Triple(renamed.get(s, s), p, renamed.get(o, o)))
    if infer:
        direct: dict[Term, list[Term]] = {}
        for sub, sup in sorted(SUBCLASS_AXIOMS, key=lambda pair: pair[1].sort_key()):
            direct.setdefault(sub, []).append(sup)
        for s, p, o in list(triples):
            if p == RDFS.subClassOf:
                direct.setdefault(s, []).append(o)

        def walk(node: Term, cls: Term, seen: set[Term]) -> None:
            for sup in direct.get(cls, ()):
                if sup not in seen:
                    seen.add(sup)
                    triples.setdefault(Triple(node, RDF.type, sup))
                    walk(node, sup, seen)

        for s, p, o in [t for t in triples if t.p == RDF.type]:
            walk(s, o, {o})
    return list(triples), list(prefixes.items())


def row_key(row: tuple[Term, ...]) -> tuple:
    return tuple(term.sort_key() for term in row)


# -- random data ------------------------------------------------------------


def random_term_pools(rng: random.Random, with_blanks: bool = True) -> dict[str, list[Term]]:
    n_iris = rng.randint(4, 14)
    iris = [iri(f"https://example.org/n{i}") for i in range(n_iris)]
    predicates = [iri(f"http://vocab.test/p{i}") for i in range(rng.randint(2, 6))]
    literals = [literal(f"value {i}") for i in range(rng.randint(1, 4))]
    literals.append(literal("tagged", lang="en"))
    literals.append(literal("42", datatype="http://www.w3.org/2001/XMLSchema#integer"))
    blanks = [blank(f"x{i}") for i in range(rng.randint(1, 5))] if with_blanks else []
    return {"iris": iris, "predicates": predicates, "literals": literals, "blanks": blanks}


def random_graph(
    rng: random.Random,
    max_triples: int = 60,
    with_blanks: bool = True,
    prefixes: dict[str, str] | None = None,
) -> Graph:
    pools = random_term_pools(rng, with_blanks=with_blanks)
    subjects = pools["iris"] + pools["blanks"]
    objects = pools["iris"] + pools["blanks"] + pools["literals"]
    g = Graph(prefixes or {})
    for _ in range(rng.randint(0, max_triples)):
        g.insert(Triple(rng.choice(subjects), rng.choice(pools["predicates"]), rng.choice(objects)))
    return g.freeze()


def random_query(rng: random.Random, graph: Graph, max_patterns: int = 6) -> Query:
    triples = list(graph)
    n_patterns = rng.randint(1, max_patterns)
    var_pool = [f"v{i}" for i in range(6)]
    used_vars: list[str] = []
    patterns: list[TriplePattern] = []

    def position(value: Term) -> Term | Var:
        roll = rng.random()
        if roll < 0.45:
            return value
        if roll < 0.80 and used_vars:
            return Var(rng.choice(used_vars))
        name = rng.choice(var_pool)
        if name not in used_vars:
            used_vars.append(name)
        return Var(name)

    for _ in range(n_patterns):
        if triples and rng.random() < 0.9:
            base = rng.choice(triples)
        else:
            base = Triple(iri("https://example.org/unseen"), iri("http://vocab.test/p0"), literal("missing"))
        patterns.append(TriplePattern(position(base.s), position(base.p), position(base.o)))

    def is_free(pat: TriplePattern) -> bool:
        # no constants and no variable shared with another pattern
        names = [t.name for t in pat if isinstance(t, Var)]
        if len(names) < 3:
            return False
        other_names = {
            t.name
            for q in patterns
            if q is not pat
            for t in q
            if isinstance(t, Var)
        }
        return not any(name in other_names for name in names)

    # Keep the nested-loop oracle tractable: at most one unconstrained pattern.
    free = [pat for pat in patterns if is_free(pat)]
    for pat in free[1:]:
        index = patterns.index(pat)
        anchor = rng.choice(triples) if triples else Triple(
            iri("https://example.org/unseen"), iri("http://vocab.test/p0"), literal("missing")
        )
        patterns[index] = TriplePattern(anchor.s, pat.p, pat.o)

    pattern_vars: list[str] = []
    for pat in patterns:
        for t in pat:
            if isinstance(t, Var) and t.name not in pattern_vars:
                pattern_vars.append(t.name)
    if not pattern_vars:
        index = rng.randrange(len(patterns))
        pat = patterns[index]
        patterns[index] = TriplePattern(pat.s, pat.p, Var("v0"))
        pattern_vars.append("v0")
    k = rng.randint(1, len(pattern_vars))
    projection = rng.sample(pattern_vars, k)
    return Query(prefixes={}, projection=projection, distinct=rng.random() < 0.5, pattern=patterns)


AFFORDANCES = [SOMA.Grasping, SOMA.Holding, SOMA.Placing, SOMA.Pouring, SOMA.Opening, SOMA.Closing]


def random_ontobot_graph(rng: random.Random) -> Graph:
    """A seeded OntoBOT graph inside the fixtures' domain, where the reasoner and the
    packaged queries must agree: every activity is a labelled ``prov:Activity`` (the
    first one labelled "Prepare breakfast") and every robot a labelled ``obot:Agent``.

    Communication components are shared between nodes, and each communication is
    typed ``ros:ROSCommunication`` or another class. Steps share actions, an action
    acts on zero to two components, and a component is acted on by several actions.
    Steps and actions are chained in their listed order most of the time.
    """
    g = Graph({"": EX.base, "rdf": RDF.base, "rdfs": RDFS.base, "obot": OBOT.base, "soma": SOMA.base,
               "pko": PKO.base, "prov": PROV.base, "ros": ROS.base})
    names: dict[str, int] = {}

    def new(kind: str, cls: Term | None = None, label: str | None = None) -> Term:
        names[kind] = names.get(kind, -1) + 1
        node = iri(f"{EX.base}{kind}{names[kind]}")
        if cls is not None:
            g.insert(Triple(node, RDF.type, cls))
        if label is not None:
            g.insert(Triple(node, RDFS.label, literal(label)))
        return node

    def link(s: Term, p: Term, pool: list[Term], low: int, high: int) -> list[Term]:
        chosen = rng.sample(pool, min(len(pool), rng.randint(low, high)))
        for o in chosen:
            g.insert(Triple(s, p, o))
        return chosen

    def chain(p: Term, items: list[Term]) -> None:
        if rng.random() < 0.7:
            for a, b in zip(items, items[1:]):
                g.insert(Triple(a, p, b))

    capabilities = [new("capability", ROS.Capability) for _ in range(rng.randint(1, 5))]
    for capability in capabilities:
        link(capability, OBOT.enablesAffordance, AFFORDANCES, 1, 3)
    messages = [new("message", ROS.Message) for _ in range(rng.randint(1, 4))]
    for message in messages:
        link(message, ROS.evokes, capabilities, 1, 3)
    topics = [new("topic", ROS.CommunicationComponent) for _ in range(rng.randint(1, 4))]
    for _ in range(rng.randint(1, 5)):
        comm = new("comm", ROS.ROSCommunication if rng.random() < 0.75 else EX.OtherChannel)
        link(comm, ROS.hasComponent, topics, 1, 2)
        link(comm, ROS.hasMessage, messages, 1, 2)
    for r in range(rng.randint(1, 4)):
        robot = new("robot", OBOT.Agent, f"Robot {r}")
        for _ in range(rng.randint(0, 3)):
            node = new("node", ROS.Node)
            g.insert(Triple(robot, OBOT.hasNode, node))
            link(node, ROS.communicatesThrough, topics, 1, 3)

    components = [new("component", OBOT.Component) for _ in range(rng.randint(1, 5))]
    actions = [new("action", PKO.Action, f"Action {i}") for i in range(rng.randint(2, 8))]
    for action in actions:
        link(action, OBOT.actsOn, components, 0, 2)
        link(action, OBOT.requiresAffordance, AFFORDANCES, 1, 2)
    for label in ["Prepare breakfast", "Activity 1", "Activity 2"][: rng.randint(1, 3)]:
        activity = new("activity", PROV.Activity, label)
        for p in range(rng.randint(1, 2)):
            procedure = new("procedure", PKO.Procedure, f"{label}, procedure {p}")
            g.insert(Triple(activity, PKO.executesProcedure, procedure))
            steps = [new("step", None, f"Step {i}") for i in range(rng.randint(1, 3))]
            for step in steps:
                g.insert(Triple(procedure, PKO.hasStep, step))
                chain(OBOT.nextAction, link(step, PKO.requiresAction, actions, 1, 3))
            chain(PKO.nextStep, steps)
    return g.freeze()
