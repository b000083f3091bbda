"""Shared test machinery: independent oracles and random generators.

The oracles here deliberately avoid the package's evaluation paths:
`scan_match` is a plain linear scan, `oracle_evaluate` is a naive
nested-loop join in the query's original pattern order with no indexes
and no reordering, and `isomorphic` reads each graph in one iteration.
"""

from __future__ import annotations

import random

from ontobot.graph import BLANK, Graph, Term, Triple, blank, iri, literal
from ontobot.query import Query, TriplePattern, Var


def short(term: Term) -> str:
    return term.value.rsplit("#", 1)[-1].rsplit("/", 1)[-1]


def scan_match(graph: Graph, s: Term | None, p: Term | None, o: Term | None) -> set[Triple]:
    return {
        t
        for t in graph
        if (s is None or t.s == s) and (p is None or t.p == p) and (o is None or t.o == o)
    }


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
    rows: list[tuple[Term, ...]] = []

    def descend(i: int, binding: dict[str, Term]) -> None:
        if i == len(query.pattern):
            rows.append(tuple(binding[name] for name in query.projection))
            return
        for t in triples:
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
