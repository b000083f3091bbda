"""SELECT-DISTINCT queries over basic graph patterns.

The grammar covers exactly what the competency-question queries need:
``PREFIX``/``@prefix`` declarations, ``SELECT [DISTINCT] ?var ...``,
and a ``WHERE { ... }`` block of triple patterns with ``;`` and ``,``
lists, the ``a`` keyword, and string literals. Patterns are separated by
``.``, which is optional before the closing ``}``.

Anything beyond that subset (FILTER, OPTIONAL, UNION, GROUP BY, HAVING,
ORDER BY, ...) raises :class:`UnsupportedFeatureError` naming the feature,
distinct from plain syntax errors so callers can report it separately.

Triple patterns are Turtle statements with variables, so the parser is the
Turtle statement parser (``turtle._StatementParser``) with the lexer's
variables switched on. It adds only variables, the unsupported keywords,
SELECT/WHERE and the ``}``-terminated pattern. The query is lexed into one
token list first, but a lexical error is raised only when the parser reaches
it, and the parser never reaches tokens past an unsupported clause, so e.g.
``HAVING (?y > 1)`` reports HAVING rather than a lexical error on '>'.

Evaluation compiles the query once, then runs it over one flat row.
Patterns are greedily ordered by bound-term count, preferring patterns
connected to already bound variables. Every variable and constant gets a
slot of the row, slot 0 holding ``None`` for unbound positions, and each
pattern becomes one step: a ``Graph.lookup`` of its three slots, which picks
the access path, plus the slots it fills. A step with a constant predicate
and one other bound position fetches that predicate's group once, when the
query compiles. A variable repeated within a pattern becomes an identity
check. The join walks the steps depth first over an explicit stack of
candidate iterators, writing into the row, and emits the projected slots at
the last step. Results are deduplicated on the projected terms when DISTINCT
is set and returned sorted by the projected terms' lexical forms, so
evaluation is fully deterministic.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Collection, Iterator, NamedTuple, Union

from ontobot.graph import Graph, Term
from ontobot.turtle import ParseDiagnostic, Token, _StatementParser


class QueryParseError(Exception):
    def __init__(self, diagnostic: ParseDiagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class UnsupportedFeatureError(Exception):
    """The query uses a SPARQL feature outside the supported subset."""

    def __init__(self, feature: str, line: int = 0, column: int = 0):
        super().__init__(f"unsupported feature: {feature}")
        self.feature = feature
        self.line = line
        self.column = column


class Var(NamedTuple):
    name: str


PatternTerm = Union[Term, Var]


class TriplePattern(NamedTuple):
    s: PatternTerm
    p: PatternTerm
    o: PatternTerm


class Query(NamedTuple):
    prefixes: dict[str, str]
    projection: list[str]
    distinct: bool
    pattern: list[TriplePattern]


class Solution(dict):
    """One result row: variable name -> bound term. Treat as immutable."""

    def __hash__(self) -> int:  # type: ignore[override]
        return hash(frozenset(self.items()))


_UNSUPPORTED_KEYWORDS = {
    "FILTER",
    "OPTIONAL",
    "UNION",
    "GROUP",
    "HAVING",
    "ORDER",
    "LIMIT",
    "OFFSET",
    "BIND",
    "VALUES",
    "MINUS",
    "SERVICE",
    "GRAPH",
    "ASK",
    "CONSTRUCT",
    "DESCRIBE",
    "EXISTS",
    "NOT",
    "FROM",
    "REDUCED",
}


class _QueryParser(_StatementParser):
    error = QueryParseError
    variables = True
    rejected = {
        "blank": "blank nodes are not supported in query patterns",
        "number": "numeric literals are not supported in query patterns",
        "boolean": "boolean literals are not supported in query patterns",
    }
    list_ends = frozenset({("dot", "."), ("punct", "}")})
    triple = TriplePattern

    def __init__(self, text: str):
        super().__init__(text)
        self.pattern: list[TriplePattern] = []
        self.add = self.pattern.append

    def check_unsupported(self, tok: Token) -> None:
        if tok[0] == "word" and tok[1].upper() in _UNSUPPORTED_KEYWORDS:
            feature = tok[1].upper()
            if feature in ("GROUP", "ORDER", "NOT"):
                follower = self.peek()
                if follower[0] == "word":
                    feature = f"{feature} {follower[1].upper()}"
            raise UnsupportedFeatureError(feature, *self.location(tok[2]))

    def keyword(self, tok: Token) -> str:
        return tok[1].upper() if tok[0] == "word" else ""

    def parse(self) -> Query:
        self.parse_prologue()
        tok = self.next()
        self.check_unsupported(tok)
        if self.keyword(tok) != "SELECT":
            self.fail("expected SELECT", tok[2])
        distinct = False
        if self.keyword(self.peek()) == "DISTINCT":
            self.next()
            distinct = True
        projection: list[str] = []
        while self.peek()[0] == "var":
            _, name, pos = self.next()
            if name in projection:
                self.fail(f"duplicate variable in projection: ?{name}", pos)
            projection.append(name)
        if not projection:
            tok = self.next()
            if tok[:2] == ("punct", "*"):
                self.fail("projection '*' is not supported; list the variables", tok[2])
            self.check_unsupported(tok)
            self.fail("expected at least one projected variable", tok[2])
        tok = self.next()
        if self.keyword(tok) == "WHERE":
            tok = self.next()
        if tok[:2] != ("punct", "{"):
            self.check_unsupported(tok)
            self.fail("expected '{' opening the graph pattern", tok[2])
        self.parse_group(tok[2])
        kind, value, pos = tok = self.next()
        self.check_unsupported(tok)
        if kind != "eof":
            self.fail(f"unexpected content after '}}': {value!r}", pos)
        pattern_vars = {
            t.name for pat in self.pattern for t in (pat.s, pat.p, pat.o) if isinstance(t, Var)
        }
        for name in projection:
            if name not in pattern_vars:
                self.fail(f"projected variable ?{name} does not occur in the pattern", pos)
        return Query(prefixes=self.prefixes, projection=projection, distinct=distinct, pattern=self.pattern)

    def parse_prologue(self) -> None:
        while True:
            tok = self.peek()
            if self.keyword(tok) == "PREFIX" or tok[0] == "prefix_directive":
                self.next()
                kind, name, pos = self.next()
                if kind != "pname" or name[1]:
                    self.fail("expected a prefix name ending in ':'", pos)
                self.bind(name[0], self.expect("iriref", "a namespace IRI in angle brackets")[1])
                if self.peek()[0] == "dot":
                    self.next()
            elif tok[0] == "base_directive":
                self.fail("unsupported construct: @base", tok[2])
            else:
                return

    def parse_group(self, open_pos: int) -> None:
        while True:
            kind, value, _ = self.peek()
            if (kind, value) == ("punct", "}"):
                self.next()
                break
            if kind == "eof":
                self.fail("unterminated graph pattern (missing '}')", open_pos)
            subject = self.parse_term("subject")
            self.parse_predicate_object_list(subject)
            kind, value, pos = tok = self.peek()
            if kind == "dot":
                self.next()
            elif (kind, value) != ("punct", "}") and kind != "eof":
                self.next()  # check_unsupported reads the token after it
                self.check_unsupported(tok)
                self.fail("expected '.' or '}' after a triple pattern", pos)
        if not self.pattern:
            self.fail("empty graph pattern", open_pos)

    def dialect_term(self, tok: Token, position: str) -> PatternTerm:
        self.check_unsupported(tok)
        if tok[0] == "var":
            return Var(tok[1])
        return super().dialect_term(tok, position)


def parse_query(text: str) -> Query:
    """Parse a query text into a :class:`Query`."""
    return _QueryParser(text).parse()


def _order_patterns(patterns: list[TriplePattern]) -> list[TriplePattern]:
    """Greedy join order: next comes the pattern ranking highest by
    ``(connected, bound_count, -index)``, where ``bound_count`` counts constants
    and bound variables and ``connected`` means one of its variables is bound
    (true for every pattern in the first round). Ranks only rise, so binding a
    variable moves just the patterns that use it, between eight bit sets of
    waiting pattern indexes, one per rank; the next pattern is the lowest bit
    of the highest non-empty set.
    """
    n = len(patterns)
    if not n:
        return []
    rank = [3] * n  # the bound positions, and 4 more once connected
    uses: dict[str, list[int]] = {}  # one entry per occurrence
    waiting = [0] * 8
    for index, pat in enumerate(patterns):
        for t in pat:
            if isinstance(t, Var):
                rank[index] -= 1
                uses.setdefault(t.name, []).append(index)
        waiting[rank[index]] |= 1 << index
    index = max(range(n), key=lambda i: (rank[i], -i))
    ordered: list[TriplePattern] = []
    bound: set[str] = set()
    while True:
        waiting[rank[index]] ^= 1 << index
        ordered.append(patterns[index])
        for t in patterns[index]:
            if isinstance(t, Var) and t.name not in bound:
                bound.add(t.name)
                for other in uses[t.name]:
                    bit = 1 << other
                    if waiting[rank[other]] & bit:  # not placed yet
                        waiting[rank[other]] ^= bit
                        rank[other] = 4 + rank[other] % 4 + 1  # connected, one more bound
                        waiting[rank[other]] |= bit
        top = next((members for members in reversed(waiting) if members), 0)
        if not top:
            return ordered
        index = (top & -top).bit_length() - 1


_HIT: tuple[None] = (None,)  # the root step's one candidate, which binds nothing


def evaluate(query: Query, graph: Graph) -> list[Solution]:
    """All solutions of the query over the graph, deterministically ordered.

    Rows are sorted by the projected terms' lexical forms; with DISTINCT
    set, each projected row appears exactly once.
    """
    # Compile: each variable and constant gets a slot of one flat row, and each
    # pattern a step: a probe from the row to its candidate triples, and the
    # (slot, position) pairs it fills. Step 0 is a root with one candidate
    # that binds nothing, so an empty pattern has one solution.
    slots: dict[PatternTerm, int] = {}
    row: list = [None]  # slot 0: the wildcard of every unbound position
    lookup = graph.lookup
    probes: list[Callable[[list], Collection]] = [lambda _: _HIT]
    fills: list[tuple[tuple[int, int], ...]] = [()]
    for pat in _order_patterns(query.pattern):
        at = [0, 0, 0]  # each position's slot, 0 while unbound
        same: list[tuple[int, int]] = []
        first: dict[Var, int] = {}
        for position, term in enumerate(pat):
            if term in first:
                same.append((first[term], position))
            elif isinstance(term, Var) and term not in slots:
                first[term] = position
            else:
                if term not in slots:
                    slots[term] = len(row)
                    row.append(term)
                at[position] = slots[term]
        a, b, c = at
        if b and not isinstance(pat.p, Var) and bool(a) != bool(c):
            # A constant predicate: its group, fetched once, answers each probe in one lookup.
            get, slot = graph.group(row[b], 0 if a else 2).get, a or c
            probe = lambda row, get=get, slot=slot: get(row[slot], ())  # noqa: E731
        else:
            probe = lambda row, a=a, b=b, c=c: lookup(row[a], row[b], row[c])  # noqa: E731
        if same:
            probe = lambda row, unfiltered=probe, same=same: [  # noqa: E731
                t for t in unfiltered(row) if all(t[x] is t[y] for x, y in same)
            ]
        if all(row[slot] is not None for slot in at if slot):  # constants only: find the candidates once
            fixed = probe(row)
            if not fixed:  # no row can match this step
                return []
            probe = lambda _, fixed=fixed: fixed  # noqa: E731
        probes.append(probe)
        for var in first:
            slots[var] = len(row)
            row.append(None)
        fills.append(tuple((slots[var], position) for var, position in first.items()))

    project = [slots[Var(name)] for name in query.projection]
    key = itemgetter(*project) if project else lambda _: ()  # a term, not a 1-tuple, for one variable
    # Rows in first-found order, which the stable sort keeps among equal keys.
    found: dict | list = {} if query.distinct else []
    emit = found.setdefault if query.distinct else found.append

    # Depth first over an explicit stack of candidate iterators, so no
    # recursion limit applies. Above the last level a `break` descends and
    # the `else` backs up; the last level emits each of its candidates.
    last = len(probes) - 1
    stack: list[Iterator] = [iter(probes[0](row))] * len(probes)  # each deeper level is set on descent
    depth = 0
    while depth >= 0:
        step_fills = fills[depth]
        if depth == last:
            for t in stack[depth]:
                for slot, position in step_fills:
                    row[slot] = t[position]
                emit(key(row))
            depth -= 1
            continue
        for t in stack[depth]:
            for slot, position in step_fills:
                row[slot] = t[position]
            depth += 1
            stack[depth] = iter(probes[depth](row))
            break
        else:
            depth -= 1

    rows = [(term,) for term in found] if len(project) == 1 else list(found)
    if len(rows) > 1:  # each distinct term's sort_key() is built once
        keys = {term: term.sort_key() for term in {term for cells in rows for term in cells}}
        rows.sort(key=lambda row: tuple(map(keys.__getitem__, row)))
    return [Solution(zip(query.projection, row)) for row in rows]
