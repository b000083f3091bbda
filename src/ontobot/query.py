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
list of plain token strings first, but a lexical error is raised only when
the parser reaches it, and the parser never reaches tokens past an
unsupported clause, so e.g. ``HAVING (?y > 1)`` reports HAVING rather than a
lexical error on '>'.

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
is set and returned as plain dicts sorted by the projected terms' lexical
forms, so evaluation is fully deterministic.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Callable, Collection, Iterator, NamedTuple, Union

from ontobot.graph import Graph, Term
from ontobot.turtle import ParseDiagnostic, _kind, _StatementParser, _unescape, _value


class QueryParseError(Exception):
    def __init__(self, diagnostic: ParseDiagnostic, source: object = None):
        super().__init__(str(diagnostic) if source is None else f"{source}: {diagnostic}")
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
    list_ends = frozenset({".", "}"})
    triple = TriplePattern

    def __init__(self, text: str):
        super().__init__(text)
        self.pattern: list[TriplePattern] = []
        self.add = self.pattern.append

    def check_unsupported(self, at: int) -> None:
        feature = _keyword(self.tokens[at])
        if feature in _UNSUPPORTED_KEYWORDS:
            if feature in ("GROUP", "ORDER", "NOT"):
                follower = _keyword(self.peek())
                if follower:
                    feature = f"{feature} {follower}"
            raise UnsupportedFeatureError(feature, *self.location(at))

    def parse(self) -> Query:
        self.parse_prologue()
        at, tok = self.at, self.next()
        self.check_unsupported(at)
        if _keyword(tok) != "SELECT":
            self.fail("expected SELECT", at)
        distinct = False
        if _keyword(self.peek()) == "DISTINCT":
            self.next()
            distinct = True
        projection: list[str] = []
        while _kind(self.peek()) == "var":
            at, name = self.at, self.next()[1:]
            if name in projection:
                self.fail(f"duplicate variable in projection: ?{name}", at)
            projection.append(name)
        if not projection:
            at, tok = self.at, self.next()
            if tok == "*":
                self.fail("projection '*' is not supported; list the variables", at)
            self.check_unsupported(at)
            self.fail("expected at least one projected variable", at)
        at, tok = self.at, self.next()
        if _keyword(tok) == "WHERE":
            at, tok = self.at, self.next()
        if tok != "{":
            self.check_unsupported(at)
            self.fail("expected '{' opening the graph pattern", at)
        self.parse_group(at)
        at, tok = self.at, self.next()
        self.check_unsupported(at)
        if tok:
            self.fail(f"unexpected content after '}}': {_value(tok)!r}", at)
        pattern_vars = {
            t.name for pat in self.pattern for t in (pat.s, pat.p, pat.o) if isinstance(t, Var)
        }
        for name in projection:
            if name not in pattern_vars:
                self.fail(f"projected variable ?{name} does not occur in the pattern", at)
        return Query(prefixes=self.prefixes, projection=projection, distinct=distinct, pattern=self.pattern)

    def parse_prologue(self) -> None:
        while True:
            tok = self.peek()
            if _keyword(tok) == "PREFIX" or tok == "@prefix":
                self.next()
                at, name = self.at, self.next()
                prefix, _, local = name.partition(":")
                if _kind(name) != "pname" or local:
                    self.fail("expected a prefix name ending in ':'", at)
                self.bind(prefix, _unescape(self.expect("iriref", "a namespace IRI in angle brackets")))
                if self.peek() == ".":
                    self.next()
            elif tok == "@base":
                self.fail("unsupported construct: @base", self.at)
            else:
                return

    def parse_group(self, open_at: int) -> None:
        while True:
            tok = self.peek()
            if tok == "}":
                self.next()
                break
            if not tok:
                self.fail("unterminated graph pattern (missing '}')", open_at)
            subject = self.parse_term("subject")
            self.parse_predicate_object_list(subject)
            at, tok = self.at, self.peek()
            if tok == ".":
                self.next()
            elif tok != "}" and tok:
                self.next()  # check_unsupported reads the token after it
                self.check_unsupported(at)
                self.fail("expected '.' or '}' after a triple pattern", at)
        if not self.pattern:
            self.fail("empty graph pattern", open_at)

    def dialect_term(self, at: int, position: str) -> PatternTerm:
        self.check_unsupported(at)
        tok = self.tokens[at]
        if _kind(tok) == "var":
            return Var(tok[1:])
        return super().dialect_term(at, position)


def _keyword(tok: str) -> str:
    """A word token in upper case; empty for any other token."""
    return tok.upper() if _kind(tok) == "word" else ""


def parse_query(text: str) -> Query:
    """Parse a query text into a :class:`Query`."""
    return _QueryParser(text).parse()


def _order_patterns(patterns: list[TriplePattern]) -> list[TriplePattern]:
    """Greedy join order: next comes the pattern ranking highest by
    ``(connected, bound_count, -index)``, where ``bound_count`` counts constants
    and bound variables and ``connected`` means one of its variables is bound
    (true for every pattern in the first round). Ranks only rise, so binding a
    variable pushes a fresh ``(-rank, index)`` entry onto one heap for each
    waiting pattern that uses it; a popped entry whose rank no longer matches
    its pattern's is stale, and skipped.
    """
    rank = [3] * len(patterns)  # the bound positions, and 4 more once connected; -1 once placed
    uses: dict[str, list[int]] = {}  # one entry per occurrence
    for index, pat in enumerate(patterns):
        for t in pat:
            if isinstance(t, Var):
                rank[index] -= 1
                uses.setdefault(t.name, []).append(index)
    heap = [(-r, index) for index, r in enumerate(rank)]
    heapify(heap)
    ordered: list[TriplePattern] = []
    bound: set[str] = set()
    while heap:
        negated, index = heappop(heap)
        if -negated != rank[index]:
            continue
        rank[index] = -1
        ordered.append(patterns[index])
        for t in patterns[index]:
            if isinstance(t, Var) and t.name not in bound:
                bound.add(t.name)
                for other in uses[t.name]:
                    if rank[other] >= 0:  # not placed yet
                        rank[other] = 4 + rank[other] % 4 + 1  # connected, one more bound
                        heappush(heap, (-rank[other], other))
    return ordered


_HIT: tuple[None] = (None,)  # the root step's one candidate, which binds nothing


def evaluate(query: Query, graph: Graph) -> list[dict[str, Term]]:
    """All solutions of the query over the graph, each a dict from projected variable name to term.

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
    return [dict(zip(query.projection, row)) for row in rows]
