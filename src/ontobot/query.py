"""SELECT-DISTINCT queries over basic graph patterns.

The grammar covers exactly what the competency-question queries need:
``PREFIX``/``@prefix`` declarations, ``SELECT [DISTINCT] ?var ...``,
and a ``WHERE { ... }`` block of triple patterns with ``;`` and ``,``
lists, the ``a`` keyword, and string literals.

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

Evaluation is a left-deep nested index join: patterns are greedily
reordered by bound-term count (preferring patterns connected to already
bound variables), each level probing the graph's positional indexes.
Results are deduplicated on the projected bindings when DISTINCT is set
and returned sorted by the projected terms' lexical forms, so evaluation
is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

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


@dataclass
class Query:
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

    def __init__(self, text: str):
        super().__init__(text)
        self.pattern: list[TriplePattern] = []

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
            if self.peek()[0] == "dot":
                self.next()
        if not self.pattern:
            self.fail("empty graph pattern", open_pos)

    def dialect_term(self, tok: Token, position: str) -> PatternTerm:
        self.check_unsupported(tok)
        if tok[0] == "var":
            return Var(tok[1])
        return super().dialect_term(tok, position)

    def emit(self, s: PatternTerm, p: PatternTerm, o: PatternTerm) -> None:
        self.pattern.append(TriplePattern(s, p, o))

    def at_list_end(self) -> bool:
        tok = self.peek()
        return tok[0] == "dot" or tok[:2] == ("punct", "}")


def parse_query(text: str) -> Query:
    """Parse a query text into a :class:`Query`."""
    return _QueryParser(text).parse()


def parse_query_file(path) -> Query:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_query(handle.read())


def _order_patterns(patterns: list[TriplePattern]) -> list[TriplePattern]:
    remaining = list(enumerate(patterns))
    ordered: list[TriplePattern] = []
    bound: set[str] = set()
    while remaining:
        def score(item: tuple[int, TriplePattern]) -> tuple:
            index, pat = item
            terms = (pat.s, pat.p, pat.o)
            bound_count = sum(
                1 for t in terms if not isinstance(t, Var) or t.name in bound
            )
            connected = not ordered or any(
                isinstance(t, Var) and t.name in bound for t in terms
            )
            return (connected, bound_count, -index)

        best = max(remaining, key=score)
        remaining.remove(best)
        ordered.append(best[1])
        bound.update(t.name for t in best[1] if isinstance(t, Var))
    return ordered


def _match_pattern(graph: Graph, pat: TriplePattern, binding: dict[str, Term]) -> Iterator[dict[str, Term]]:
    def resolved(t: PatternTerm) -> Term | None:
        if isinstance(t, Var):
            return binding.get(t.name)
        return t

    for triple in graph.match(resolved(pat.s), resolved(pat.p), resolved(pat.o)):
        extended = binding
        ok = True
        for slot, value in zip(pat, triple):
            if not isinstance(slot, Var):
                continue
            current = extended.get(slot.name)
            if current is None:
                if extended is binding:
                    extended = dict(binding)
                extended[slot.name] = value
            elif current != value:
                ok = False
                break
        if ok:
            yield extended if extended is not binding else dict(binding)


def _join(graph: Graph, patterns: list[TriplePattern], binding: dict[str, Term]) -> Iterator[dict[str, Term]]:
    # Depth-first over a stack of one iterator per pattern, not recursion, so no recursion limit applies.
    stack: list[Iterator[dict[str, Term]]] = [iter([binding])]
    while stack:
        extended = next(stack[-1], None)
        if extended is None:
            stack.pop()
        elif len(stack) > len(patterns):
            yield extended
        else:
            stack.append(_match_pattern(graph, patterns[len(stack) - 1], extended))


def evaluate(query: Query, graph: Graph) -> list[Solution]:
    """All solutions of the query over the graph, deterministically ordered.

    Rows are sorted by the projected terms' lexical forms; with DISTINCT
    set, each projected row appears exactly once.
    """
    ordered = _order_patterns(query.pattern)
    rows: list[tuple[Term, ...]] = []
    seen: set[tuple[Term, ...]] = set()
    for binding in _join(graph, ordered, {}):
        row = tuple(binding[name] for name in query.projection)
        if query.distinct:
            if row in seen:
                continue
            seen.add(row)
        rows.append(row)
    rows.sort(key=lambda row: tuple(term.sort_key() for term in row))
    return [Solution(zip(query.projection, row)) for row in rows]
