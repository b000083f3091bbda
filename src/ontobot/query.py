"""SELECT-DISTINCT queries over basic graph patterns.

The grammar covers exactly what the competency-question queries need:
``PREFIX``/``@prefix`` declarations, ``SELECT [DISTINCT] ?var ...``,
and a ``WHERE { ... }`` block of triple patterns with ``;`` and ``,``
lists, the ``a`` keyword, and string literals. Patterns are separated by
``.``, which is optional before the closing ``}``.

Anything beyond that subset (FILTER, OPTIONAL, UNION, GROUP BY, HAVING,
ORDER BY, ...) raises :class:`UnsupportedFeatureError` naming the feature,
distinct from plain syntax errors so callers can report it separately. The
parser's ``fail`` names it: a syntax error at such a keyword, wherever it
stands, becomes the feature. Both query errors are defined in ``turtle``,
beside ``TurtleParseError``, so the CLI catches them without loading this
module; they are importable from here too.

Triple patterns are Turtle statements with variables, so the parser is the
Turtle statement parser (``turtle._StatementParser``) with the lexer's
variables switched on. It adds only variables, the unsupported keywords,
SELECT/WHERE and the ``}``-terminated pattern, in one loop over the token
list with a local index, as Turtle's statement loop is: the prologue,
``SELECT [DISTINCT] ?v ...``, ``WHERE {``, each subject and its ``.``, and
the closing ``}``. Subjects, predicates and objects come from the one term
memo, which also keeps each variable token's ``Var``; on a miss, a variable
or an IRI with no backslash is resolved inline and kept, and any other token
goes to ``parse_term``. The query is lexed into one list of plain token
strings first, but a lexical error is raised only when the grammar rejects
the error token (``fail``), and the parser never reaches tokens past an
unsupported clause, so e.g. ``HAVING (?y > 1)`` reports HAVING rather than a
lexical error on '>'.

Evaluation compiles the query once, then runs it over one flat row.
Patterns are greedily ordered by bound-term count, preferring patterns
connected to already bound variables. Every variable and constant gets a
slot of the row, slot 0 holding ``None`` for unbound positions, and each
pattern becomes one step: a ``Graph.lookup`` of its three slots, which picks
the access path, plus the slots it fills. Compiling reads each term's slot
once: a new variable takes its slot and becomes one of the step's fills
there, a variable repeated within a pattern becomes an identity check, and
a step whose bound positions are all constants finds its candidates once, at
compile time. A step with a constant predicate and one other bound position
fetches that predicate's group once, when the query compiles. The join walks
the steps depth first over an explicit stack of candidate iterators, writing
into the row; the next-to-last level runs the last step in an inner loop,
emitting the projected slots per candidate. Results are deduplicated on the
projected terms when DISTINCT is set and returned as plain dicts sorted by
``Term.sort_key``: kind (IRI, blank node, literal), then lexical form,
language tag and datatype. Each distinct term's key is built once and
ranked; a list of row indexes takes one stable sort per column by its ranks,
last column first, so rows with equal keys keep the order they were found in.
"""

from __future__ import annotations

from collections import namedtuple
from functools import partial
from heapq import heapify, heappop, heappush
from itertools import count
from operator import itemgetter
from typing import Callable, Collection, Iterator, NoReturn, Union

from ontobot.graph import Graph, Term, iri
from ontobot.turtle import (_ERROR, _INLINE_SIGILS, QueryParseError, UnsupportedFeatureError, _kind, _StatementParser,
                            _unescape, _value)


class Var(namedtuple("Var", "name")):
    """A query variable, by its ``name`` without the ``?``."""

    __slots__ = ()


PatternTerm = Union[Term, Var]


class TriplePattern(namedtuple("TriplePattern", "s p o")):
    """A triple pattern: each position a ``Term`` or a ``Var``."""

    __slots__ = ()


class Query(namedtuple("Query", "prefixes projection distinct pattern")):
    """A parsed query: ``prefixes`` (name to namespace), the ``projection``'s variable names, the
    ``distinct`` flag, and the ``pattern``, a list of :class:`TriplePattern`."""

    __slots__ = ()


_VARIABLE_SIGILS = frozenset("?$")
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
    triple = staticmethod(partial(tuple.__new__, TriplePattern))
    var = Var

    def __init__(self, text: str):
        super().__init__(text)
        self.pattern: list[TriplePattern] = []
        self.add = self.pattern.append

    def fail(self, message: str, at: int) -> NoReturn:
        """Raise the lexical error or name the unsupported feature whose token stands at ``at``, else the syntax error."""
        if self.tokens[at] == _ERROR:  # no rule accepts the error token, so the parser stops where it reaches it
            raise self.lex_exc
        feature = _keyword(self.tokens[at])
        if feature in _UNSUPPORTED_KEYWORDS:
            if feature in ("GROUP", "ORDER", "NOT"):
                self.at = at + 1
                follower = _keyword(self.peek())  # a lexical error there is raised
                if follower:
                    feature = f"{feature} {follower}"
            raise UnsupportedFeatureError(feature, *self.location(at))
        super().fail(message, at)

    def parse(self) -> Query:
        tokens, terms = self.tokens, self.terms
        i = 0
        # Only a word token upper-cases to a keyword: every other token starts with a sigil or holds ':'.
        while tokens[i].upper() == "PREFIX" or tokens[i] in ("@prefix", "@base"):
            if tokens[i] == "@base":
                self.fail("unsupported construct: @base", i)
            prefix, _, local = tokens[i + 1].partition(":")
            if _kind(tokens[i + 1]) != "pname" or local:
                self.fail("expected a prefix name ending in ':'", i + 1)
            if tokens[i + 2][:1] != "<":
                self.fail("expected a namespace IRI in angle brackets", i + 2)
            self.bind(prefix, _unescape(tokens[i + 2]))
            i += 4 if tokens[i + 3] == "." else 3
        if tokens[i].upper() != "SELECT":
            self.fail("expected SELECT", i)
        distinct = tokens[i + 1].upper() == "DISTINCT"
        i += 2 if distinct else 1
        projection: list[str] = []
        while tokens[i][:1] in _VARIABLE_SIGILS:
            name = tokens[i][1:]
            if name in projection:
                self.fail(f"duplicate variable in projection: ?{name}", i)
            projection.append(name)
            i += 1
        if not projection:
            self.fail("projection '*' is not supported; list the variables" if tokens[i] == "*"
                      else "expected at least one projected variable", i)
        if tokens[i].upper() == "WHERE":
            i += 1
        if tokens[i] != "{":
            self.fail("expected '{' opening the graph pattern", i)
        open_at = i
        i += 1
        while tokens[i] != "}":
            tok = tokens[i]
            subject = terms.get(tok)
            if subject is None and tok[:1] in _INLINE_SIGILS and "\\" not in tok:
                subject = terms[tok] = iri(tok[1:-1]) if tok[0] == "<" else Var(tok[1:])
            if subject is None:
                if not tok:
                    self.fail("unterminated graph pattern (missing '}')", open_at)
                self.at = i
                subject = self.parse_term("subject")
            else:
                self.at = i + 1
            self.parse_predicate_object_list(subject)
            i = self.at
            if tokens[i] == ".":
                i += 1
            elif tokens[i] != "}" and tokens[i]:
                self.fail("expected '.' or '}' after a triple pattern", i)
        if not self.pattern:
            self.fail("empty graph pattern", open_at)
        i += 1
        if tokens[i]:
            self.fail(f"unexpected content after '}}': {_value(tokens[i])!r}", i)
        pattern_vars = {t.name for t in terms.values() if type(t) is Var}  # only pattern terms enter the memo
        for name in projection:
            if name not in pattern_vars:
                self.fail(f"projected variable ?{name} does not occur in the pattern", i)
        return Query(prefixes=self.prefixes, projection=projection, distinct=distinct, pattern=self.pattern)


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
    uses: dict[Var, list[int]] = {}  # one entry per occurrence, popped when the variable is first bound
    for index, pat in enumerate(patterns):
        for t in pat:
            if type(t) is Var:
                rank[index] -= 1
                uses.setdefault(t, []).append(index)
    heap = [(-r, index) for index, r in enumerate(rank)]
    heapify(heap)
    ordered: list[TriplePattern] = []
    while heap:
        negated, index = heappop(heap)
        if -negated != rank[index]:
            continue
        rank[index] = -1
        ordered.append(patterns[index])
        for t in patterns[index]:
            for other in uses.pop(t, ()):  # a constant, or a variable bound already, releases nothing
                if rank[other] >= 0:  # not placed yet
                    rank[other] = 4 + rank[other] % 4 + 1  # connected, one more bound
                    heappush(heap, (-rank[other], other))
    return ordered


def evaluate(query: Query, graph: Graph) -> list[dict[str, Term]]:
    """All solutions of the query over the graph, each a dict from projected variable name to term.

    Rows are sorted by the projected terms' ``sort_key()``, ties as found;
    with DISTINCT set, each projected row appears exactly once.
    """
    # Compile: each variable and constant gets a slot of one flat row, and each
    # pattern a step: a probe from the row to its candidate triples, and the
    # (slot, position) pairs it fills. Step 0 is a root with one candidate
    # that binds nothing, so an empty pattern has one solution. Each term's
    # slot is read once: a constant's slot holds the constant, a variable's
    # holds None until the join writes it, so slots at or past `first` that
    # hold None are the variables this step fills.
    slots: dict[PatternTerm, int] = {}
    row: list = [None]  # slot 0: the wildcard of every unbound position
    lookup = graph.lookup
    probes: list[Callable[[list], Collection]] = [lambda _: (None,)]
    fills: list[list[tuple[int, int]]] = [[]]
    for pat in _order_patterns(query.pattern):
        at = [0, 0, 0]  # each bound position's slot, 0 where this step fills it
        fill: list[tuple[int, int]] = []
        same: list[tuple[int, int]] = []
        first = len(row)
        constants = True  # no bound position holds a variable, so the candidates do not depend on the row
        for position, term in enumerate(pat):
            slot = slots.get(term)
            if slot is None:
                slot = slots[term] = len(row)
                if type(term) is Var:
                    row.append(None)
                    fill.append((slot, position))
                    continue
                row.append(term)
            elif row[slot] is None:
                if slot >= first:  # repeated within this pattern: an identity check on its first position
                    same.append((dict(fill)[slot], position))
                    continue
                constants = False
            at[position] = slot
        a, b, c = at
        if b and row[b] is not None and bool(a) != bool(c):
            # A constant predicate: its group, fetched once, answers each probe in one lookup.
            get, slot = graph.group(row[b], 0 if a else 2).get, a or c
            probe = lambda row, get=get, slot=slot: get(row[slot], ())  # noqa: E731
        else:
            probe = lambda row, a=a, b=b, c=c: lookup(row[a], row[b], row[c])  # noqa: E731
        if same:
            probe = lambda row, unfiltered=probe, same=same: [  # noqa: E731
                t for t in unfiltered(row) if all(t[x] is t[y] for x, y in same)
            ]
        if constants:  # find the candidates once
            fixed = probe(row)
            if not fixed:  # no row can match this step
                return []
            probe = lambda _, fixed=fixed: fixed  # noqa: E731
        probes.append(probe)
        fills.append(fill)

    project = [slots[Var(name)] for name in query.projection]
    key = itemgetter(*project) if project else lambda _: ()  # a term, not a 1-tuple, for one variable
    # Rows in first-found order, which the stable sort keeps among equal keys.
    found: dict | list = {} if query.distinct else []
    emit = found.setdefault if query.distinct else found.append

    # Depth first over an explicit stack of candidate iterators, so no
    # recursion limit applies. Above the next-to-last level a `break` descends
    # and the `else` backs up; that level runs the last step itself, inline.
    last_probe, last_fills = probes.pop(), fills.pop()
    if not probes:  # the empty pattern: the root was the last step, and its one row binds nothing
        return [{}]
    stack: list[Iterator] = [iter(probes[0](row))] * len(probes)  # each deeper level is set on descent
    depth, inline = 0, len(probes) - 1
    while depth >= 0:
        step_fills = fills[depth]
        if depth == inline:
            for t in stack[depth]:
                for slot, position in step_fills:
                    row[slot] = t[position]
                for u in last_probe(row):
                    for slot, position in last_fills:
                        row[slot] = u[position]
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

    rows = list(found)  # a term per row for one projected variable, else a tuple of terms
    if len(rows) > 1 and project:  # by integer ranks; terms with equal sort keys share one, so stay first-found
        columns = [rows] if len(project) == 1 else list(zip(*rows))
        terms = set().union(*columns)
        keys = list(map(Term.sort_key, terms))  # built once per distinct term
        rank = dict(zip(terms, map(dict(zip(sorted(keys), count())).__getitem__, keys)))
        if len(columns) == 1:
            rows.sort(key=rank.__getitem__)
        else:  # row indexes, in one stable sort per column by its ranks, last column first
            order = list(range(len(rows)))
            for column in reversed(columns):
                order.sort(key=list(map(rank.__getitem__, column)).__getitem__)
            rows = [rows[i] for i in order]
    if len(project) == 1:
        return [{query.projection[0]: term} for term in rows]
    return [dict(zip(query.projection, row)) for row in rows]
