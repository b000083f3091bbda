"""In-memory triple store: terms, triples, and an index-backed graph.

Graphs are append-only while documents load into them and are then frozen,
after which they are immutable and safe for concurrent readers. A load keeps
each triple in two places: the triple set, in insertion order, and the
predicate index. Every other index is built from those on first use and kept
exact by later inserts: the subject and object indexes over all triples, and
the groups, each one predicate's triples keyed by their subject or by their
object. ``Graph.lookup`` is the one place that picks which of these answers
a pattern, from the positions it binds; ``match``, ``subjects``/``objects``
and the compiled query steps all read through it. An index is built in a
local dict and published with one assignment, so a reader of a frozen graph
never sees one half built.

Terms are interned through the ``iri`` / ``blank`` / ``literal`` factories:
building the same term twice, or calling ``Term(...)``, yields the same object,
so equality is always a single pointer comparison and terms work as set and
dict keys.
"""

from __future__ import annotations

from itertools import count
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple, Sequence

IRI = "iri"
BLANK = "blank"
LITERAL = "literal"

_KIND_ORDER = {IRI: 0, BLANK: 1, LITERAL: 2}


class GraphError(ValueError):
    """A structural problem with a term, triple, or graph operation."""


_STRING_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})


def quoted(value: str) -> str:
    """A literal's lexical form as a Turtle string: in double quotes, escaped."""
    return f'"{value.translate(_STRING_ESCAPES)}"'


class Term:
    """An IRI, blank node, or literal; the atomic element of a graph.

    ``value`` holds the full IRI, the blank-node label, or the lexical form
    of a literal. Only literals may carry ``lang`` or ``datatype`` (never
    both). Every construction, ``Term(...)`` included, returns the one
    interned object for its parts, so equality and hashing are identity.
    Instances are immutable by convention; mutating one breaks the intern
    table.
    """

    __slots__ = ("kind", "value", "lang", "datatype")

    def __new__(cls, kind: str, value: str, lang: str | None = None, datatype: str | None = None) -> "Term":
        key = (kind, value, lang, datatype)
        term = _interned.get(key)
        if term is not None:
            return term
        if kind not in _KIND_ORDER:
            raise GraphError(f"unknown term kind: {kind!r}")
        if kind != LITERAL and (lang is not None or datatype is not None):
            raise GraphError("only literals carry a language tag or datatype")
        if lang is not None and datatype is not None:
            raise GraphError("a literal cannot have both a language tag and a datatype")
        term = object.__new__(cls)
        term.kind = kind
        term.value = value
        term.lang = lang
        term.datatype = datatype
        _interned[key] = term
        return term

    def __reduce__(self) -> tuple:
        # copy and pickle rebuild through __new__, so they return the interned term.
        return (Term, (self.kind, self.value, self.lang, self.datatype))

    def __lt__(self, other: "Term") -> bool:
        return self.sort_key() < other.sort_key()

    def sort_key(self) -> tuple:
        return (_KIND_ORDER[self.kind], self.value, self.lang or "", self.datatype or "")

    @property
    def is_iri(self) -> bool:
        return self.kind == IRI

    @property
    def is_blank(self) -> bool:
        return self.kind == BLANK

    @property
    def is_literal(self) -> bool:
        return self.kind == LITERAL

    def n3(self) -> str:
        """Full (unprefixed) Turtle-style text form of the term."""
        if self.kind == IRI:
            return f"<{self.value}>"
        if self.kind == BLANK:
            return f"_:{self.value}"
        if self.lang is not None:
            return f"{quoted(self.value)}@{self.lang}"
        if self.datatype is not None:
            return f"{quoted(self.value)}^^<{self.datatype}>"
        return quoted(self.value)

    def __repr__(self) -> str:
        return f"Term({self.n3()})"


_interned: dict[tuple, Term] = {}


def _intern(kind: str, value: str, lang: str | None, datatype: str | None) -> Term:
    # The table lookup inline, so the common hit skips the call into __new__.
    term = _interned.get((kind, value, lang, datatype))
    return term if term is not None else Term(kind, value, lang, datatype)


def iri(value: str) -> Term:
    return _intern(IRI, value, None, None)


def blank(label: str) -> Term:
    return _intern(BLANK, label, None, None)


def literal(value: str, lang: str | None = None, datatype: str | None = None) -> Term:
    return _intern(LITERAL, value, lang, datatype)


def blank_minter(prefix: str) -> Callable[[], Term]:
    """A source of fresh blank nodes ``<prefix>0``, ``<prefix>1``, ..., one per call."""
    numbers = count()
    return lambda: blank(f"{prefix}{next(numbers)}")


class Triple(NamedTuple):
    """A subject-predicate-object statement."""

    s: Term
    p: Term
    o: Term

    def n3(self) -> str:
        return f"{self.s.n3()} {self.p.n3()} {self.o.n3()} ."


def _check_triple(t: Triple) -> None:
    if t.s.kind == LITERAL:
        raise GraphError("literal not allowed in subject position")
    if t.p.kind != IRI:
        raise GraphError(f"{t.p.kind} not allowed in predicate position")


_NO_GROUP: Mapping = MappingProxyType({})


class Graph:
    """A set of triples with a prefix table, positional indexes and groups.

    Insertion order is preserved, so iteration and ``match`` results are
    deterministic for a given build sequence. After :meth:`freeze` the graph
    rejects further inserts.
    """

    __slots__ = ("_triples", "_by_p", "_built", "prefixes", "_frozen")

    def __init__(self, prefixes: Mapping[str, str] | None = None):
        self._triples: dict[Triple, None] = {}
        self._by_p: dict[Term, list[Triple]] = {}
        # (predicate, or None for all triples; position 0 or 2) -> {term at that position: triples}
        self._built: dict[tuple[Term | None, int], dict[Term, list[Triple]]] = {}
        self.prefixes: dict[str, str] = dict(prefixes or {})
        self._frozen = False

    @property
    def frozen(self) -> bool:
        return self._frozen

    def freeze(self) -> "Graph":
        self._frozen = True
        return self

    def insert(self, t: Triple) -> None:
        """Add one triple. Re-inserting an existing triple is a no-op."""
        if self._frozen:
            raise GraphError("graph is frozen; no further inserts allowed")
        _check_triple(t)
        if t in self._triples:
            return
        self._triples[t] = None
        self._by_p.setdefault(t.p, []).append(t)
        if self._built:  # none is built while a document loads
            for key in ((None, 0), (None, 2), (t.p, 0), (t.p, 2)):
                index = self._built.get(key)
                if index is not None:
                    index.setdefault(t[key[1]], []).append(t)

    def lookup(self, s: Term | None, p: Term | None, o: Term | None) -> Collection[Triple]:
        """The triples matching the bound positions, in insertion order; ``None`` is a wildcard.

        All three bound: a membership test. The predicate and one of
        subject/object: that predicate's group. Subject and object: the
        smaller of their buckets, the other position checked by identity. One
        position: its bucket. None: all triples. The result may be an index's
        own storage: never change it, and copy it before inserting (``match``).
        """
        if p is None:
            if s is None:
                return self._triples.keys() if o is None else self._grouped(None, 2).get(o, ())
            if o is None:
                return self._grouped(None, 0).get(s, ())
            by_s, by_o = self._grouped(None, 0).get(s), self._grouped(None, 2).get(o)
            if by_s is None or by_o is None:
                return ()
            if len(by_s) <= len(by_o):
                return [t for t in by_s if t[2] is o]
            return [t for t in by_o if t[0] is s]
        if s is None:
            return self._by_p.get(p, ()) if o is None else self._grouped(p, 2).get(o, ())
        if o is None:
            return self._grouped(p, 0).get(s, ())
        return (Triple(s, p, o),) if (s, p, o) in self._triples else ()

    def match(self, s: Term | None = None, p: Term | None = None, o: Term | None = None) -> list[Triple]:
        """All triples matching the bound positions, as a fresh list; ``None`` is a wildcard."""
        return list(self.lookup(s, p, o))

    def _grouped(self, p: Term | None, position: int) -> Mapping[Term, list[Triple]]:
        # p's triples, or all triples when p is None, keyed by their term at position; built on first use.
        index = self._built.get((p, position))
        if index is None:
            source = self._triples if p is None else self._by_p.get(p)
            if source is None:  # an unknown predicate keeps nothing
                return _NO_GROUP
            index = {}
            for t in source:
                index.setdefault(t[position], []).append(t)
            self._built[(p, position)] = index
        return index

    def group(self, p: Term | None, position: int) -> Mapping[Term, Sequence[Triple]]:
        """Read-only view of ``p``'s triples keyed by their term at ``position`` (0 subject, 2 object).

        With ``p`` None, all triples. Each term maps to its triples in
        insertion order. The view is built on first request and kept exact by
        later inserts.
        """
        if position not in (0, 2):
            raise GraphError(f"triples are grouped by subject (0) or object (2), not by position {position!r}")
        return MappingProxyType(self._grouped(p, position))

    def subjects(self, p: Term | None = None, o: Term | None = None) -> list[Term]:
        seen: dict[Term, None] = {}
        for t in self.lookup(None, p, o):
            seen.setdefault(t.s)
        return list(seen)

    def objects(self, s: Term | None = None, p: Term | None = None) -> list[Term]:
        seen: dict[Term, None] = {}
        for t in self.lookup(s, p, None):
            seen.setdefault(t.o)
        return list(seen)

    def fold_prefixes(self, prefixes: Mapping[str, str]) -> None:
        """Bind each name of ``prefixes`` that this graph does not bind yet."""
        for name, namespace in prefixes.items():
            self.prefixes.setdefault(name, namespace)

    def add_graph(self, g: "Graph", new_blank: Callable[[], Term]) -> None:
        """Insert ``g``'s triples, its blank nodes renamed by ``new_blank``, and fold in its prefixes."""
        self.fold_prefixes(g.prefixes)
        relabel: dict[Term, Term] = {}

        def fresh(term: Term) -> Term:
            if term.kind != BLANK:
                return term
            return relabel.get(term) or relabel.setdefault(term, new_blank())

        for t in g:
            self.insert(Triple(fresh(t.s), t.p, fresh(t.o)))

    def copy(self) -> "Graph":
        """An unfrozen copy with the same triples and prefixes."""
        out = Graph(self.prefixes)
        for t in self._triples:
            out.insert(t)
        return out

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, t: object) -> bool:
        return t in self._triples

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "loading"
        return f"<Graph {len(self._triples)} triples, {len(self.prefixes)} prefixes, {state}>"


def merge_graphs(graphs: Iterable[Graph]) -> Graph:
    """Union several graphs into a fresh unfrozen graph.

    Blank nodes are relabelled ``m0``, ``m1``, ... in first-seen order, so labels
    from different documents never collide. Prefix collisions keep the first binding.
    """
    out = Graph()
    new_blank = blank_minter("m")
    for g in graphs:
        out.add_graph(g, new_blank)
    return out
