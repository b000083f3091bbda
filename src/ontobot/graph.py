"""In-memory triple store: terms, triples, and an index-backed graph.

Graphs are append-only while documents load into them and are then frozen,
after which they are immutable and safe for concurrent readers; a frozen graph
refuses inserts and prefix folding. A load keeps each triple in one place: the
triple set, in insertion order. Every index is built from it on first request
and kept exact from then on by later inserts: the predicate index, the subject
and object indexes over all triples, and the groups, each one predicate's
triples keyed by their subject or by their object, even before that predicate's
first triple. A graph is read through ``Graph.lookup`` and ``Graph.group``
alone. ``lookup`` is the one place that picks which index answers a pattern,
from the positions it binds, and most compiled query steps read through it; a
walk along a constant predicate from a bound end reads that predicate's
``group`` view, as ``KnowledgeBase._walk``, ``_profile`` and ``task_plan`` do.
An index is built in a local dict and published with one assignment, so a
reader of a frozen graph never sees one half built. ``Graph.add_graph`` reuses
each source triple with no blank end and rebuilds the rest.

Terms are interned: building a term twice, through ``Term(...)`` or the
``iri`` / ``blank`` / ``literal`` factories, yields the same object, so
equality is one pointer comparison and terms work as set and dict keys.
``Term.__new__`` is the one reader and writer of the intern table; a new term
enters it in one ``setdefault``, so threads that build it at once get one object.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import count
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

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
        return _interned.setdefault(key, term)

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


def iri(value: str) -> Term:
    return Term(IRI, value)


def blank(label: str) -> Term:
    return Term(BLANK, label)


def literal(value: str, lang: str | None = None, datatype: str | None = None) -> Term:
    return Term(LITERAL, value, lang, datatype)


def blank_minter(prefix: str) -> Callable[[], Term]:
    """A source of fresh blank nodes ``<prefix>0``, ``<prefix>1``, ..., one per call."""
    numbers = count()
    return lambda: blank(f"{prefix}{next(numbers)}")


class Triple(namedtuple("Triple", "s p o")):
    """A subject-predicate-object statement: three ``Term``s."""

    __slots__ = ()

    def n3(self) -> str:
        return f"{self.s.n3()} {self.p.n3()} {self.o.n3()} ."


class Graph:
    """A set of triples with a prefix table, positional indexes and groups.

    Insertion order is preserved, so iteration and ``lookup`` results are
    deterministic for a given build sequence. After :meth:`freeze` the graph
    rejects further inserts.
    """

    __slots__ = ("_triples", "_built", "prefixes", "_frozen")

    def __init__(self, prefixes: Mapping[str, str] | None = None):
        self._triples: dict[Triple, None] = {}
        # (predicate, or None for all triples; position) -> {term at that position: triples}.
        # (None, 1) is the predicate index; a predicate's groups are keyed by position 0 or 2.
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
        if t.s.kind == LITERAL:
            raise GraphError("literal not allowed in subject position")
        if t.p.kind != IRI:
            raise GraphError(f"{t.p.kind} not allowed in predicate position")
        if t in self._triples:
            return
        self._triples[t] = None
        if self._built:  # none is built while a document loads
            for key in ((None, 0), (None, 1), (None, 2), (t.p, 0), (t.p, 2)):
                index = self._built.get(key)
                if index is not None:
                    index.setdefault(t[key[1]], []).append(t)

    def loader(self) -> Callable[[Triple], object]:
        """A callable that adds one triple as ``insert`` does, for a batch that reads nothing back.

        While the graph is unfrozen and holds no index, it is the triple set's
        own ``setdefault``: one write per triple, and no check that the subject
        is no literal and the predicate an IRI, so the caller guarantees both
        (the Turtle grammar and a graph's own triples do). Otherwise it is
        ``insert``, which refuses a frozen graph and keeps each index exact.
        """
        return self.insert if self._frozen or self._built else self._triples.setdefault

    def lookup(self, s: Term | None, p: Term | None, o: Term | None) -> Collection[Triple]:
        """The triples matching the bound positions, in insertion order; ``None`` is a wildcard.

        All three bound: a membership test. The predicate and one of
        subject/object: that predicate's group. Subject and object: the
        subject's bucket, filtered by the object. One position: its bucket.
        None: all triples. The result may be an index's own storage: never
        change it, and copy it (``list(...)``) before inserting while reading it.
        """
        if p is None:
            if s is None:
                return self._triples.keys() if o is None else self._grouped(None, 2).get(o, ())
            by_s = self._grouped(None, 0).get(s, ())
            return by_s if o is None else [t for t in by_s if t[2] is o]
        if s is None:
            return self._grouped(None, 1).get(p, ()) if o is None else self._grouped(p, 2).get(o, ())
        if o is None:
            return self._grouped(p, 0).get(s, ())
        return (Triple(s, p, o),) if (s, p, o) in self._triples else ()

    def _grouped(self, p: Term | None, position: int) -> Mapping[Term, list[Triple]]:
        # p's triples (all when p is None) by their term at position; built and kept on first use, even with none yet.
        index = self._built.get((p, position))
        if index is None:
            index = {}
            for t in self._triples if p is None else self._grouped(None, 1).get(p, ()):
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

    def fold_prefixes(self, prefixes: Mapping[str, str]) -> None:
        """Bind each name of ``prefixes`` that this graph does not bind yet; a frozen graph refuses."""
        if self._frozen:
            raise GraphError("graph is frozen; no further inserts allowed")
        for name, namespace in prefixes.items():
            self.prefixes.setdefault(name, namespace)

    def add_graph(self, g: "Graph", new_blank: Callable[[], Term]) -> None:
        """Insert ``g``'s triples, its blank nodes renamed by ``new_blank``, and fold in its prefixes.

        A triple with no blank end goes in as ``g``'s own object; only a blank-ended one is rebuilt.
        """
        self.fold_prefixes(g.prefixes)
        relabel: dict[Term, Term] = {}
        add = self.loader()  # g holds only well-formed triples

        def fresh(term: Term) -> Term:
            if term.kind != BLANK:
                return term
            return relabel.get(term) or relabel.setdefault(term, new_blank())

        for t in g:
            add(Triple(fresh(t.s), t.p, fresh(t.o)) if t.s.kind == BLANK or t.o.kind == BLANK else t)

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
