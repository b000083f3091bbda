"""Spans and counters around the program's public functions, for the traced run.

:class:`Tracer` replaces each named function, while it is installed, with
a wrapper that records a span (name, start, end, parent span, op id, and
the ``Graph.match`` and ``label_of`` calls made inside it) or, for the two
hot lookups, only counts calls. Spans stay in memory until ``dump``. A
name the program no longer has is listed in ``absent`` and skipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

# (module, attribute path, span name, size of the result recorded on the span)
SPANS = (
    ("ontobot.turtle", "parse_turtle", "turtle.parse", "len"),
    ("ontobot.graph", "merge_graphs", "graph.merge", None),
    ("ontobot.schema", "infer_types", "schema.infer", "inferred"),
    ("ontobot.schema", "validate", "schema.validate", None),
    ("ontobot.reasoner", "KnowledgeBase.load", "reasoner.load", None),
    ("ontobot.reasoner", "KnowledgeBase.objects_and_affordances", "reasoner.cq1", None),
    ("ontobot.reasoner", "KnowledgeBase.task_plan", "reasoner.cq2", None),
    ("ontobot.reasoner", "KnowledgeBase.required_affordances", "reasoner.cq3", None),
    ("ontobot.reasoner", "KnowledgeBase.capable_robots", "reasoner.cq4", None),
    ("ontobot.reasoner", "KnowledgeBase.can_execute_all", "reasoner.cq5", None),
    ("ontobot.reasoner", "KnowledgeBase.gap_report", "reasoner.cq6", None),
    ("ontobot.reasoner", "KnowledgeBase.feasibility_matrix", "reasoner.matrix", None),
    ("ontobot.query", "parse_query", "query.parse", None),
    ("ontobot.query", "evaluate", "query.evaluate", "len"),
    ("ontobot.cli", "main", "cli.main", None),
)
COUNTERS = (
    ("ontobot.graph", "Graph.match", "graph.match"),
    ("ontobot.reasoner", "KnowledgeBase.label_of", "reasoner.label_of"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top of an op
    op: int  # op id; -1 for set-up calls
    matches: int  # Graph.match calls inside the span
    labels: int  # label_of calls inside the span
    size: int  # triples parsed, triples inferred or rows returned; else -1

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.stack: list[int] = []
        self.counts = {name: 0 for _, _, name in COUNTERS}
        self.op = -1  # id of the op in progress; -1 during set-up
        self.next_op = 0
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _span(self, name: str, fn, size: str | None):
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            matches, labels = counts["graph.match"], counts["reasoner.label_of"]
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            n = -1
            if size == "len":
                n = len(result)
            elif size == "inferred":
                n = len(result) - len(args[0])
            spans[index] = Span(name, start, end, parent, self.op, counts["graph.match"] - matches,
                                counts["reasoner.label_of"] - labels, n)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- install / remove ----------------------------------------------------

    def _patch(self, module_name: str, path: str, make) -> None:
        try:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            raw = owner.__dict__[attr] if owner_name else getattr(owner, attr)
        except (ImportError, AttributeError, KeyError):
            self.absent.append(f"{module_name}.{path}")
            return
        if owner_name:
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, new)
            return
        wrapper = make(raw)
        # Rebind every module-level alias, e.g. ``from ontobot.turtle import parse_turtle``.
        for name, mod in list(sys.modules.items()):
            if not (name == "ontobot" or name.startswith("ontobot.")) or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is raw:
                    self._undo.append((mod, key, raw))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        for module_name, path, name, size in SPANS:
            self._patch(module_name, path, lambda fn, n=name, s=size: self._span(n, fn, s))
        for module_name, path, name in COUNTERS:
            self._patch(module_name, path, lambda fn, n=name: self._counter(n, fn))

    def remove(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    # -- analysis ------------------------------------------------------------

    def finished(self) -> list[Span]:
        return [s for s in self.spans if s is not None]

    def self_ms(self) -> dict[int, float]:
        """Span index -> its duration minus the time its child spans cover."""
        out = {i: s.ms for i, s in enumerate(self.spans) if s is not None}
        for s in self.spans:
            if s is not None and s.parent >= 0:
                out[s.parent] -= s.ms
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.finished():
                handle.write(json.dumps(s._asdict()) + "\n")
