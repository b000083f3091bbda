"""Turtle reader and writer, and the grammar core the query parser shares.

Supported grammar: ``@prefix`` directives, IRIs in angle brackets, prefixed
names (including the empty prefix ``:name``), the ``a`` keyword, predicate
lists with ``;``, object lists with ``,``, string literals with optional
``@lang`` or ``^^datatype``, labelled blank nodes ``_:x``, comments, and the
statement-terminating ``.``.

Deliberately out of scope (each rejected with a diagnostic naming the
construct): collections ``( )``, anonymous blank nodes ``[ ]``, numeric and
boolean literal shorthand, ``@base``, and triple-quoted strings. The
knowledge-graph files need none of them.

Query patterns are Turtle triples with variables added, so one lexer and one
statement parser serve both languages. :meth:`_StatementParser.tokens` yields
``Token(kind, value, pos)``; a parser class that sets ``variables`` also gets
``?x``/``$x`` variables and ``*``, and a ``.`` before a digit then stays a
statement dot. :class:`_StatementParser` holds the shared grammar: token
lookahead, IRIs, prefixed names, ``a``, string literals and their suffixes,
and the ``;``/``,`` predicate-object list. :class:`_TurtleParser` adds blank
nodes and ``@prefix … .``; ``ontobot.query`` adds variables and SELECT/WHERE.

Errors carry a :class:`ParseDiagnostic` with a 1-based line and column into
the source text, worked out from the token's offset when the error is raised.
A Turtle document is lexed whole before it is parsed, so a lexical error
anywhere is reported ahead of a syntax error.

:func:`parse_turtle_into` parses into a caller's graph, so documents load
into one union. A document's blank labels map to fresh nodes from the caller
(``b0``, ``b1``, ... in ``parse_turtle``), and its prefix table is folded into
the graph's when it ends. A failed ``parse_turtle`` returns no partial graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, NamedTuple, NoReturn

from ontobot.graph import (
    IRI,
    LITERAL,
    Graph,
    Term,
    Triple,
    blank_minter,
    iri,
    literal,
)
from ontobot.namespaces import RDF


@dataclass(frozen=True)
class ParseDiagnostic:
    """Location and description of a problem in a source text."""

    line: int
    column: int
    message: str

    def __str__(self) -> str:
        return f"line {self.line}, column {self.column}: {self.message}"


class TurtleParseError(Exception):
    def __init__(self, diagnostic: ParseDiagnostic, source: object = None):
        super().__init__(str(diagnostic) if source is None else f"{source}: {diagnostic}")
        self.diagnostic = diagnostic


class Token(NamedTuple):
    kind: str
    value: object
    pos: int  # offset of the token's first character in the source text


_ESCAPES = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}

_TRIVIA_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*")
_IRI_BODY_RE = re.compile(r'[^> "<{}|^`\n]*')
# A backslash escapes any one character here; _unescape judges the escape.
_STRING_BODY_RE = re.compile(r'(?:[^"\\\n]+|\\[\s\S])*')
_PNAME_RE = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_\-]*)?:(?:[A-Za-z0-9_][A-Za-z0-9_\-.]*)?")
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*")
_BLANK_RE = re.compile(r"_:([A-Za-z0-9_][A-Za-z0-9_\-]*)")
_LANGTAG_RE = re.compile(r"@([A-Za-z]+(?:-[A-Za-z0-9]+)*)")
_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_VAR_NAME_RE = re.compile(r"\w*")  # \w: the characters str.isalnum() accepts, and '_'

_DIRECTIVES = {"prefix": "prefix_directive", "base": "base_directive"}
_SEPARATORS = {".": "dot", ";": "semi", ",": "comma"}
_UNSUPPORTED_PUNCT = {
    "(": "collection",
    ")": "collection",
    "[": "anonymous blank node",
    "]": "anonymous blank node",
}


class _StatementParser:
    """The lexer and the statement grammar that Turtle and queries share.

    A subclass sets ``error`` (the exception a diagnostic raises),
    ``variables`` (the query dialect's tokens) and ``rejected`` (messages for
    term tokens its dialect refuses), and supplies ``emit`` for each parsed
    triple and ``at_list_end`` for what may close a ``;`` list.
    """

    error: type[Exception] = TurtleParseError
    variables = False
    rejected: Mapping[str, str] = {}

    def __init__(self, text: str):
        if text.startswith("\ufeff"):
            text = text[1:]
        self.text = text
        self.prefixes: dict[str, str] = {}
        self._tokens = self.tokens()
        self._lookahead: Token | None = None

    def location(self, pos: int) -> tuple[int, int]:
        """The 1-based line and column of an offset into the source text."""
        return self.text.count("\n", 0, pos) + 1, pos - self.text.rfind("\n", 0, pos)

    def fail(self, message: str, pos: int) -> NoReturn:
        raise self.error(ParseDiagnostic(*self.location(pos), message))

    # -- lexer ---------------------------------------------------------------

    def tokens(self) -> Iterator[Token]:
        """Tokens of the source text, ending in one ``eof``; lexed on demand."""
        text = self.text
        pos = 0
        while True:
            pos = _TRIVIA_RE.match(text, pos).end()
            if pos == len(text):
                yield Token("eof", None, pos)
                return
            c = text[pos]
            nxt = text[pos + 1 : pos + 2]
            number = None
            # '.5' is a number in Turtle; in a query the '.' ends a pattern.
            if c.isdigit() or (nxt.isdigit() and (c in "+-" or (c == "." and not self.variables))):
                # isdigit() also holds for characters such as '²' that the
                # pattern refuses; they fall through to "unexpected character".
                number = _NUMBER_RE.match(text, pos)
            if number is not None:
                kind, value, end = "number", number.group(), number.end()
            elif c in "?$" and self.variables:
                end = _VAR_NAME_RE.match(text, pos + 1).end()
                if end == pos + 1:
                    self.fail("empty variable name", pos)
                kind, value = "var", text[pos + 1 : end]
            elif c == "<":
                kind = "iriref"
                value, end = self.scan_iriref(pos)
            elif c == '"':
                kind = "string"
                value, end = self.scan_string(pos)
            elif c == "@":
                m = _LANGTAG_RE.match(text, pos)
                if m is None:
                    self.fail("malformed '@' directive or language tag", pos)
                value, end = m.group(1), m.end()
                kind = _DIRECTIVES.get(value, "langtag")
            elif c == "^":
                if nxt != "^":
                    self.fail("expected '^^'", pos)
                kind, value, end = "dtype_sep", "^^", pos + 2
            elif c == "_":
                m = _BLANK_RE.match(text, pos)
                if m is None:
                    self.fail("malformed blank node label", pos)
                kind, value, end = "blank", m.group(1), m.end()
            elif c in ".;,":
                kind, value, end = _SEPARATORS[c], c, pos + 1
            elif c in "()[]{}" or (c == "*" and self.variables):
                kind, value, end = "punct", c, pos + 1
            else:
                kind, value, end = self.scan_pname_or_word(pos)
            yield Token(kind, value, pos)
            pos = end

    def scan_iriref(self, pos: int) -> tuple[str, int]:
        end = _IRI_BODY_RE.match(self.text, pos + 1).end()
        if end == len(self.text):
            self.fail("unterminated IRI", pos)
        if self.text[end] != ">":
            self.fail(f"invalid character in IRI: {self.text[end]!r}", pos)
        return self._unescape(self.text[pos + 1 : end], pos, iri_mode=True), end + 1

    def scan_string(self, pos: int) -> tuple[str, int]:
        if self.text.startswith('"""', pos):
            self.fail("unsupported construct: triple-quoted string", pos)
        end = _STRING_BODY_RE.match(self.text, pos + 1).end()
        if self.text[end : end + 1] != '"':
            self.fail("unterminated string literal", pos)
        return self._unescape(self.text[pos + 1 : end], pos, iri_mode=False), end + 1

    def scan_pname_or_word(self, pos: int) -> tuple[str, object, int]:
        """A prefixed name, the `a` keyword, or a bare word."""
        m = _PNAME_RE.match(self.text, pos)
        if m is not None:
            # PN_LOCAL may contain dots but not end with one; give trailing
            # dots back to the stream as statement terminators.
            raw = m.group(0).rstrip(".")
            prefix, _, local = raw.partition(":")
            return "pname", (prefix, local), pos + len(raw)
        m = _WORD_RE.match(self.text, pos)
        if m is None:
            self.fail(f"unexpected character: {self.text[pos]!r}", pos)
        word = m.group(0)
        if word == "a":
            return "kw_a", word, m.end()
        if word in ("true", "false"):
            return "boolean", word, m.end()
        return "word", word, m.end()

    def _unescape(self, raw: str, pos: int, iri_mode: bool) -> str:
        out: list[str] = []
        i = 0
        while i < len(raw):
            c = raw[i]
            if c != "\\":
                out.append(c)
                i += 1
                continue
            if i + 1 >= len(raw):
                self.fail("dangling escape", pos)
            e = raw[i + 1]
            if e in ("u", "U"):
                width = 4 if e == "u" else 8
                hexdigits = raw[i + 2 : i + 2 + width]
                valid = len(hexdigits) == width and all(h in "0123456789abcdefABCDEF" for h in hexdigits)
                code = int(hexdigits, 16) if valid else -1
                if not 0 <= code <= 0x10FFFF or 0xD800 <= code <= 0xDFFF:  # not a Unicode scalar value
                    self.fail(f"invalid \\{e} escape", pos)
                out.append(chr(code))
                i += 2 + width
            elif not iri_mode and e in _ESCAPES:
                out.append(_ESCAPES[e])
                i += 2
            else:
                self.fail(f"unknown escape sequence: \\{e}", pos)
        return "".join(out)

    # -- grammar -------------------------------------------------------------

    def peek(self) -> Token:
        if self._lookahead is None:
            self._lookahead = next(self._tokens)
        return self._lookahead

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self._lookahead = None
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.next()
        if tok.kind != kind:
            self.fail(f"expected {what}", tok.pos)
        return tok

    def resolve_pname(self, tok: Token) -> Term:
        prefix, local = tok.value
        namespace = self.prefixes.get(prefix)
        if namespace is None:
            self.fail(f"undeclared prefix: {prefix!r}", tok.pos)
        return iri(namespace + local)

    def parse_term(self, position: str) -> Term:
        tok = self.next()
        if tok.kind == "iriref":
            return iri(tok.value)
        if tok.kind == "pname":
            return self.resolve_pname(tok)
        if tok.kind == "kw_a":
            if position != "predicate":
                self.fail("keyword 'a' is only valid as a predicate", tok.pos)
            return RDF.type
        if tok.kind == "string":
            if position != "object":
                self.fail(f"literal not allowed in {position} position", tok.pos)
            return self.finish_literal(tok)
        if tok.kind in self.rejected:
            self.fail(self.rejected[tok.kind], tok.pos)
        if tok.kind == "punct":
            construct = _UNSUPPORTED_PUNCT.get(tok.value)
            if construct:
                self.fail(f"unsupported construct: {construct} {tok.value!r}", tok.pos)
            self.fail(f"unexpected {tok.value!r}", tok.pos)
        return self.dialect_term(tok, position)

    def dialect_term(self, tok: Token, position: str) -> Term:
        """A term of a kind only one dialect has; the base class has none."""
        found = "end of input" if tok.kind == "eof" else repr(tok.value)
        self.fail(f"expected {'an' if position == 'object' else 'a'} {position}, found {found}", tok.pos)

    def finish_literal(self, string_tok: Token) -> Term:
        nxt = self.peek()
        if nxt.kind == "langtag":
            self.next()
            return literal(string_tok.value, lang=nxt.value)
        if nxt.kind == "dtype_sep":
            self.next()
            dt_tok = self.next()
            if dt_tok.kind == "iriref":
                return literal(string_tok.value, datatype=dt_tok.value)
            if dt_tok.kind == "pname":
                return literal(string_tok.value, datatype=self.resolve_pname(dt_tok).value)
            self.fail("expected a datatype IRI after '^^'", dt_tok.pos)
        return literal(string_tok.value)

    def parse_predicate_object_list(self, subject: Term) -> None:
        while True:
            predicate = self.parse_term("predicate")
            while True:
                self.emit(subject, predicate, self.parse_term("object"))
                if self.peek().kind == "comma":
                    self.next()
                    continue
                break
            if self.peek().kind == "semi":
                self.next()
                # Tolerate trailing ';' before the end of the statement
                while self.peek().kind == "semi":
                    self.next()
                if self.at_list_end():
                    return
                continue
            return

    def emit(self, s: Term, p: Term, o: Term) -> None:
        raise NotImplementedError

    def at_list_end(self) -> bool:
        raise NotImplementedError


class _TurtleParser(_StatementParser):
    rejected = {
        "number": "unsupported construct: numeric literal",
        "boolean": "unsupported construct: boolean literal",
    }

    def __init__(self, text: str, graph: Graph, new_blank: Callable[[], Term]):
        super().__init__(text)
        # Lex the whole document first, so that a lexical error anywhere is
        # reported ahead of any syntax error.
        self._tokens = iter(list(self._tokens))
        self.graph = graph
        self.new_blank = new_blank
        self.blank_labels: dict[str, Term] = {}

    def parse(self) -> Graph:
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                break
            if tok.kind == "prefix_directive":
                self.next()
                self.parse_prefix()
            elif tok.kind == "base_directive":
                self.fail("unsupported construct: @base", tok.pos)
            else:
                self.parse_statement()
        self.graph.fold_prefixes(self.prefixes)
        return self.graph

    def parse_prefix(self) -> None:
        name_tok = self.expect("pname", "a prefix name ending in ':'")
        prefix, local = name_tok.value
        if local:
            self.fail("prefix declaration must end in ':'", name_tok.pos)
        iri_tok = self.expect("iriref", "a namespace IRI in angle brackets")
        self.expect("dot", "'.' after prefix declaration")
        self.prefixes[prefix] = iri_tok.value

    def parse_statement(self) -> None:
        subject = self.parse_term("subject")
        self.parse_predicate_object_list(subject)
        self.expect("dot", "'.' at end of statement")

    def dialect_term(self, tok: Token, position: str) -> Term:
        if tok.kind == "blank":
            if position == "predicate":
                self.fail("blank node not allowed in predicate position", tok.pos)
            return self.blank_labels.get(tok.value) or self.blank_labels.setdefault(tok.value, self.new_blank())
        return super().dialect_term(tok, position)

    def emit(self, s: Term, p: Term, o: Term) -> None:
        self.graph.insert(Triple(s, p, o))

    def at_list_end(self) -> bool:
        return self.peek().kind in ("dot", "eof")


def parse_turtle(text: str) -> Graph:
    """Parse a Turtle document into a frozen :class:`Graph`."""
    return _TurtleParser(text, Graph(), blank_minter("b")).parse().freeze()


def parse_turtle_into(graph: Graph, text: str, new_blank: Callable[[], Term]) -> None:
    """Parse a Turtle document into ``graph``, taking its blank nodes from ``new_blank``."""
    _TurtleParser(text, graph, new_blank).parse()


def parse_turtle_file(path) -> Graph:
    """Read and parse a UTF-8 ``.ttl`` file."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_turtle(handle.read())


_SAFE_LOCAL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_\-]*\Z")
_SAFE_PREFIX_RE = re.compile(r"(?:[A-Za-z_][A-Za-z0-9_\-]*)?\Z")


def prefixed_name(value: str, prefixes: Mapping[str, str]) -> str | None:
    """Compact a full IRI to ``prefix:local`` when a safe split exists."""
    best: tuple[int, str, str] | None = None
    for name, namespace in prefixes.items():
        if not value.startswith(namespace) or not namespace:
            continue
        local = value[len(namespace) :]
        if not _SAFE_LOCAL_RE.match(local) or not _SAFE_PREFIX_RE.match(name):
            continue
        if best is None or len(namespace) > best[0]:
            best = (len(namespace), name, local)
    if best is None:
        return None
    return f"{best[1]}:{best[2]}"


def term_to_text(term: Term, prefixes: Mapping[str, str]) -> str:
    """Turtle text for one term, preferring prefixed names for IRIs."""
    if term.kind == IRI:
        compact = prefixed_name(term.value, prefixes)
        return compact if compact is not None else f"<{term.value}>"
    if term.kind == LITERAL and term.datatype is not None:
        compact = prefixed_name(term.datatype, prefixes)
        if compact is not None:
            return term.n3().rsplit("^^", 1)[0] + "^^" + compact
    return term.n3()


def serialize_turtle(graph: Graph) -> str:
    """Write a graph as Turtle; re-parsing yields an isomorphic graph."""
    lines: list[str] = []
    for name in sorted(graph.prefixes):
        lines.append(f"@prefix {name}: <{graph.prefixes[name]}> .")
    if lines:
        lines.append("")

    by_subject: dict[Term, list[Triple]] = {}
    for t in graph:
        by_subject.setdefault(t.s, []).append(t)

    for subject in sorted(by_subject, key=Term.sort_key):
        by_predicate: dict[Term, list[Term]] = {}
        for t in by_subject[subject]:
            by_predicate.setdefault(t.p, []).append(t.o)
        predicates = sorted(
            by_predicate,
            key=lambda p: (p != RDF.type, term_to_text(p, graph.prefixes)),
        )
        parts: list[str] = []
        for predicate in predicates:
            objects = sorted(by_predicate[predicate], key=Term.sort_key)
            p_text = "a" if predicate == RDF.type else term_to_text(predicate, graph.prefixes)
            o_text = " , ".join(term_to_text(o, graph.prefixes) for o in objects)
            parts.append(f"{p_text} {o_text}")
        subject_text = term_to_text(subject, graph.prefixes)
        joined = " ;\n    ".join(parts)
        lines.append(f"{subject_text} {joined} .")
    return "\n".join(lines) + "\n"
