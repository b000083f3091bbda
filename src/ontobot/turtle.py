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
statement parser serve both languages. The lexer is one alternation regex;
it turns a document into one list of ``(kind, value, pos)`` tuples that the
parser walks by index. A parser class that sets ``variables`` also gets
``?x``/``$x`` variables and ``*``, and a ``.`` before a digit then stays a
statement dot. :class:`_StatementParser` holds the shared grammar: token
lookahead, IRIs, prefixed names, ``a``, string literals and their suffixes,
and the ``;``/``,`` predicate-object list. :class:`_TurtleParser` adds blank
nodes and ``@prefix … .``; ``ontobot.query`` adds variables and SELECT/WHERE.

The statement grammar is one loop over the token list with a local index:
``_TurtleParser.parse`` reads each subject and its closing ``.``, and
``parse_predicate_object_list`` the predicates, objects, ``,`` and ``;``.
It reads common tokens inline: a pname or blank label already resolved,
``a``, a string literal with no ``@lang`` or ``^^``, and the separators. It
hands any other token to ``parse_term`` at that index, so each diagnostic,
first pname resolution, new blank label and literal suffix comes from one
place, and no token is read twice. Each triple goes straight to the
parser's ``add`` (``Graph.insert`` for Turtle).

Errors carry a :class:`ParseDiagnostic` with a 1-based line and column into
the source text, worked out from the token's offset when the error is raised.
A lexical error ends the token list in an ``error`` token that carries a bad
escape's diagnostic. Turtle raises it before parsing, so it is reported
ahead of any syntax error; a query, when the parser reaches it.

:func:`parse_turtle_into` parses into a caller's graph, so documents load
into one union. A document's blank labels map to fresh nodes from the caller
(``b0``, ``b1``, ... in ``parse_turtle``), and its prefix table is folded into
the graph's when it ends. A failed ``parse_turtle`` returns no partial graph.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import count
from typing import Callable, Mapping, NamedTuple, NoReturn

from ontobot.graph import (
    BLANK,
    IRI,
    Graph,
    GraphError,
    Term,
    Triple,
    blank_minter,
    iri,
    literal,
    quoted,
)
from ontobot.namespaces import RDF


class ParseDiagnostic(NamedTuple):
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


# (kind, value, offset of the token's first character in the source text)
Token = tuple[str, object, int]

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

_IRI_BODY = r'[^> "<{}|^`\n]*'
_PREFIX = r"(?:[A-Za-z][A-Za-z0-9_\-]*)?"
_LANGTAG = r"[A-Za-z]+(?:-[A-Za-z0-9]+)*"
_BLANK_LABEL = r"[A-Za-z0-9_][A-Za-z0-9_\-]*"
# A backslash escapes any one character here; _unescape judges the escape.
# No character matches both branches, so a string without its closing quote
# fails in time linear in its length.
_STRING_BODY = r'(?:[^"\\\n]|\\[\s\S])*'


@cache  # compiled on first use: about 1 ms each, which an import need not pay
def _lexer(variables: bool) -> re.Pattern:
    """One alternation over a dialect's tokens, after the W3C Turtle terminals.

    Each token is a group named after its kind and takes the blanks after it;
    a comment, or blanks at the start, match unnamed, so no token can reach
    into a comment. Order decides only a number before a dot and a pname
    before a word. No alternative backtracks more than linearly.
    """
    # '.5' is a number in Turtle; in a query the '.' ends a pattern.
    number, punct = (r"[+-]?\d+\.?\d*", "*") if variables else (r"[+-]?\d+\.?\d*|\.\d+", "")
    return re.compile(
        rf"(?:(?P<pname>(?P<prefix>{_PREFIX}):"
        + r"(?P<local>(?:[A-Za-z0-9_](?:[A-Za-z0-9_\-.]*[A-Za-z0-9_\-])?)?))|[ \t\r\n]+|#[^\n]*"
        + (r"|[?$](?P<var>\w+)" if variables else "")
        + rf"|(?P<number>(?:{number})(?:[eE][+-]?\d+)?)"
        + rf'|<(?P<iriref>{_IRI_BODY})>|"(?!"")(?P<string>{_STRING_BODY})"'
        + rf"|@(?P<langtag>{_LANGTAG})|(?P<dtype_sep>\^\^)"
        + rf"|_:(?P<blank>{_BLANK_LABEL})|(?P<dot>\.)|(?P<semi>;)|(?P<comma>,)"
        + rf"|(?P<punct>[()\[\]{{}}{punct}])"
        + r"|(?P<kw_a>a)(?![A-Za-z0-9_\-])|(?P<boolean>true|false)(?![A-Za-z0-9_\-])"
        + r"|(?P<word>[A-Za-z][A-Za-z0-9_\-]*))[ \t\r\n]*"
    )


@cache  # compiled on first use, as _lexer is
def _escape_pattern() -> re.Pattern:
    """One escape: ``\\u`` and four hex digits, ``\\U`` and eight, any other character, or the end."""
    return re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|[\s\S]|\Z)")


_DIRECTIVES = {"prefix": "prefix_directive", "base": "base_directive"}
_LITERAL_SUFFIXES = ("langtag", "dtype_sep")
_RDF_TYPE = RDF.type
_LEX_ERRORS = {
    "@": "malformed '@' directive or language tag",
    "^": "expected '^^'",
    "_": "malformed blank node label",
}
_UNSUPPORTED_PUNCT = {
    "(": "collection",
    ")": "collection",
    "[": "anonymous blank node",
    "]": "anonymous blank node",
}


class _StatementParser:
    """The lexer and the statement grammar that Turtle and queries share.

    A subclass sets ``error`` (the exception a diagnostic raises),
    ``variables`` (the query dialect's tokens), ``rejected`` (messages for
    term tokens its dialect refuses), ``list_ends`` (the ``(kind, value)`` of
    the tokens that may close a ``;`` list) and ``triple`` (the tuple each
    parsed triple is built as), and gives each instance ``add``, which takes
    that tuple.
    """

    error: type[Exception] = TurtleParseError
    variables = False
    rejected: Mapping[str, str] = {}
    list_ends: frozenset[tuple[str, object]] = frozenset({("dot", "."), ("eof", None)})
    triple: Callable[[Term, Term, Term], tuple] = Triple
    add: Callable[[tuple], None]

    def __init__(self, text: str):
        if text.startswith("\ufeff"):
            text = text[1:]
        self.text = text
        self.prefixes: dict[str, str] = {}
        self.pnames: dict[tuple[str, str], Term] = {}  # resolved under the current prefixes
        self.blank_labels: dict[str, Term] = {}  # stays empty in a dialect without blank nodes
        self.tokens = self.lex()
        self.at = 0

    def location(self, pos: int) -> tuple[int, int]:
        """The 1-based line and column of an offset into the source text."""
        return self.text.count("\n", 0, pos) + 1, pos - self.text.rfind("\n", 0, pos)

    def fail(self, message: str, pos: int) -> NoReturn:
        raise self.error(ParseDiagnostic(*self.location(pos), message))

    # -- lexer ---------------------------------------------------------------

    def lex(self) -> list[Token]:
        """The tokens of the source text, ending in ``eof``, or in ``error`` where none fits."""
        text, match, tokens = self.text, _lexer(self.variables).match, []
        pos, end = 0, len(text)
        while pos < end:
            m = match(text, pos)
            if m is None:
                break
            kind = m.lastgroup
            if kind == "pname":
                tokens.append((kind, m.group("prefix", "local"), pos))
            elif kind is not None:  # None: blanks or a comment
                value = m[kind]
                if kind == "langtag":
                    kind = _DIRECTIVES.get(value, kind)
                elif "\\" in value:  # only an IRI or a string can hold one
                    try:
                        value = self._unescape(value, pos, iri_mode=kind == "iriref")
                    except self.error as exc:
                        tokens.append(("error", exc, pos))
                        return tokens
                tokens.append((kind, value, pos))
            pos = m.end()
        tokens.append(("eof" if pos == end else "error", None, pos))
        return tokens

    def lex_error(self, tok: Token) -> NoReturn:
        """Raise the diagnostic of an ``error`` token: its bad escape, or the text where no token fits."""
        exc, pos = tok[1:]
        if exc is not None:
            raise exc
        text, c = self.text, self.text[pos]
        # An IRI that reached its '>', or a string its closing quote, would have lexed.
        if c == "<":
            end = re.compile(_IRI_BODY).match(text, pos + 1).end()
            self.fail("unterminated IRI" if end == len(text) else f"invalid character in IRI: {text[end]!r}", pos)
        if c == '"':
            if text.startswith('"""', pos):
                self.fail("unsupported construct: triple-quoted string", pos)
            self.fail("unterminated string literal", pos)
        if c in "?$" and self.variables:
            self.fail("empty variable name", pos)
        self.fail(_LEX_ERRORS.get(c) or f"unexpected character: {c!r}", pos)

    def _unescape(self, raw: str, pos: int, iri_mode: bool) -> str:
        def one(m: re.Match) -> str:
            e, hexdigits = m[0][1:2], m[1] or m[2]
            if hexdigits:
                code = int(hexdigits, 16)
                if code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF:  # a Unicode scalar value
                    return chr(code)
            if not e:
                self.fail("dangling escape", pos)
            if e in "uU":
                self.fail(f"invalid \\{e} escape", pos)
            if iri_mode or e not in _ESCAPES:
                self.fail(f"unknown escape sequence: \\{e}", pos)
            return _ESCAPES[e]

        return _escape_pattern().sub(one, raw)

    # -- grammar -------------------------------------------------------------

    def peek(self) -> Token:
        tok = self.tokens[self.at]
        if tok[0] == "error":
            self.lex_error(tok)
        return tok

    def next(self) -> Token:
        tok = self.tokens[self.at]
        if tok[0] != "eof":
            if tok[0] == "error":
                self.lex_error(tok)
            self.at += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.next()
        if tok[0] != kind:
            self.fail(f"expected {what}", tok[2])
        return tok

    def bind(self, prefix: str, namespace: str) -> None:
        self.prefixes[prefix] = namespace
        self.pnames.clear()

    def resolve_pname(self, tok: Token) -> Term:
        term = self.pnames.get(tok[1])
        if term is None:
            (prefix, local), pos = tok[1], tok[2]
            if prefix not in self.prefixes:
                self.fail(f"undeclared prefix: {prefix!r}", pos)
            term = self.pnames[tok[1]] = iri(self.prefixes[prefix] + local)
        return term

    def parse_term(self, position: str) -> Term:
        kind, value, pos = tok = self.next()
        if kind == "pname":
            return self.resolve_pname(tok)
        # The statement loop reads a predicate 'a', and a string with no '@lang' or '^^', itself.
        if kind == "kw_a":
            self.fail("keyword 'a' is only valid as a predicate", pos)
        if kind == "string":
            if position != "object":
                self.fail(f"literal not allowed in {position} position", pos)
            kind, suffix, _ = self.next()
            if kind == "langtag":
                return literal(value, lang=suffix)
            dt_tok = self.next()  # after '^^'
            if dt_tok[0] == "iriref":
                return literal(value, datatype=dt_tok[1])
            if dt_tok[0] == "pname":
                return literal(value, datatype=self.resolve_pname(dt_tok).value)
            self.fail("expected a datatype IRI after '^^'", dt_tok[2])
        if kind == "iriref":
            return iri(value)
        if kind in self.rejected:
            self.fail(self.rejected[kind], pos)
        if kind == "punct":
            construct = _UNSUPPORTED_PUNCT.get(value)
            if construct:
                self.fail(f"unsupported construct: {construct} {value!r}", pos)
            self.fail(f"unexpected {value!r}", pos)
        return self.dialect_term(tok, position)

    def dialect_term(self, tok: Token, position: str) -> Term:
        """A term of a kind only one dialect has; the base class has none."""
        kind, value, pos = tok
        found = "end of input" if kind == "eof" else repr(value)
        self.fail(f"expected {'an' if position == 'object' else 'a'} {position}, found {found}", pos)

    def parse_predicate_object_list(self, subject: Term) -> None:
        """Read predicates and objects with their ``,`` and ``;`` from ``self.at``, adding each triple."""
        tokens, pnames, blanks = self.tokens, self.pnames, self.blank_labels
        add, triple, list_ends = self.add, self.triple, self.list_ends
        i = self.at
        while True:
            kind, value, _ = tokens[i]
            predicate = _RDF_TYPE if kind == "kw_a" else pnames.get(value) if kind == "pname" else None
            if predicate is None:
                self.at = i
                predicate = self.parse_term("predicate")
                i = self.at
            else:
                i += 1
            while True:
                kind, value, _ = tokens[i]
                if kind == "pname":
                    obj = pnames.get(value)
                elif kind == "blank":
                    obj = blanks.get(value)
                elif kind == "string" and tokens[i + 1][0] not in _LITERAL_SUFFIXES:
                    obj = literal(value)
                else:
                    obj = None
                if obj is None:
                    self.at = i
                    obj = self.parse_term("object")
                    i = self.at
                else:
                    i += 1
                add(triple(subject, predicate, obj))
                if tokens[i][0] != "comma":
                    break
                i += 1
            if tokens[i][0] != "semi":
                break
            # Tolerate trailing ';' before what closes the list
            while tokens[i][0] == "semi":
                i += 1
            if tokens[i][:2] in list_ends:
                break
        self.at = i


class _TurtleParser(_StatementParser):
    rejected = {
        "number": "unsupported construct: numeric literal",
        "boolean": "unsupported construct: boolean literal",
    }

    def __init__(self, text: str, graph: Graph, new_blank: Callable[[], Term]):
        super().__init__(text)
        if self.tokens[-1][0] == "error":  # a lexical error anywhere is reported ahead of any syntax error
            self.lex_error(self.tokens[-1])
        self.graph = graph
        self.add = graph.insert
        self.new_blank = new_blank

    def parse(self) -> Graph:
        tokens, pnames, blanks = self.tokens, self.pnames, self.blank_labels
        while True:
            kind, value, pos = tokens[self.at]
            if kind == "eof":
                break
            if kind == "prefix_directive":
                self.at += 1
                self.parse_prefix()
                continue
            if kind == "base_directive":
                self.fail("unsupported construct: @base", pos)
            subject = pnames.get(value) if kind == "pname" else blanks.get(value) if kind == "blank" else None
            if subject is None:
                subject = self.parse_term("subject")
            else:
                self.at += 1
            self.parse_predicate_object_list(subject)
            kind, _, pos = tokens[self.at]
            if kind != "dot":
                self.fail("expected '.' at end of statement", pos)
            self.at += 1
        self.graph.fold_prefixes(self.prefixes)
        return self.graph

    def parse_prefix(self) -> None:
        _, (prefix, local), pos = self.expect("pname", "a prefix name ending in ':'")
        if local:
            self.fail("prefix declaration must end in ':'", pos)
        namespace = self.expect("iriref", "a namespace IRI in angle brackets")[1]
        self.expect("dot", "'.' after prefix declaration")
        self.bind(prefix, namespace)

    def dialect_term(self, tok: Token, position: str) -> Term:
        kind, label, pos = tok
        if kind == "blank":
            if position == "predicate":
                self.fail("blank node not allowed in predicate position", pos)
            return self.blank_labels.get(label) or self.blank_labels.setdefault(label, self.new_blank())
        return super().dialect_term(tok, position)


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
# The prefix names and language tags the lexer reads back.
_SAFE_PREFIX_RE = re.compile(_PREFIX + r"\Z")
_LANG_RE = re.compile(_LANGTAG + r"\Z")
_BLANK_LABEL_RE = re.compile(_BLANK_LABEL + r"\Z")


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


# The characters IRIREF refuses, which only a \u escape can carry.
_IRI_REFUSED_RE = re.compile(r'[\x00-\x20<>"{}|^`\\]')


def _iri_ref(value: str, escape: bool) -> str:
    if escape:
        value = _IRI_REFUSED_RE.sub(lambda m: f"\\u{ord(m[0]):04X}", value)
    return f"<{value}>"


def term_to_text(term: Term, prefixes: Mapping[str, str], escape: bool = False) -> str:
    """Text for one term, preferring prefixed names for IRIs.

    Without ``escape``, the table-cell form: a literal unquoted, then ``@lang``
    or ``^^datatype``, nothing escaped. With ``escape``, Turtle that parses back
    to the term; a language tag that cannot be written so raises :class:`GraphError`.
    """
    if term.kind == IRI:
        return prefixed_name(term.value, prefixes) or _iri_ref(term.value, escape)
    if term.kind == BLANK:
        return term.n3()
    text = quoted(term.value) if escape else term.value
    if term.datatype is not None:
        return f"{text}^^{prefixed_name(term.datatype, prefixes) or _iri_ref(term.datatype, escape)}"
    # '@prefix' and '@base' lex as directives, not as tags.
    if escape and term.lang is not None and (not _LANG_RE.match(term.lang) or term.lang in _DIRECTIVES):
        raise GraphError(f"language tag {term.lang!r} cannot be written as Turtle")
    return text if term.lang is None else f"{text}@{term.lang}"


def serialize_turtle(graph: Graph) -> str:
    """Write a graph as Turtle; re-parsing yields an isomorphic graph.

    A prefix whose name the lexer would not read back is left out, and IRIs
    under it are written in full. A blank-node label that the lexer would not
    read back is written as a fresh ``_:b<n>`` that no other blank node of
    the graph uses. A language tag that the lexer would not read back raises
    :class:`GraphError`.
    """
    prefixes = {name: ns for name, ns in graph.prefixes.items() if _SAFE_PREFIX_RE.match(name)}
    blanks = {term.value: term for t in graph for term in (t.s, t.o) if term.kind == BLANK}
    fresh = (f"_:b{n}" for n in count() if f"b{n}" not in blanks)
    relabel = {term: next(fresh) for label, term in blanks.items() if not _BLANK_LABEL_RE.match(label)}

    def text(term: Term) -> str:
        return relabel.get(term) or term_to_text(term, prefixes, escape=True)

    lines = [f"@prefix {name}: {_iri_ref(prefixes[name], True)} ." for name in sorted(prefixes)]
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
            key=lambda p: (p != RDF.type, term_to_text(p, prefixes, escape=True)),
        )
        parts: list[str] = []
        for predicate in predicates:
            objects = sorted(by_predicate[predicate], key=Term.sort_key)
            p_text = "a" if predicate == RDF.type else term_to_text(predicate, prefixes, escape=True)
            o_text = " , ".join(map(text, objects))
            parts.append(f"{p_text} {o_text}")
        joined = " ;\n    ".join(parts)
        lines.append(f"{text(subject)} {joined} .")
    return "\n".join(lines) + "\n"
