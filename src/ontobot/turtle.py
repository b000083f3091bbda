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
one ``findall`` turns a document into a list of plain token strings that the
parser walks by index. The grammar works out a token's kind from its text
(``_kind``) only where it branches. A parser class that sets ``variables``
also gets ``?x``/``$x`` variables and ``*``, and a ``.`` before a digit then
stays a statement dot. :class:`_StatementParser` holds the shared grammar:
token lookahead, IRIs, prefixed names, ``a``, string literals and their
suffixes, and the ``;``/``,`` predicate-object list. :class:`_TurtleParser`
adds blank nodes and ``@prefix … .``; ``ontobot.query`` adds variables and
SELECT/WHERE.

The statement grammar is one loop over the token list with a local index:
``_TurtleParser.parse`` reads each subject and its closing ``.``, and
``parse_predicate_object_list`` the predicates, objects, ``,`` and ``;``.
It reads common tokens inline: a pname, IRI or blank label already
resolved, ``a``, a string literal with no ``@lang`` or ``^^``, and the
separators. Pnames, IRIs and blank labels resolve through one memo from
token text to term, which each prefix binding clears. The loop hands any
other token to ``parse_term`` at that index, so each diagnostic, first
resolution, new blank label and literal suffix comes from one place, and no
token is read twice. Each triple goes straight to the parser's ``add``
(``Graph.insert`` for Turtle).

Errors carry a :class:`ParseDiagnostic` with a 1-based line and column into
the source text. Tokens carry no offsets: a diagnostic finds its token's
offset by lexing the text again with ``finditer``, only when it is raised.
The first lexical error, a bad escape included, ends the token list in an
``_ERROR`` token, and its diagnostic is kept. Turtle raises it before
parsing, so it is reported ahead of any syntax error; a query, when the
parser reaches it.

:func:`parse_turtle_into` parses into a caller's graph, so documents load
into one union. A document's blank labels map to fresh nodes from the caller
(``b0``, ``b1``, ... in ``parse_turtle``), and its prefix table is folded into
the graph's when it ends. A failed ``parse_turtle`` returns no partial graph.
"""

from __future__ import annotations

import re
from functools import cache
from itertools import count, islice
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

    Its one group is a token, and the match takes the blanks and comments
    before it. Each step of that gap is one blank or a comment to its line's
    end, so the gap cannot give text back to a token. The last branches take
    the rest of the text from the first character that no token fits (the
    error token) and the end. Order decides only a number before a dot and a
    pname before a word. No alternative backtracks more than linearly.
    """
    # '.5' is a number in Turtle; in a query the '.' ends a pattern.
    number, punct = (r"[+-]?\d+\.?\d*", "*") if variables else (r"[+-]?\d+\.?\d*|\.\d+", "")
    return re.compile(
        r"[ \t\r\n]*(?:#[^\n]*(?![^\n])[ \t\r\n]*)*("
        + rf"{_PREFIX}:(?:[A-Za-z0-9_](?:[A-Za-z0-9_\-.]*[A-Za-z0-9_\-])?)?"
        + (r"|[?$]\w+" if variables else "")
        + rf"|(?:{number})(?:[eE][+-]?\d+)?"
        + rf'|<{_IRI_BODY}>|"(?!""){_STRING_BODY}"'
        + rf"|@{_LANGTAG}|\^\^|_:{_BLANK_LABEL}|[.;,()\[\]{{}}{punct}]"
        + r"|[A-Za-z][A-Za-z0-9_\-]*"
        + r"|[^ \t\r\n#][\s\S]*|\Z)"
    )


@cache  # compiled on first use, as _lexer is
def _escape_pattern() -> re.Pattern:
    """One escape: ``\\u`` and four hex digits, ``\\U`` and eight, any other character, or the end."""
    return re.compile(r"\\(?:u([0-9A-Fa-f]{4})|U([0-9A-Fa-f]{8})|[\s\S]|\Z)")


def _unescape(tok: str) -> str:
    """The body of a string or IRI token with its escapes decoded; a bad escape raises ``ValueError``."""
    body = tok[1:-1]
    if "\\" not in body:
        return body
    iri_mode = tok[0] == "<"

    def one(m: re.Match) -> str:
        e, hexdigits = m[0][1:2], m[1] or m[2]
        if hexdigits:
            code = int(hexdigits, 16)
            if code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF:  # a Unicode scalar value
                return chr(code)
        if not e:
            raise ValueError("dangling escape")
        if e in "uU":
            raise ValueError(f"invalid \\{e} escape")
        if iri_mode or e not in _ESCAPES:
            raise ValueError(f"unknown escape sequence: \\{e}")
        return _ESCAPES[e]

    return _escape_pattern().sub(one, body)


_DIRECTIVES = frozenset({"prefix", "base"})  # after an '@', not language tags
# The kinds that a token's first character decides.
_SIGILS = {"": "eof", "<": "iriref", '"': "string", "_": "blank", "?": "var", "$": "var"}
_LETTERS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")


def _kind(tok: str) -> str:
    """A token's kind, from its text, where the grammar branches on it; punctuation is its own kind."""
    c = tok[:1]
    if c in _SIGILS:
        return _SIGILS[c]
    if c == "@":
        return "directive" if tok[1:] in _DIRECTIVES else "langtag"
    if ":" in tok:
        return "pname"
    if c in _LETTERS:
        return "kw_a" if tok == "a" else "boolean" if tok in ("true", "false") else "word"
    return "number" if c in "+-" or c.isdigit() or (c == "." and tok != ".") else tok


def _value(tok: str) -> object:
    """A token's value, as a diagnostic quotes it: without its sigil, unescaped, or a pname's two parts."""
    kind = _kind(tok)
    if kind == "pname":
        return tuple(tok.split(":", 1))
    if kind in ("iriref", "string"):
        return _unescape(tok)
    if kind == "blank":
        return tok[2:]
    return tok[1:] if tok[:1] in ("@", "?", "$") else tok


# Stands in the token list for the first lexical error; no token holds a line break.
_ERROR = "\n"
# A string token followed by a token with one of these starts may carry a suffix.
_SUFFIX_STARTS = frozenset("@^")
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


def _line_column(text: str, pos: int) -> tuple[int, int]:
    """The 1-based line and column of an offset into a text."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


class _StatementParser:
    """The lexer and the statement grammar that Turtle and queries share.

    A subclass sets ``error`` (the exception a diagnostic raises),
    ``variables`` (the query dialect's tokens), ``rejected`` (messages for
    term kinds its dialect refuses), ``list_ends`` (the tokens that may close
    a ``;`` list) and ``triple`` (the tuple each parsed triple is built as),
    and gives each instance ``add``, which takes that tuple.
    """

    error: type[Exception] = TurtleParseError
    variables = False
    rejected: Mapping[str, str] = {}
    list_ends: frozenset[str] = frozenset({".", ""})
    triple: Callable[[Term, Term, Term], tuple] = Triple
    add: Callable[[tuple], None]

    def __init__(self, text: str):
        if text.startswith("\ufeff"):
            text = text[1:]
        self.text = text
        self.prefixes: dict[str, str] = {}
        # Pname, IRI and blank-label tokens, resolved under the current prefixes.
        self.terms: dict[str, Term] = {}
        self.blank_labels: dict[str, Term] = {}  # stays empty in a dialect without blank nodes
        self.lex_exc: Exception | None = None
        self.tokens = self.lex()
        self.at = 0

    def location(self, at: int) -> tuple[int, int]:
        """The 1-based line and column of the token at index ``at``, lexed again to find it."""
        m = next(islice(_lexer(self.variables).finditer(self.text + "\n"), at, None))
        return _line_column(self.text, min(m.start(1), len(self.text)))  # the end lies past the added line break

    def fail(self, message: str, at: int) -> NoReturn:
        raise self.error(ParseDiagnostic(*self.location(at), message))

    # -- lexer ---------------------------------------------------------------

    def lex(self) -> list[str]:
        """The token texts, ending in an empty eof token, or in ``_ERROR`` at the first lexical error.

        The text is lexed with a line break added, so it ends in blanks: after
        the last token come two empty matches (the blanks, then the end), and
        after the error token, which takes the rest of the text, only one.
        """
        text = self.text
        tokens = _lexer(self.variables).findall(text + "\n")
        stop = None
        if tokens[-2]:
            stop = len(tokens) - 2
            self.lex_exc = self.no_token_fits(len(text) + 1 - len(tokens[-2]))
        if "\\" in text:  # only a string or an IRI can hold an escape
            for at, tok in enumerate(tokens[:stop]):
                if "\\" in tok and tok[0] in '"<':
                    try:
                        _unescape(tok)
                    except ValueError as exc:
                        stop = at
                        self.lex_exc = self.error(ParseDiagnostic(*self.location(at), str(exc)))
                        break
        if stop is not None:
            tokens[stop:] = [_ERROR]
        return tokens

    def no_token_fits(self, pos: int) -> Exception:
        """The diagnostic for the text at ``pos``, where no token fits."""
        text, c = self.text, self.text[pos]
        # An IRI that reached its '>', or a string its closing quote, would have lexed.
        if c == "<":
            end = re.compile(_IRI_BODY).match(text, pos + 1).end()
            message = "unterminated IRI" if end == len(text) else f"invalid character in IRI: {text[end]!r}"
        elif c == '"':
            triple_quoted = text.startswith('"""', pos)
            message = "unsupported construct: triple-quoted string" if triple_quoted else "unterminated string literal"
        elif c in "?$" and self.variables:
            message = "empty variable name"
        else:
            message = _LEX_ERRORS.get(c) or f"unexpected character: {c!r}"
        return self.error(ParseDiagnostic(*_line_column(text, pos), message))

    # -- grammar -------------------------------------------------------------

    def peek(self) -> str:
        tok = self.tokens[self.at]
        if tok == _ERROR:
            raise self.lex_exc
        return tok

    def next(self) -> str:
        tok = self.tokens[self.at]
        if tok:
            if tok == _ERROR:
                raise self.lex_exc
            self.at += 1
        return tok

    def expect(self, kind: str, what: str) -> str:
        at, tok = self.at, self.next()
        if _kind(tok) != kind:
            self.fail(f"expected {what}", at)
        return tok

    def bind(self, prefix: str, namespace: str) -> None:
        self.prefixes[prefix] = namespace
        self.terms.clear()
        self.terms.update(self.blank_labels)

    def resolve(self, tok: str, at: int) -> Term:
        """The IRI of a pname or IRI token."""
        term = self.terms.get(tok)
        if term is None:
            if tok[0] == "<":
                term = iri(_unescape(tok))
            else:
                prefix, _, local = tok.partition(":")
                if prefix not in self.prefixes:
                    self.fail(f"undeclared prefix: {prefix!r}", at)
                term = iri(self.prefixes[prefix] + local)
            self.terms[tok] = term
        return term

    def parse_term(self, position: str) -> Term:
        at, tok = self.at, self.next()
        kind = _kind(tok)
        if kind in ("pname", "iriref"):
            return self.resolve(tok, at)
        # The statement loop reads a predicate 'a', and a string with no '@lang' or '^^', itself.
        if kind == "kw_a":
            self.fail("keyword 'a' is only valid as a predicate", at)
        if kind == "string":
            if position != "object":
                self.fail(f"literal not allowed in {position} position", at)
            value, suffix = _unescape(tok), self.tokens[self.at]
            if _kind(suffix) == "langtag":
                self.at += 1
                return literal(value, lang=suffix[1:])
            if suffix != "^^":
                return literal(value)
            self.at += 1
            at, dt = self.at, self.next()
            if _kind(dt) in ("pname", "iriref"):
                return literal(value, datatype=self.resolve(dt, at).value)
            self.fail("expected a datatype IRI after '^^'", at)
        if kind in self.rejected:
            self.fail(self.rejected[kind], at)
        if tok in _UNSUPPORTED_PUNCT:
            self.fail(f"unsupported construct: {_UNSUPPORTED_PUNCT[tok]} {tok!r}", at)
        if tok in ("{", "}", "*"):
            self.fail(f"unexpected {tok!r}", at)
        return self.dialect_term(at, position)

    def dialect_term(self, at: int, position: str) -> Term:
        """A term of a kind only one dialect has; the base class has none."""
        found = repr(_value(self.tokens[at])) if self.tokens[at] else "end of input"
        self.fail(f"expected {'an' if position == 'object' else 'a'} {position}, found {found}", at)

    def parse_predicate_object_list(self, subject: Term) -> None:
        """Read predicates and objects with their ``,`` and ``;`` from ``self.at``, adding each triple."""
        tokens, terms = self.tokens, self.terms
        add, triple, list_ends = self.add, self.triple, self.list_ends
        i = self.at
        while True:
            tok = tokens[i]
            predicate = _RDF_TYPE if tok == "a" else terms.get(tok)
            if predicate is None or tok[0] == "_":  # a blank node is no predicate
                self.at = i
                predicate = self.parse_term("predicate")
                i = self.at
            else:
                i += 1
            while True:
                tok = tokens[i]
                obj = terms.get(tok)
                if obj is not None:
                    i += 1
                elif tok[:1] == '"' and "\\" not in tok and tokens[i + 1][:1] not in _SUFFIX_STARTS:
                    obj = literal(tok[1:-1])
                    i += 1
                else:
                    self.at = i
                    obj = self.parse_term("object")
                    i = self.at
                add(triple(subject, predicate, obj))
                if tokens[i] != ",":
                    break
                i += 1
            if tokens[i] != ";":
                break
            # Tolerate trailing ';' before what closes the list
            while tokens[i] == ";":
                i += 1
            if tokens[i] in list_ends:
                break
        self.at = i


class _TurtleParser(_StatementParser):
    rejected = {
        "number": "unsupported construct: numeric literal",
        "boolean": "unsupported construct: boolean literal",
    }

    def __init__(self, text: str, graph: Graph, new_blank: Callable[[], Term]):
        super().__init__(text)
        if self.lex_exc is not None:  # a lexical error anywhere is reported ahead of any syntax error
            raise self.lex_exc
        self.graph = graph
        self.add = graph.insert
        self.new_blank = new_blank

    def parse(self) -> Graph:
        tokens, terms = self.tokens, self.terms
        while True:
            at = self.at
            tok = tokens[at]
            subject = terms.get(tok)
            if subject is None:
                if not tok:
                    break
                if tok == "@prefix":
                    self.at += 1
                    self.parse_prefix()
                    continue
                if tok == "@base":
                    self.fail("unsupported construct: @base", at)
                subject = self.parse_term("subject")
            else:
                self.at += 1
            self.parse_predicate_object_list(subject)
            if tokens[self.at] != ".":
                self.fail("expected '.' at end of statement", self.at)
            self.at += 1
        self.graph.fold_prefixes(self.prefixes)
        return self.graph

    def parse_prefix(self) -> None:
        at = self.at
        prefix, _, local = self.expect("pname", "a prefix name ending in ':'").partition(":")
        if local:
            self.fail("prefix declaration must end in ':'", at)
        namespace = _unescape(self.expect("iriref", "a namespace IRI in angle brackets"))
        self.expect(".", "'.' after prefix declaration")
        self.bind(prefix, namespace)

    def dialect_term(self, at: int, position: str) -> Term:
        label = self.tokens[at]
        if _kind(label) == "blank":
            if position == "predicate":
                self.fail("blank node not allowed in predicate position", at)
            term = self.blank_labels.get(label) or self.blank_labels.setdefault(label, self.new_blank())
            self.terms[label] = term
            return term
        return super().dialect_term(at, position)


def parse_turtle(text: str) -> Graph:
    """Parse a Turtle document into a frozen :class:`Graph`."""
    return _TurtleParser(text, Graph(), blank_minter("b")).parse().freeze()


def parse_turtle_into(graph: Graph, text: str, new_blank: Callable[[], Term]) -> None:
    """Parse a Turtle document into ``graph``, taking its blank nodes from ``new_blank``."""
    _TurtleParser(text, graph, new_blank).parse()


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
