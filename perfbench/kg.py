"""Scaled knowledge graphs: k renamed copies of the packaged fixtures.

Copy ``c`` of ``activities.ttl`` and ``robots.ttl`` suffixes every
``https://example.org/`` name with ``_c`` and every label with `` c``. The
shared vocabularies (``soma:``, ``obot:``, ``ros:``, ``pko:``, ``prov:``
and the rest) stay shared, so the robots of every copy enable the same
``soma:`` affordances and CQ4/CQ5 answers grow with the fleet.

The renaming works on the Turtle text with its own small tokenizer, so the
generator does not depend on the parser it feeds. The seed picks the copy
numbers; the same ``(k, seed)`` always gives the same text.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

FIXTURES = Path("src") / "ontobot" / "fixtures"
QUERIES = FIXTURES / "queries"
EX = "https://example.org/"

# Prefix table of the fixtures, used to turn terms into the CLI's cell text.
PREFIXES = {
    "": EX,
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "obot": "https://w3id.org/onto-bot#",
    "dul": "http://www.ontologydesignpatterns.org/ont/dul/DUL.owl#",
    "soma": "http://www.ease-crc.org/ont/SOMA.owl#",
    "pko": "https://w3id.org/pko#",
    "pplan": "http://purl.org/net/p-plan#",
    "prov": "http://www.w3.org/ns/prov#",
    "ros": "http://data.mksmart.org/onto-ros/class#",
}

_TOKEN = re.compile(
    r"""(?P<comment>\#[^\n]*)
      | (?P<string>"(?:[^"\\\n]|\\.)*")
      | (?P<iri><[^>\s]*>)
      | (?P<local>(?<![\w:-]):[A-Za-z0-9_][A-Za-z0-9_-]*)""",
    re.X,
)
_CELL_IRI = re.compile(r"[A-Za-z_]*:[A-Za-z0-9_-]+\Z")


def rename_copy(text: str, cid: int) -> str:
    """Turtle or query text with its ``:name``s and strings renamed for copy ``cid``.

    Comments are dropped, so a string quoted in a comment is left alone.
    """

    def sub(m: re.Match) -> str:
        if m.group("comment") is not None:
            return ""
        if m.group("string") is not None:
            return m.group("string")[:-1] + f' {cid}"'
        if m.group("local") is not None:
            return f"{m.group('local')}_{cid}"
        return m.group(0)

    return _TOKEN.sub(sub, text)


def _split_prefixes(text: str) -> tuple[str, str]:
    head, body = [], []
    for line in text.splitlines():
        (head if line.startswith("@prefix") else body).append(line)
    return "\n".join(head) + "\n", "\n".join(body) + "\n"


def scaled_text(name: str, ids: list[int], root: Path = Path(".")) -> str:
    """The fixture ``name`` (``activities`` or ``robots``) with one renamed copy per id."""
    head, body = _split_prefixes((root / FIXTURES / f"{name}.ttl").read_text(encoding="utf-8"))
    return head + "".join(rename_copy(body, cid) for cid in ids)


def rename_cell(cell: str, cid: int) -> str:
    """Map one fixture answer cell (CLI cell text) to its value in copy ``cid``."""
    if cell.startswith(":"):
        return f"{cell}_{cid}"
    if _CELL_IRI.match(cell):
        return cell
    return f"{cell} {cid}"


def base_label(label: str) -> str:
    """``"TIAGo 417"`` -> ``"TIAGo"``."""
    return label.rpartition(" ")[0]


def cell_text(term) -> str:
    """The CLI's cell text for a program term, from the fixture prefix table."""
    if term.is_iri:
        spaces = [(len(ns), name) for name, ns in PREFIXES.items() if term.value.startswith(ns)]
        if spaces:
            size, name = max(spaces)
            return f"{name}:{term.value[size:]}"
        return f"<{term.value}>"
    if term.is_blank:
        return f"_:{term.value}"
    return term.value


@dataclass(frozen=True)
class ScaledKG:
    """A k-copy activity/robot pair, as the Turtle texts the program reads."""

    ids: tuple[int, ...]
    activities: str
    robots: str


def scaled_kg(k: int, seed: int, root: Path = Path(".")) -> ScaledKG:
    """k renamed copies; the seed picks the copy numbers."""
    ids = random.Random(f"copies:{k}:{seed}").sample(range(1, 1000), k)
    return ScaledKG(tuple(ids), scaled_text("activities", ids, root), scaled_text("robots", ids, root))
