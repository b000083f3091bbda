"""The parser pin corpus: the exact outcome of parsing seeded mutations.

``cases`` makes 3,000 seeded mutations of the packaged ``.ttl`` and ``.rq``
files with the window and mutation operators of ``test_parse_mutations``:
1,200 Turtle windows parsed as Turtle, 1,200 queries parsed as queries, and
300 of each crossed into the other dialect's parser. One case in five is
then cut off at a random point. ``outcome`` reduces a parse to one line: the
exception's class and text (which holds the message, line and column; an
``UnsupportedFeatureError`` adds its line and column), or a digest of the
result. A Turtle digest covers the graph's triples in
graph order and its prefix items; a query digest covers its projection,
``distinct`` flag, prefixes and pattern.

``tests/golden/parse.json`` maps each case to its outcome. Regenerate it
only for an intended change of output, and say what changed in CHANGES.md:

    PYTHONPATH=src python tests/golden_parse.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from ontobot.fixtures import activities_path, queries_dir, robots_path, vocabulary_path
from ontobot.query import UnsupportedFeatureError, Var, parse_query
from ontobot.turtle import parse_turtle
from test_parse_mutations import mutate, window

CORPUS = Path(__file__).resolve().parent / "golden" / "parse.json"
SEED, CASES = 17, 3000


def cases(seed: int = SEED) -> list[tuple[str, str, str]]:
    """``(name, dialect, text)`` for each mutated input, in a fixed order."""
    rng = random.Random(seed)
    sources = {
        "turtle": [activities_path(), robots_path(), vocabulary_path()],
        "query": sorted(queries_dir().glob("*.rq")),
    }
    texts = {path.name: path.read_text(encoding="utf-8") for paths in sources.values() for path in paths}
    out = []
    for i in range(CASES):
        # Of every ten cases: 4 Turtle, 4 queries, 1 Turtle text as a query, 1 query text as Turtle.
        origin = ("turtle", "query")[i % 10 in (4, 5, 6, 7, 9)]
        dialect = origin if i % 10 < 8 else ("query" if origin == "turtle" else "turtle")
        name = rng.choice(sources[origin]).name
        text = mutate(rng, window(rng, texts[name]))
        if i % 10 in (3, 7):  # cut off, to reach what only the end of the input can leave open
            text = text[: rng.randrange(len(text) + 1)]
        out.append((f"{i:04d} {dialect} {name}", dialect, text))
    return out


def _digest(parts: list[str]) -> str:
    return hashlib.sha256("\n".join(parts).encode("utf-8")).hexdigest()[:16]


def outcome(dialect: str, text: str) -> str:
    try:
        if dialect == "turtle":
            graph = parse_turtle(text)
            parts = [t.n3() for t in graph] + [f"{k} {v}" for k, v in graph.prefixes.items()]
            return f"graph {len(graph)} {_digest(parts)}"
        query = parse_query(text)
    except UnsupportedFeatureError as exc:
        return f"UnsupportedFeatureError: {exc} at {exc.line}:{exc.column}"
    except Exception as exc:  # any other exception is pinned too, by class and text
        return f"{type(exc).__name__}: {exc}"
    terms = [" ".join(f"?{t.name}" if isinstance(t, Var) else t.n3() for t in pattern) for pattern in query.pattern]
    parts = [" ".join(query.projection), str(query.distinct)] + [f"{k} {v}" for k, v in query.prefixes.items()] + terms
    return f"query {len(query.pattern)} {_digest(parts)}"


def outcomes(seed: int = SEED) -> dict[str, str]:
    return {name: outcome(dialect, text) for name, dialect, text in cases(seed)}


if __name__ == "__main__":
    corpus = outcomes()
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(corpus, indent=0, ensure_ascii=False) + "\n", encoding="utf-8")
    parsed = sum(v.startswith(("graph ", "query ")) for v in corpus.values())
    print(f"{CORPUS}: {len(corpus)} inputs, {parsed} parsed, {len(corpus) - parsed} errors", file=sys.stderr)
