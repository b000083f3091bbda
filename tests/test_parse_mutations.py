"""Seeded mutations of the packaged Turtle files and queries.

Every mutated text must either parse or raise one of the typed parse errors
with a position inside the text; never any other exception.
"""

from __future__ import annotations

import random

from ontobot.fixtures import activities_path, queries_dir, robots_path, vocabulary_path
from ontobot.query import QueryParseError, UnsupportedFeatureError, parse_query
from ontobot.turtle import TurtleParseError, parse_turtle

# Characters that start or end a token in one dialect or the other, and
# '²', which str.isdigit() accepts but no numeric literal does.
ALPHABET = ["²", "?", "$", "*", ".", ";", "@", "^", "_", '"', "<", ">", "\\", ":", ",", "{", "}", "#", "5", " ", "\n"]


def window(rng: random.Random, text: str) -> str:
    """The prefix declarations and a short run of lines, to keep each parse small."""
    lines = text.splitlines(keepends=True)
    if len(lines) <= 20:
        return text
    header = [line for line in lines if line.startswith(("@prefix", "PREFIX"))]
    start = rng.randrange(len(lines))
    return "".join(header + lines[start : start + rng.randint(1, 8)])


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + rng.randint(1, 3) :]
        else:
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1 :]
    return text


def test_mutated_inputs_parse_or_raise_typed_errors():
    rng = random.Random(3131)
    turtle_texts = [p.read_text(encoding="utf-8") for p in (activities_path(), robots_path(), vocabulary_path())]
    query_texts = [p.read_text(encoding="utf-8") for p in sorted(queries_dir().glob("*.rq"))]
    outcomes = {"parsed": 0, "rejected": 0}
    for i in range(2000):
        parse, sources = (parse_turtle, turtle_texts) if i % 2 else (parse_query, query_texts)
        text = mutate(rng, window(rng, rng.choice(sources)))
        try:
            parse(text)
        except (TurtleParseError, QueryParseError) as exc:
            line, column = exc.diagnostic.line, exc.diagnostic.column
        except UnsupportedFeatureError as exc:
            line, column = exc.line, exc.column
        else:
            outcomes["parsed"] += 1
            continue
        outcomes["rejected"] += 1
        assert line >= 1 and column >= 1, (text, line, column)
    # Both outcomes occur, so the mutations neither break everything nor nothing.
    assert outcomes["parsed"] > 100 and outcomes["rejected"] > 100, outcomes
