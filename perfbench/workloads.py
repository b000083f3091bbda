"""The three closed-loop workloads: cold CLI calls, warm CQs, warm queries.

Each workload makes its inputs from the seed, times the program calls that
make it ready (``setup``), and hands out the timed ops in blocks. A block
holds every op kind in fixed proportions, shuffled by the seed, so the mix
of a run does not drift with the seed. Each op carries the check of its
answer. The program is reached only through its public functions, looked
up on their modules at call time so that the traced run can wrap them.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import ontobot.cli as cli
import ontobot.graph as graph
import ontobot.query as query
import ontobot.reasoner as reasoner
import ontobot.schema as schema
import ontobot.turtle as turtle
from answers import Expected, matrix_ok, parse_output, plain, rows_cq1, rows_cq2, rows_cq6
from kg import EX, QUERIES, cell_text, rename_cell, rename_copy, scaled_kg

ACTIVITIES = ("Prepare breakfast", "Reorganise the kitchen")
ROBOTS = ("TIAGo", "HSR", "UR3", "Stretch")
FORMATS = ("table", "csv", "json")


class SetupError(RuntimeError):
    """The generated inputs did not load into a valid knowledge base."""


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


class Workload:
    name = ""
    #: op kind -> ops of that kind per block
    weights: dict[str, int] = {}
    #: latency percentile reported as the tail (see ``run.tail``)
    tail_percentile = 99.0

    def __init__(self, seed: int, pinned: dict, root: Path, workdir: Path):
        self.seed = seed
        self.pinned = pinned
        self.root = root
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup_once(self) -> float:
        """Make the workload ready once; return the wall time of the program calls."""
        raise NotImplementedError

    def check_setup(self) -> None:
        """Raise :class:`SetupError` unless the last set-up gave valid inputs."""

    def make_op(self, kind: str, nth: int) -> Op:
        """The ``nth`` op of ``kind`` in a block; inputs that change its cost follow ``nth``."""
        raise NotImplementedError

    def blocks(self) -> Iterator[list[Op]]:
        slots = [(kind, nth) for kind, count in self.weights.items() for nth in range(count)]
        while True:
            self.rng.shuffle(slots)
            yield [self.make_op(kind, nth) for kind, nth in slots]

    def describe(self) -> str:
        return ""


# -- ask: one warm KnowledgeBase, one reasoner call per op ---------------------------


class Ask(Workload):
    name = "ask"
    K = 10
    # CQ3 and CQ1 (~0.2-0.3 ms) and CQ6 (~0.6 ms) fill the lowest 34 %; CQ2 on
    # "Prepare breakfast" (~1.2 ms) spans 34-66 %, so the median sits inside
    # its band; CQ4 and the matrix (~9-12 ms) are the top 4 %, so p99 falls
    # inside theirs. Activities and robots alternate with ``nth``, so every
    # block costs the same; copies are drawn at random.
    weights = {"cq3": 5, "cq1": 5, "cq6": 7, "cq2": 16, "cq5": 15, "cq4": 1, "matrix": 1}

    def __init__(self, *args):
        super().__init__(*args)
        self.kg = scaled_kg(self.K, self.seed, self.root)
        self.expected = Expected(self.pinned, self.kg.ids)
        self.activity_labels = [f"{a} {c}" for c in self.kg.ids for a in ACTIVITIES]

    def setup_once(self) -> float:
        self.kb = None  # free the last one outside the timed region
        start = perf_counter()
        self.kb = reasoner.KnowledgeBase.load(
            turtle.parse_turtle(self.kg.activities), turtle.parse_turtle(self.kg.robots)
        )
        return perf_counter() - start

    def check_setup(self) -> None:
        kb = self.kb
        if not kb.report.ok or len(kb.graph) != self.expected.inferred_triples():
            raise SetupError(f"ask: k={self.K} graph has {len(kb.report.violations)} violations, "
                             f"{len(kb.graph)} triples")

    def make_op(self, kind: str, nth: int) -> Op:
        kb, exp, rng = self.kb, self.expected, self.rng
        activity = ACTIVITIES[0] if kind == "cq2" else ACTIVITIES[nth % 2]
        robot = ROBOTS[nth % len(ROBOTS)]
        cid, robot_cid = rng.choice(self.kg.ids), rng.choice(self.kg.ids)
        label, robot_label = f"{activity} {cid}", f"{robot} {robot_cid}"
        if kind == "cq1":
            return Op(kind, lambda: kb.objects_and_affordances(label),
                      lambda r: rows_cq1(r) == exp.cq1(activity, cid))
        if kind == "cq2":
            return Op(kind, lambda: kb.task_plan(label), lambda r: rows_cq2(r) == exp.cq2(activity, cid))
        if kind == "cq3":
            return Op(kind, lambda: kb.required_affordances(label),
                      lambda r: sorted(cell_text(a) for a in r) == exp.cq3(activity))
        if kind == "cq4":
            return Op(kind, lambda: kb.capable_robots(label),
                      lambda r: sorted(cell_text(x) for x in r) == [x for x, _ in exp.cq4(activity)])
        if kind == "cq5":
            return Op(kind, lambda: kb.can_execute_all(robot_label, self.activity_labels),
                      lambda r: isinstance(r, bool) and r == exp.cq5(robot))
        if kind == "cq6":
            return Op(kind, lambda: kb.gap_report(robot_label, label),
                      lambda r: rows_cq6(r) == exp.cq6(robot, activity, cid))
        return Op(kind, kb.feasibility_matrix, lambda r: matrix_ok(r, exp))

    def describe(self) -> str:
        return f"k={self.K}: {self.expected.inferred_triples()} triples after inference, {4 * self.K} robots, {2 * self.K} activities"


# -- query: one warm frozen union graph, parse_query + evaluate per op --------------


class Query(Workload):
    name = "query"
    K = 10
    POOL = 256  # distinct sampled patterns per run
    # Sampled path patterns (~0.1-0.3 ms, 2, 3 and 4 triples in turn) are 73 %
    # of ops and hold the median. The packaged queries follow; cq6 (560 rows,
    # ~6 ms) is the top 2 %, so p99 sits at the middle of its band.

    def __init__(self, *args):
        super().__init__(*args)
        self.kg = scaled_kg(self.K, self.seed, self.root)
        self.expected = Expected(self.pinned, self.kg.ids)
        self.packaged = {
            path.stem: path.read_text(encoding="utf-8") for path in sorted((self.root / QUERIES).glob("*.rq"))
        }
        self.weights = {"sampled": 72, **{name: 2 if name == "cq6_step_affordances" else 4 for name in self.packaged}}
        self.walk = 0

    def setup_once(self) -> float:
        self.union = None  # free the last one outside the timed region
        start = perf_counter()
        self.union = graph.merge_graphs(
            [turtle.parse_turtle(self.kg.activities), turtle.parse_turtle(self.kg.robots)]
        ).freeze()
        return perf_counter() - start

    def check_setup(self) -> None:
        union = self.union
        report = schema.validate(schema.infer_types(union))
        if not report.ok or len(union) != self.pinned["triples_per_copy"] * self.K:
            raise SetupError(f"query: k={self.K} graph has {len(report.violations)} violations, "
                             f"{len(union)} triples")
        self.triples = set(union)
        self.walks = self._sample_walks(union)

    def _sample_walks(self, union) -> list[tuple[str, list, tuple]]:
        """Path-shaped patterns of 2-4 triples, each with one constant node.

        The constant is a node of one copy (an ``https://example.org/`` IRI
        or a label), never a shared vocabulary term, so each answer stays
        within one copy and the pool costs the same whatever the seed.

        Returns ``(query text, slots, source row)``: a slot is the constant
        term or the variable name of one node of the path, and the source
        row is the walk the pattern was cut from, which must be an answer.
        """
        out_edges: dict = {}
        for t in union:
            out_edges.setdefault(t.s, []).append(t)
        starts = sorted((t for t in union if t.s.value.startswith(EX)), key=lambda t: t.n3())
        rng = random.Random(f"walks:{self.seed}")
        walks = []
        while len(walks) < self.POOL:
            length = 2 + len(walks) % 3
            path = [rng.choice(starts)]
            while len(path) < length and path[-1].o in out_edges:
                path.append(rng.choice(out_edges[path[-1].o]))
            if len(path) < length:
                continue
            nodes = [path[0].s] + [t.o for t in path]
            local = [i for i, n in enumerate(nodes) if n.is_literal or n.value.startswith(EX)]
            fixed = rng.choice(local)
            slots = [n if i == fixed else f"v{i}" for i, n in enumerate(nodes)]
            text_of = lambda slot: slot.n3() if isinstance(slot, graph.Term) else f"?{slot}"  # noqa: E731
            where = " . ".join(f"{text_of(slots[i])} {t.p.n3()} {text_of(slots[i + 1])}" for i, t in enumerate(path))
            names = [slot for slot in slots if isinstance(slot, str)]
            text = f"SELECT DISTINCT {' '.join('?' + n for n in names)} WHERE {{ {where} . }}"
            source = tuple(n for i, n in enumerate(nodes) if i != fixed)
            walks.append((text, [(slots[i], t.p, slots[i + 1]) for i, t in enumerate(path)], source))
        return walks

    def _walk_ok(self, result, pattern, source) -> bool:
        """Every row fits the pattern, and the walk it came from is a row."""
        q, rows = result
        names = [slot for triple in pattern for slot in triple if isinstance(slot, str)]
        if list(q.projection) != list(dict.fromkeys(names)):
            return False
        found = False
        for row in rows:
            found = found or tuple(row[name] for name in q.projection) == source
            for s, p, o in pattern:
                s, o = (row[x] if isinstance(x, str) else x for x in (s, o))
                if graph.Triple(s, p, o) not in self.triples:
                    return False
        return found

    def make_op(self, kind: str, nth: int) -> Op:
        union = self.union

        def run(text):
            q = query.parse_query(text)
            return q, query.evaluate(q, union)

        if kind == "sampled":
            text, path, source = self.walks[self.walk % len(self.walks)]
            self.walk += 1
            return Op(kind, lambda: run(text), lambda r: self._walk_ok(r, path, source))
        cid = self.rng.choice(self.kg.ids)
        text = rename_copy(self.packaged[kind], cid)
        columns, rows = self.expected.query(kind, cid)

        def check(result) -> bool:
            q, solutions = result
            got = sorted(tuple(cell_text(s[name]) for name in q.projection) for s in solutions)
            return list(q.projection) == columns and got == rows

        return Op(kind, lambda: run(text), check)

    def describe(self) -> str:
        return f"k={self.K}: {self.pinned['triples_per_copy'] * self.K} triples, {self.POOL} sampled patterns + 7 packaged queries"


# -- cold: one in-process CLI call per op, on a fixed pool of written KG files ------

IMPORT_PROBE = "import time; t = time.perf_counter(); import ontobot.cli; print(time.perf_counter() - t)"


def import_seconds(root: Path) -> float:
    """Wall time of ``import ontobot.cli`` in a fresh interpreter.

    The child may write bytecode, so after the first call every import
    reads cached bytecode, as an installed package does.
    """
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=root, env=env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip())


def call_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


# k -> (distinct file pairs in the cold pool, ops per command per block)
COLD_LEVELS = {1: (3, 3), 2: (2, 5), 4: (1, 2)}
COLD_COMMANDS = ("validate", "cq1", "cq2", "cq3", "cq4", "cq5", "cq6", "matrix", "query")


class Cold(Workload):
    name = "cold"
    # k=1 ops (~10 ms) are the lowest 30 %, k=2 (~20 ms) spans 30-80 % and
    # holds the median, k=4 (~40 ms) is the top 20 % and holds p95.
    weights = {f"{c}@{k}": n for k, (_, n) in COLD_LEVELS.items() for c in COLD_COMMANDS}
    tail_percentile = 95.0

    def __init__(self, *args):
        super().__init__(*args)
        self.pool: dict[int, list[tuple[Expected, str, str, dict]]] = {}
        self.query_turn = 0
        self.workdir.mkdir(parents=True, exist_ok=True)
        for k, (pairs, _) in COLD_LEVELS.items():
            self.pool[k] = []
            for i in range(pairs):
                kg = scaled_kg(k, self.seed * 100 + i, self.root)
                stem = self.workdir / f"k{k}-{i}"
                files = {}
                for part in ("activities", "robots"):
                    files[part] = f"{stem}-{part}.ttl"
                    Path(files[part]).write_text(getattr(kg, part), encoding="utf-8")
                queries = {}
                for path in sorted((self.root / QUERIES).glob("*.rq")):
                    cid = self.rng.choice(kg.ids)
                    target = f"{stem}-{path.stem}.rq"
                    Path(target).write_text(rename_copy(path.read_text(encoding="utf-8"), cid), encoding="utf-8")
                    queries[path.stem] = (target, cid)
                self.pool[k].append((Expected(self.pinned, kg.ids), files["activities"], files["robots"], queries))

    def setup_once(self) -> float:
        return import_seconds(self.root)

    def make_op(self, kind: str, nth: int) -> Op:
        command, k = kind.split("@")
        rng = self.rng
        exp, activities, robots, queries = rng.choice(self.pool[int(k)])
        fmt = FORMATS[nth % len(FORMATS)]
        activity, robot = ACTIVITIES[nth % 2], ROBOTS[nth % len(ROBOTS)]
        cid, robot_cid = rng.choice(exp.ids), rng.choice(exp.ids)
        label, robot_label = f"{activity} {cid}", f"{robot} {robot_cid}"
        kg_args = ["-k", activities, "-k", robots, "-o", fmt]

        if command == "validate":
            want = f"OK: {exp.inferred_triples()} triples, 0 violations, 0 warnings\n"
            return Op(kind, lambda: call_cli(["validate", activities, robots]), lambda r: r == (0, want))

        if command == "query":
            name = sorted(queries)[self.query_turn % len(queries)]
            self.query_turn += 1
            path, qcid = queries[name]
            columns, rows = exp.query(name, qcid)
            argv = ["query", *kg_args, "-f", path]
            return Op(kind, lambda: call_cli(argv), lambda r: _table_is(r, fmt, columns, rows))

        if command == "cq1":
            argv = ["cq", "1", *kg_args, "--activity", label]
            return Op(kind, lambda: call_cli(argv),
                      lambda r: _table_is(r, fmt, ["object", "affordance"], exp.cq1(activity, cid)))
        if command == "cq2":
            iri = rename_cell(self.pinned["activities"][activity]["iri"], cid)
            rows = [[iri, *row] for row in exp.cq2(activity, cid)]
            argv = ["cq", "2", *kg_args, "--activity", label]
            return Op(kind, lambda: call_cli(argv),
                      lambda r: _table_is(r, fmt, ["activity", "procedure", "step", "action"], rows, ordered=True))
        if command == "cq3":
            rows = [[label, aff] for aff in exp.cq3(activity)]
            argv = ["cq", "3", *kg_args, "--activity", label]
            return Op(kind, lambda: call_cli(argv), lambda r: _table_is(r, fmt, ["activity", "affordance"], rows))
        if command == "cq4":
            rows = [[robot_name] for _, robot_name in exp.cq4(activity)]
            argv = ["cq", "4", *kg_args, "--activity", label]
            return Op(kind, lambda: call_cli(argv), lambda r: _table_is(r, fmt, ["robot"], rows))
        if command == "cq5":
            labels = ", ".join(sorted(f"{a} {c}" for c in exp.ids for a in ACTIVITIES))
            want = [[robot_label, labels, plain(exp.cq5(robot))]]
            argv = ["cq", "5", *kg_args, "--robot", robot_label]
            return Op(kind, lambda: call_cli(argv),
                      lambda r: _table_is(r, fmt, ["robot", "activities", "achievable"], want, sort_cell=1))
        if command == "cq6":
            argv = ["cq", "6", *kg_args, "--robot", robot_label, "--activity", label]
            return Op(kind, lambda: call_cli(argv),
                      lambda r: _table_is(r, fmt, ["step", "required", "missing", "achievable"],
                                          exp.cq6(robot, activity, cid)))
        argv = ["cq", "6", *kg_args, "--matrix"]
        return Op(kind, lambda: call_cli(argv), lambda r: _matrix_table_is(r, fmt, exp))

    def describe(self) -> str:
        sizes = ", ".join(
            f"k={k}: {self.pinned['triples_per_copy'] * k} triples x{pairs} pairs" for k, (pairs, _) in COLD_LEVELS.items()
        )
        return f"pool of written KG pairs ({sizes})"


def _table_is(result, fmt: str, columns: list[str], rows: list, ordered: bool = False, sort_cell: int | None = None) -> bool:
    code, text = result
    if code != 0:
        return False
    got_columns, got = parse_output(text, fmt)
    want = [list(row) for row in rows]
    if sort_cell is not None:
        for row in got:
            row[sort_cell] = ", ".join(sorted(row[sort_cell].split(", ")))
    if not ordered:
        got, want = sorted(got), sorted(want)
    return got_columns == columns and got == want


def _matrix_table_is(result, fmt: str, exp: Expected) -> bool:
    code, text = result
    if code != 0:
        return False
    columns, rows = parse_output(text, fmt)
    robots, steps = exp.matrix_size()
    if columns[:2] != ["activity", "step"] or len(columns) != 2 + robots or len(rows) != steps:
        return False
    return all(
        cell == plain(exp.matrix_cell(row[1], robot))
        for row in rows
        for robot, cell in zip(columns[2:], row[2:])
    )


WORKLOADS = {w.name: w for w in (Cold, Ask, Query)}
