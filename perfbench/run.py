"""Benchmark of ontobot: three closed-loop workloads with every answer checked.

Run from the repository root::

    python3 perfbench/run.py --workload ask --seed 1 --seconds 10 --trace 0

One client in one process sends its next op when the last one returns.
``--trace 0`` prints the end-to-end metrics of the workload; ``--trace 1``
runs every workload briefly with spans around the program's public
functions, plus a growth sweep at k = 1, 10 and 50, and prints the
per-layer metrics. The last line of output is one JSON object.
``--self-test`` shows that a wrong expected answer is counted as a failure.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = {"cold": 21, "ask": 9, "query": 9}
WARMUP_OPS = 20
LADDER = (99.9, 99.0, 95.0, 90.0, 50.0)
SWEEP = ((1, 9), (10, 5), (50, 3))  # (k, repeats)
CALIBRATE_EVERY_MS = 100.0


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(latencies: list[float], percentile: float) -> tuple[float, float, int]:
    """Nearest-rank percentile, lowered along LADDER until 10 samples lie beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in (q for q in LADDER if q <= percentile):
        rank = max(1, math.ceil(p / 100 * n))
        if n - rank >= 10 or p == LADDER[-1]:
            return ordered[rank - 1], p, n - rank
    raise AssertionError("unreachable")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _reference_kernel() -> int:
    """Fixed pure-Python work (dicts, tuples, sets, strings) that uses no program code."""
    index: dict = {}
    for i in range(700):
        index.setdefault((f"s{i % 61}", i % 7), []).append((i, i * 31 % 17))
    total = 0
    for rows in index.values():
        total += len(rows)
        for a, b in rows:
            if b in (1, 3, 5):
                total += a & 7
    evens = {f"s{j}" for j in range(0, 61, 2)}
    return total + len({key[0] for key in index} & evens) + len(sorted(index, key=lambda key: key[1]))


class Calibrator:
    """How much slower than at rest the machine runs right now.

    On a virtual machine that shares its cores, the same code can run up to
    about 1.8x slower for stretches of 0.1-10 s. ``slowdown`` times the
    reference kernel, with the garbage collector paused so the program's
    heap does not enter into it, and divides by ``REST_MS``, the kernel's
    time on an idle 2-vCPU Intel Xeon VM under Python 3.11. Dividing a wall
    time by the slowdown measured around it gives the time at rest. Only
    ratios between runs on one machine matter; ``REST_MS`` sets the scale.
    """

    REST_MS = 0.40
    REPEATS = 5

    def __init__(self):
        self.samples: list[float] = []

    def slowdown(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            for _ in range(self.REPEATS):
                _reference_kernel()
            ms = (perf_counter() - start) * 1e3 / self.REPEATS
        finally:
            if enabled:
                gc.enable()
        self.samples.append(ms / self.REST_MS)
        return self.samples[-1]


class Loop:
    """Latency, CPU time and failures of one closed loop.

    ``wall_ms`` holds each op's wall time; ``rest_ms`` the same divided by
    the calibrated slowdown around it.
    """

    def __init__(self):
        self.calibrator = Calibrator()
        # Compact arrays, so the bookkeeping barely moves peak RSS with throughput.
        self.wall_ms = array("d")
        self.rest_ms = array("d")
        self.cpu_ms = array("d")
        self.attempted = 0
        self.failed = 0
        self.first_failure = ""
        self._pending = 0.0
        self._last = None

    def run(self, op, tracer=None) -> bool:
        if self._last is None:
            self._last = self.calibrator.slowdown()
        if tracer is not None:
            tracer.op, tracer.next_op = tracer.next_op, tracer.next_op + 1
        error = None
        c0 = process_time()
        t0 = perf_counter()
        try:
            result = op.run()
        except Exception:  # a program error is a failed op, not a crashed run
            error = traceback.format_exc(limit=3)
        t1 = perf_counter()
        c1 = process_time()
        if error is None:
            try:
                ok = bool(op.check(result))
            except Exception:
                ok, error = False, traceback.format_exc(limit=3)
        else:
            ok = False
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not self.first_failure:
                self.first_failure = f"{op.kind}: {error or 'wrong answer'}"
        self.wall_ms.append((t1 - t0) * 1e3)
        self.cpu_ms.append((c1 - c0) * 1e3)
        self._pending += self.wall_ms[-1]
        if self._pending >= CALIBRATE_EVERY_MS:
            self.calibrate()
        return ok

    def calibrate(self) -> None:
        """Scale the ops since the last calibration by the slowdown around them."""
        if len(self.rest_ms) == len(self.wall_ms):
            return
        now = self.calibrator.slowdown()
        factor = (self._last + now) / 2
        self.rest_ms.extend(ms / factor for ms in self.wall_ms[len(self.rest_ms):])
        self._last = now
        self._pending = 0.0

    @property
    def ops_per_s(self) -> float:
        done = self.attempted - self.failed
        return done / (sum(self.rest_ms) / 1e3) if self.rest_ms else 0.0

    @property
    def wall_ops_per_s(self) -> float:
        done = self.attempted - self.failed
        return done / (sum(self.wall_ms) / 1e3) if self.wall_ms else 0.0


def repeat_at_rest(calibrator: Calibrator, repeats: int, run) -> tuple[list[float], list[float], object]:
    """Wall and at-rest seconds of ``repeats`` calls of ``run() -> (seconds, result)``, and the last result."""
    wall, rest, result = [], [], None
    before = calibrator.slowdown()
    for _ in range(repeats):
        seconds, result = run()
        after = calibrator.slowdown()
        wall.append(seconds)
        rest.append(seconds / ((before + after) / 2))
        before = after
    return wall, rest, result


def timed_setup(workload, repeats: int, calibrator: Calibrator) -> tuple[list[float], list[float]]:
    """Wall and at-rest seconds of ``repeats`` set-ups, after one untimed warm-up."""
    workload.setup_once()  # compiles bytecode and fills caches, as a second start would find them
    wall, rest, _ = repeat_at_rest(calibrator, repeats, lambda: (workload.setup_once(), None))
    workload.check_setup()
    return wall, rest


def measure(workload, seconds: float, tracer=None) -> tuple[Loop, Loop, dict]:
    """Warm up, then run whole blocks until ``seconds`` have passed.

    Returns the warm-up loop, the timed loop, and the counter deltas and
    first span index of the timed part when traced.
    """
    blocks = workload.blocks()
    warm = Loop()
    for op in next(blocks)[:WARMUP_OPS]:
        warm.run(op, tracer)
    gc.collect()
    timed = Loop()
    before = dict(tracer.counts) if tracer else {}
    first_span = len(tracer.spans) if tracer else 0
    first_op = tracer.next_op if tracer else 0
    deadline = perf_counter() + seconds
    for block in blocks:
        for op in block:
            timed.run(op, tracer)
        if perf_counter() >= deadline:
            break
    timed.calibrate()
    marks = {}
    if tracer:
        marks = {
            "counts": {k: tracer.counts[k] - before[k] for k in before},
            "first_span": first_span,
            "first_op": first_op,
        }
    return warm, timed, marks


def _print(line: str = "") -> None:
    print(line, flush=True)


# -- untraced run: end-to-end metrics -----------------------------------------------


def end_to_end(name: str, seed: int, seconds: float) -> dict:
    from answers import load_pinned
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, load_pinned(), ROOT, WORK / f"{name}-{seed}")
    setup_wall, setup_rest = timed_setup(workload, SETUP_REPEATS[name], Calibrator())
    warm, loop, _ = measure(workload, seconds)
    value, p, beyond = tail(loop.rest_ms, workload.tail_percentile)
    wall_tail, _, _ = tail(loop.wall_ms, p)
    attempted, failed = warm.attempted + loop.attempted, warm.failed + loop.failed
    metrics = {
        "ops_per_s": (loop.ops_per_s, "1/s", loop.wall_ops_per_s),
        "latency_p50_ms": (median(loop.rest_ms), "ms", median(loop.wall_ms)),
        "latency_tail_ms": (value, "ms", wall_tail),
        "setup_s": (median(setup_rest), "s", median(setup_wall)),
        "peak_rss_mb": (peak_rss_mb(), "MB", None),
    }
    slowdown = median(loop.calibrator.samples)
    _print(f"workload {name}: {workload.describe()}; closed loop, 1 client, seed {seed}")
    _print(f"  {loop.attempted} timed ops in {sum(loop.wall_ms) / 1e3:.2f} s of program time, "
           f"after {warm.attempted} warm-up ops; machine slowdown median {slowdown:.3f}")
    _print(f"  {'metric':<16} {'at rest':>12}      {'wall clock':>12}")
    for metric, (v, unit, wall) in metrics.items():
        note = ""
        if metric == "latency_tail_ms":
            note = f"  (p{p:g}, {beyond} samples beyond it, n={len(loop.rest_ms)})"
        elif metric == "setup_s":
            note = f"  (median of {len(setup_rest)})"
        wall_text = f"{wall:12.4f}" if wall is not None else " " * 12
        _print(f"  {metric:<16} {v:12.4f} {unit:<4} {wall_text}{note}")
    _print(f"  {'fail_ratio':<16} {failed / attempted:12.4f}      ({failed} of {attempted} ops failed)")
    if failed:
        _print(f"  first failure: {warm.first_failure or loop.first_failure}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, _) in metrics.items()},
    }


# -- traced run: per-layer metrics ----------------------------------------------------


def sweep(seed: int, pinned: dict) -> tuple[dict, int, int]:
    """At-rest median times of five calls at k = 1, 10 and 50, untraced."""
    import ontobot.query as query
    import ontobot.reasoner as reasoner
    import ontobot.turtle as turtle
    from answers import Expected, matrix_ok
    from kg import QUERIES, cell_text, scaled_kg

    calibrator = Calibrator()

    def timed(repeats, fn):
        def run():
            start = perf_counter()
            result = fn()
            return perf_counter() - start, result

        _, rest, result = repeat_at_rest(calibrator, repeats, run)
        return median(rest) * 1e3, result

    out: dict[str, dict[int, float]] = {}
    attempted = failed = 0
    cq6_text = (ROOT / QUERIES / "cq6_step_affordances.rq").read_text(encoding="utf-8")
    for k, repeats in SWEEP:
        kg = scaled_kg(k, seed, ROOT)
        exp = Expected(pinned, kg.ids)
        label = f"Prepare breakfast {kg.ids[0]}"
        out.setdefault("parse_turtle", {})[k], _ = timed(repeats, lambda: turtle.parse_turtle(kg.activities))
        graphs = [turtle.parse_turtle(kg.activities), turtle.parse_turtle(kg.robots)]
        out.setdefault("load", {})[k], kb = timed(repeats, lambda: reasoner.KnowledgeBase.load(*graphs))
        out.setdefault("capable_robots", {})[k], robots = timed(repeats, lambda: kb.capable_robots(label))
        out.setdefault("feasibility_matrix", {})[k], matrix = timed(repeats, kb.feasibility_matrix)
        q = query.parse_query(cq6_text)
        out.setdefault("evaluate_cq6", {})[k], rows = timed(repeats, lambda: query.evaluate(q, kb.graph))
        checks = [
            kb.report.ok,
            sorted(cell_text(r) for r in robots) == [r for r, _ in exp.cq4("Prepare breakfast")],
            matrix_ok(matrix, exp),
            len(rows) == len(exp.query("cq6_step_affordances", 0)[1]),
        ]
        attempted += len(checks)
        failed += checks.count(False)
    return out, attempted, failed


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


class Phase:
    """One workload of the traced run: a traced set-up, then an untraced and a traced loop."""

    def __init__(self, workload, tracer, seconds: float):
        calibrator = Calibrator()
        first = len(tracer.spans)
        tracer.op = -1  # set-up spans belong to no op
        tracer.install()
        try:
            _, self.setup_rest = timed_setup(workload, SETUP_REPEATS[workload.name], calibrator)
        finally:
            tracer.remove()
        self.setup_slowdown = median(calibrator.samples)
        self_ms = tracer.self_ms()
        self.setup_spans = [(s, self_ms[i]) for i, s in enumerate(tracer.spans[first:], first) if s is not None]
        self.loops = list(measure(workload, seconds)[:2])
        self.plain = self.loops[-1]
        tracer.install()
        try:
            warm, self.traced, marks = measure(workload, seconds, tracer)
        finally:
            tracer.remove()
        self.loops += [warm, self.traced]
        self.counts = marks["counts"]
        first_op, ops = marks["first_op"], self.traced.attempted
        # At-rest scaling of each op's spans: the op's wall time over its at-rest time.
        factor = {first_op + i: w / r for i, (w, r) in enumerate(zip(self.traced.wall_ms, self.traced.rest_ms))}
        self_ms = tracer.self_ms()
        self.spans = [
            (s, s.ms / factor[s.op], self_ms[i] / factor[s.op])
            for i, s in enumerate(tracer.spans[marks["first_span"]:], marks["first_span"])
            if s is not None and first_op <= s.op < first_op + ops
        ]

    def per_call(self, name: str, top_level: bool = False) -> float:
        return median(ms for s, ms, _ in self.spans if s.name == name and (s.parent == -1 or not top_level))

    def per_op(self, name: str, own: bool = False) -> float:
        """Median over ops of the time spent in ``name`` (its self time if ``own``)."""
        totals: dict[int, float] = {}
        for s, ms, self_ms in self.spans:
            if s.name == name:
                totals[s.op] = totals.get(s.op, 0.0) + (self_ms if own else ms)
        return median(totals.values())

    def per_traced_op(self, count: float) -> float:
        return count / self.traced.attempted


def per_layer(seed: int, seconds: float, requested: str) -> dict:
    from answers import load_pinned
    from tracing import Tracer
    from workloads import WORKLOADS

    pinned = load_pinned()
    share = max(1.0, seconds / (2 * len(WORKLOADS)))
    tracer = Tracer()
    phases = {name: Phase(cls(seed, pinned, ROOT, WORK / f"{name}-{seed}"), tracer, share)
              for name, cls in WORKLOADS.items()}
    cold, ask, q = phases["cold"], phases["ask"], phases["query"]

    parses = [(s, ms) for p in phases.values() for s, ms, _ in p.spans if s.name == "turtle.parse"]
    parsed = sum(s.size for s, _ in parses)
    evaluations = [s for s, _, _ in q.spans if s.name == "query.evaluate"]
    rows = sum(s.size for s in evaluations)
    ask_loads = [own / ask.setup_slowdown for s, own in ask.setup_spans if s.name == "reasoner.load"]
    metrics = {
        "turtle.parse_ms": (cold.per_op("turtle.parse"), "ms"),
        "turtle.us_per_triple": (sum(ms for _, ms in parses) * 1e3 / parsed if parsed else 0.0, "us"),
        "graph.merge_ms": (cold.per_op("graph.merge"), "ms"),
        "graph.match_calls_per_op.ask": (ask.per_traced_op(ask.counts["graph.match"]), "count"),
        "graph.match_calls_per_op.query": (q.per_traced_op(q.counts["graph.match"]), "count"),
        "schema.infer_ms": (cold.per_op("schema.infer"), "ms"),
        "schema.validate_ms": (cold.per_op("schema.validate"), "ms"),
        "schema.inferred_triples": (median(s.size for s, _ in ask.setup_spans if s.name == "schema.infer"), "count"),
        "reasoner.load_self_ms": (median(ask_loads), "ms"),
        **{f"reasoner.cq{n}_ms": (ask.per_call(f"reasoner.cq{n}", top_level=True), "ms") for n in range(1, 7)},
        "reasoner.matrix_ms": (ask.per_call("reasoner.matrix", top_level=True), "ms"),
        "reasoner.label_of_calls_per_op": (ask.per_traced_op(ask.counts["reasoner.label_of"]), "count"),
        "query.parse_ms": (q.per_call("query.parse"), "ms"),
        "query.evaluate_ms": (q.per_call("query.evaluate"), "ms"),
        "query.rows_per_op": (q.per_traced_op(rows), "count"),
        "query.probes_per_row": (sum(s.matches for s in evaluations) / rows if rows else 0.0, "count"),
        "cli.self_ms": (cold.per_op("cli.main", own=True), "ms"),
        "cli.import_ms": (median(cold.setup_rest) * 1e3, "ms"),
    }
    for name, phase in phases.items():
        plain, traced = phase.plain, phase.traced
        cpu = sum(plain.cpu_ms) / len(plain.cpu_ms)
        metrics[f"op.cpu_ms.{name}"] = (cpu, "ms")
        metrics[f"op.wait_ms.{name}"] = (sum(plain.wall_ms) / len(plain.wall_ms) - cpu, "ms")
        metrics[f"trace.overhead.{name}"] = (plain.ops_per_s / traced.ops_per_s, "ratio")
        metrics[f"machine.slowdown.{name}"] = (median(plain.calibrator.samples), "ratio")

    growth, sweep_attempted, sweep_failed = sweep(seed, pinned)
    (k_lo, _), (k_mid, _), (k_hi, _) = SWEEP
    for fn, by_k in growth.items():
        for k, ms in by_k.items():
            metrics[f"sweep.{fn}_ms.k{k}"] = (ms, "ms")
        metrics[f"sweep.{fn}.growth"] = (math.log(by_k[k_hi] / by_k[k_mid]) / math.log(k_hi / k_mid), "exponent")
    metrics["src.py_lines"] = (src_lines(), "lines")

    loops = [loop for phase in phases.values() for loop in phase.loops]
    attempted = sum(loop.attempted for loop in loops) + sweep_attempted
    failed = sum(loop.failed for loop in loops) + sweep_failed
    trace_file = WORK / f"trace-{requested}-{seed}.jsonl"
    tracer.dump(trace_file)
    _print(f"traced run, seed {seed}: per workload {share:.1f} s untraced, then {share:.1f} s traced; "
           f"{len(tracer.finished())} spans written to {trace_file.relative_to(ROOT)}")
    _print("  times are at rest (wall time over the calibrated machine slowdown); counts are exact")
    if tracer.absent:
        _print(f"  absent (not wrapped): {', '.join(sorted(set(tracer.absent)))}")
    for metric, (v, unit) in metrics.items():
        _print(f"  {metric:<34} {v:14.4f} {unit}")
    _print(f"  sweep sizes: k={k_lo}, {k_mid}, {k_hi} copies = "
           f"{', '.join(str(pinned['triples_per_copy'] * k) for k, _ in SWEEP)} triples; "
           f"growth = log(t{k_hi} / t{k_mid}) / log({k_hi} / {k_mid})")
    _print(f"  fail_ratio {failed / attempted:.4f} ({failed} of {attempted})")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


# -- self-test -----------------------------------------------------------------


def self_test(seed: int) -> int:
    """A deliberately wrong expected answer must show up as failed ops or a rejected set-up."""
    from answers import load_pinned
    from workloads import SetupError, WORKLOADS

    def wrong_answers(pinned: dict) -> dict:
        pinned["activities"]["Prepare breakfast"]["cq4"].append([":ur3", "UR3"])
        pinned["matrix"]["Serve food"]["HSR"] = True
        pinned["queries"]["cq6_step_affordances"]["rows"].pop()
        return pinned

    def wrong_size(pinned: dict) -> dict:
        pinned["inferred_triples_per_copy"] += 1
        pinned["triples_per_copy"] += 1
        return pinned

    status = 0
    for name, cls in WORKLOADS.items():
        for label, pinned in (("pinned", load_pinned()), ("answers", wrong_answers(load_pinned())),
                              ("size", wrong_size(load_pinned()))):
            workload = cls(seed, pinned, ROOT, WORK / f"{name}-{seed}")
            try:
                timed_setup(workload, 1, Calibrator())
            except SetupError as exc:
                outcome, caught = f"set-up rejected: {exc}", True
            else:
                loop = Loop()
                for op in next(workload.blocks()):
                    loop.run(op)
                outcome, caught = f"{loop.failed:3d} of {loop.attempted} ops failed", loop.failed > 0
            bad = caught != (label != "pinned")
            status |= bad
            _print(f"  {name:<6} {label:<8} {outcome}{'  <-- WRONG' if bad else ''}")
    _print("self-test " + ("passed" if status == 0 else "FAILED"))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("cold", "ask", "query"), default="ask")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ontobot" / "__init__.py").is_file():
        print("perfbench: src/ontobot not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        if args.self_test:
            return self_test(args.seed)
        if args.trace:
            result = per_layer(args.seed, args.seconds, args.workload)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds)
    finally:
        for stale in WORK.glob(f"*-{args.seed}"):
            if stale.is_dir():
                shutil.rmtree(stale, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
