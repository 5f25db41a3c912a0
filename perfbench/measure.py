"""The measured loops and the checks on what they produced.

`stream_document` is `vptstream eval [--telemetry FILE]` on one document: it
calls the CLI's own tokenizer and emitter and the names the `eval` command
uses (`cli.start`, `cli.step`, `cli.memory_snapshot`, `cli.finish`).
`check_machine` is `vptstream check --property all` without the printing:
`cli.classify_streamability` with one fixed `SearchBounds`.  Everything
that checks results runs after the timed region.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from vptstream import cli, streaming_eval, vpt_core
from vptstream.streamability import (
    FstTwinWitness,
    Outcome,
    SearchBounds,
    StreamabilityReport,
    Unbounded,
    VptTwinWitness,
)

import gen
from probe import PROBE_INTERVAL_NS, Slowness
from spans import NoTracer, swapped

NO_TRACER = NoTracer()

# Height 3 is the least at which fig2_t1's MTP witness is found (and about
# one mutant in seven gets an MTP verdict it lacks at height 2); at height 4
# one machine in 300 hit the search's node budget.
CHECK_BOUNDS = SearchBounds(max_height=3, max_len=24)
# Candidates whose classification took longer at the recording commit are
# left out of the pool: about one in fifty, and together they took two
# thirds of the whole pool's time, so a run's figures would follow them.
POOL_COST_CAP_MS = 250.0
CHECK_BLOCKS = 40


# ---------------------------------------------------------------------------
# eval

class CountingStream:
    """Output stream that counts flushes (traced runs only)."""

    def __init__(self, inner):
        self.inner = inner
        self.flushes = 0

    def write(self, text):
        return self.inner.write(text)

    def flush(self):
        self.flushes += 1
        self.inner.flush()


@dataclass
class Streamed:
    elapsed_ns: float        # calibrated, from `start` to the last write
    raw_ns: int
    latencies_ns: list[float]  # calibrated, one per symbol
    fragment_lens: list[int]
    tail_len: int | None     # None: rejected
    flushes: int = 0


def stream_document(vpt, doc: gen.Document, work_dir: Path, telemetry: bool,
                    slowness: Slowness, tracer=NO_TRACER) -> Streamed:
    """Stream one document the way `vptstream eval` does; time it all from
    `start` to the emitter's last write, and each symbol from `step` until
    its fragment is written."""
    source = io.StringIO(doc.text)
    latencies: list[float] = []
    lens: list[int] = []
    elapsed = 0.0
    raw = 0
    segment_first = 0

    def close_segment(began: int) -> int:
        """Calibrate the segment that started at `began`; return the start
        of the next one."""
        nonlocal elapsed, raw, segment_first
        duration = perf_counter_ns() - began
        factor = slowness.after_segment()
        raw += duration
        elapsed += duration / factor
        for k in range(segment_first, len(latencies)):
            latencies[k] /= factor
        segment_first = len(latencies)
        return perf_counter_ns()

    with open(work_dir / "emitted.txt", "w", encoding="utf-8") as out_file, \
            open(work_dir / "telemetry.csv", "w", encoding="utf-8",
                 newline="") as tel_file:
        out = CountingStream(out_file) if tracer is not NO_TRACER else out_file
        segment = perf_counter_ns()
        state = cli.start(vpt)
        emitter = cli._Emitter(out)
        writer = None
        if telemetry:
            writer = csv.writer(tel_file)
            writer.writerow(cli.TELEMETRY_COLUMNS)
        tail = None
        for symbol in tracer.iterate("cli.tokenize",
                                     cli._token_stream(source, False, False)):
            t0 = perf_counter_ns()
            fragment = cli.step(state, symbol)
            emitter.emit(fragment)
            t1 = perf_counter_ns()
            latencies.append(t1 - t0)
            lens.append(len(fragment))
            if writer:
                with tracer.span("cli.telemetry_row"):
                    writer.writerow(dataclasses.astuple(cli.memory_snapshot(state)))
            if state.reject_position is not None:
                break
            if t1 - segment >= PROBE_INTERVAL_NS:
                segment = close_segment(segment)
        else:
            tail = cli.finish(state)
            if tail is not None:
                emitter.emit(tail)
                emitter.close()
        close_segment(segment)
    return Streamed(elapsed, raw, latencies, lens,
                    None if tail is None else len(tail),
                    out.flushes if isinstance(out, CountingStream) else 0)


def verify_document(doc: gen.Document, res: Streamed, work_dir: Path,
                    telemetry: bool) -> str:
    """Empty string when the output, its timing and (with telemetry) the CSV
    match the closed form; otherwise what differs."""
    if res.tail_len is None:
        return f"{doc.family}: rejected after {len(res.fragment_lens)} symbols"
    text = (work_dir / "emitted.txt").read_text(encoding="utf-8")
    if text != " ".join(doc.output) + "\n":
        return f"{doc.family}: emitted output differs from the closed form"
    n = len(doc.symbols)
    if len(res.fragment_lens) != n:
        return f"{doc.family}: {len(res.fragment_lens)} steps for {n} symbols"
    if doc.timing == gen.EXACT:
        if tuple(res.fragment_lens) != doc.profile or res.tail_len:
            return f"{doc.family}: emission timing differs from the closed form"
    elif any(res.fragment_lens[:-1]):
        return f"{doc.family}: emitted before the last symbol settled the output"
    if telemetry:
        return verify_telemetry(doc, res, work_dir)
    return ""


def verify_telemetry(doc: gen.Document, res: Streamed, work_dir: Path) -> str:
    with open(work_dir / "telemetry.csv", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    if tuple(rows[0]) != cli.TELEMETRY_COLUMNS or len(rows) != len(doc.symbols) + 1:
        return f"{doc.family}: telemetry header or row count is wrong"
    height = emitted = 0
    for pos, (row, symbol, flen) in enumerate(
            zip(rows[1:], doc.symbols, res.fragment_lens), start=1):
        height += 1 if symbol == "c" else -1
        emitted += flen
        if (int(row[0]), row[1], int(row[2]), int(row[7])) != (pos, symbol, height, emitted):
            return f"{doc.family}: telemetry row {pos} is wrong: {row}"
    return ""


@dataclass
class EvalRun:
    attempted: int = 0
    failed: int = 0
    samples: int = 0
    flushes: int = 0
    problems: list[str] = field(default_factory=list)
    # per round: symbols/s, step p50 ms, step p99 ms (calibrated), raw symbols/s
    rounds: list[tuple[float, float, float, float]] = field(default_factory=list)

    def median(self, column: int) -> float:
        return statistics.median(r[column] for r in self.rounds) if self.rounds else 0.0


def run_rounds(rounds, vpts, work_dir: Path, telemetry: bool,
               seconds: float | None = None, count: int | None = None,
               tracer=NO_TRACER) -> EvalRun:
    """Closed loop, one document at a time, over whole rounds until
    `seconds` have passed or `count` rounds are done."""
    run = EvalRun()
    slowness = Slowness()
    deadline = perf_counter() + seconds if seconds is not None else None
    while (deadline is None or perf_counter() < deadline) and \
            (count is None or len(run.rounds) < count):
        symbols = elapsed = raw_elapsed = 0
        latencies: list[float] = []
        for doc in next(rounds):
            run.attempted += 1
            tracer.doc = run.attempted
            try:
                res = stream_document(vpts[doc.machine], doc, work_dir, telemetry,
                                      slowness, tracer)
                problem = verify_document(doc, res, work_dir, telemetry)
            except Exception as exc:  # a crash is one failed document
                res, problem = None, f"{doc.family}: {type(exc).__name__}: {exc}"
            if problem:
                run.failed += 1
                run.problems.append(problem)
            if res is not None and res.tail_len is not None:
                symbols += len(doc.symbols)
                raw_elapsed += res.raw_ns
                elapsed += res.elapsed_ns
                latencies += res.latencies_ns
                run.flushes += res.flushes
        if elapsed:
            run.samples += len(latencies)
            lat_ms = [ns / 1e6 for ns in latencies]
            run.rounds.append((symbols / (elapsed / 1e9), quantile(lat_ms, 50, 100),
                               quantile(lat_ms, 99, 100), symbols / (raw_elapsed / 1e9)))
    return run


def counting_pass(rounds, vpts, work_dir: Path) -> tuple[EvalRun, dict]:
    """DAG counts read from public state over the first round, untimed.

    At entry to every `factorize_and_emit`: the dirty-node count and the
    deepest dirty level + 1 (the levels its sweep visits).  After every
    step: the DAG depth; at sampled steps, `memory_snapshot`.  Samples are
    every 16th step, each call directly followed by a return (the local
    height peaks) and the last two steps (pending output peaks)."""
    c = dict(factorize_calls=0, emitting_calls=0, sweep_levels=0, dirty_nodes=0,
             peak_nodes=0, peak_out_neq=0, peak_height=0, peak_label_tokens=0)
    sample: set[int] = set()

    def counted_factorize(original):
        def factorize(dag):
            c["factorize_calls"] += 1
            c["dirty_nodes"] += len(dag.dirty)
            c["sweep_levels"] += max((n.depth for n in dag.dirty), default=-1) + 1
            fragment = original(dag)
            c["emitting_calls"] += bool(fragment)
            return fragment
        return factorize

    def counted_step(original):
        def step(state, symbol):
            fragment = original(state, symbol)
            c["peak_height"] = max(c["peak_height"], state.dag.depth)
            if state.scan.position in sample:
                snap = cli.memory_snapshot(state)
                c["peak_nodes"] = max(c["peak_nodes"], snap.node_count)
                c["peak_out_neq"] = max(c["peak_out_neq"], snap.out_neq)
                c["peak_label_tokens"] = max(c["peak_label_tokens"],
                                             snap.label_tokens_total)
            return fragment
        return step

    def sampled(docs):
        for doc in docs:
            s = doc.symbols
            sample.clear()
            sample.update(p for p in range(1, len(s) + 1) if p % 16 == 0)
            sample.update(p for p in range(1, len(s)) if s[p - 1] == "c" and s[p] != "c")
            sample.update((len(s) - 1, len(s)))
            yield doc

    with swapped(streaming_eval, "factorize_and_emit", counted_factorize), \
            swapped(cli, "step", counted_step):
        run = run_rounds(iter([sampled(next(rounds))]), vpts, work_dir, False, count=1)
    calls = c.pop("factorize_calls")
    emitting = c.pop("emitting_calls")
    counts = {"factorize_calls": calls,
              "emit_ratio": emitting / calls if calls else 0.0, **c}
    return run, counts


# ---------------------------------------------------------------------------
# check

@dataclass
class Checked:
    index: int
    elapsed_ns: float  # calibrated
    raw_ns: int


def check_machine(vpt):
    try:
        return cli.classify_streamability(vpt, CHECK_BOUNDS)
    except vpt_core.NotFunctionalWitness as exc:
        return exc


def check_machines(vpts, rounds, seconds: float, verify, tracer=NO_TRACER) -> list[Checked]:
    """Closed loop over whole rounds of the stratified order (see
    `gen.check_rounds`) until `seconds` have passed.  Each result goes to
    `verify` as soon as it is timed."""
    checked: list[Checked] = []
    slowness = Slowness()
    segment: list[tuple[int, int]] = []
    segment_began = perf_counter_ns()
    deadline = perf_counter() + seconds
    for row in rounds:
        if perf_counter() >= deadline:
            break
        for index in row:
            tracer.doc = index
            t0 = perf_counter_ns()
            try:
                result = check_machine(vpts[index])
            except Exception as exc:  # reported as a failed machine
                result = exc
            t1 = perf_counter_ns()
            segment.append((index, t1 - t0))
            verify(index, result)
            if t1 - segment_began >= PROBE_INTERVAL_NS:
                factor = slowness.after_segment()
                checked += [Checked(i, ns / factor, ns) for i, ns in segment]
                segment = []
                segment_began = perf_counter_ns()
    factor = slowness.after_segment()
    checked += [Checked(i, ns / factor, ns) for i, ns in segment]
    return checked


LETTER = {Outcome.HOLDS: "H", Outcome.VIOLATED: "V",
          Outcome.NO_WITNESS_UP_TO: "N", Outcome.UNKNOWN: "U"}
RANK = {"H": 2, "V": 2, "N": 1, "U": 0}
PROPERTIES = ("bm", "htp", "mtp")


def verdict_code(result) -> str:
    if isinstance(result, vpt_core.NotFunctionalWitness):
        return "NF"
    if isinstance(result, StreamabilityReport):
        return "".join(LETTER[v.outcome] for v in (result.bm, result.hbm, result.obm))
    return "ERR"


def verify_check(vpt, result, recorded: str) -> str:
    """Empty string when the result is no weaker than the recorded one and
    every Violated witness replays; otherwise what is wrong."""
    if isinstance(result, vpt_core.NotFunctionalWitness):
        if recorded != "NF":
            return f"reported not functional, recorded {recorded}"
        outs = vpt_core.naive_outputs(vpt, result.word)
        if result.out1 == result.out2 or not {result.out1, result.out2} <= outs:
            return "non-functionality witness does not replay"
        return ""
    if not isinstance(result, StreamabilityReport):
        return f"{type(result).__name__}: {result}"
    if recorded == "NF":
        return "recorded as not functional, now classified"
    verdicts = (result.bm, result.hbm, result.obm)
    for prop, verdict, old in zip(PROPERTIES, verdicts, recorded):
        new = LETTER[verdict.outcome]
        if {new, old} == {"H", "V"}:
            return f"{prop}: flipped from {old} to {new}"
        if RANK[new] < RANK[old]:
            return f"{prop}: weakened from {old} to {new}"
        if new == "V":
            problem = replay(vpt, verdict.witness)
            if problem:
                return f"{prop}: witness does not replay: {problem}"
        elif new == "H" and old != "H" and verdict.witness is None:
            return f"{prop}: Holds without a certificate"
    return ""


def _delay(u: tuple, v: tuple) -> tuple[tuple, tuple]:
    k = 0
    while k < min(len(u), len(v)) and u[k] == v[k]:
        k += 1
    return u[k:], v[k:]


def _well_nested(word, vpt) -> bool:
    height = 0
    for s in word:
        if s in vpt.alphabet.calls:
            height += 1
        elif s in vpt.alphabet.returns:
            height -= 1
            if height < 0:
                return False
    return height == 0


def _runs(vpt, start, word):
    return vpt_core.step_runs(vpt, start, word)


def replay(vpt, witness) -> str:
    """Re-run a Violated witness with the naive semantics (`step_runs`)."""
    Configuration = vpt_core.Configuration
    if isinstance(witness, Unbounded):
        heights = []
        for k in (1, 2, 3):
            word = witness.prefix + witness.cycle * k
            ends = set()
            for q in vpt.initial:
                ends |= _runs(vpt, Configuration(q, ()), word)
            if not ends:
                return "pumped word has no run"
            heights.append(max(len(cfg.stack) for cfg, _ in ends))
        return "" if heights[0] < heights[1] < heights[2] else "stack does not grow"
    if isinstance(witness, FstTwinWitness):
        # runs of the height-capped machine are runs of the machine itself
        for v, w in ((witness.v1, witness.v2), (witness.w1, witness.w2)):
            loops = set()
            for q in vpt.initial:
                for cfg, out in _runs(vpt, Configuration(q, ()), witness.u1):
                    if out == v and (cfg, w) in _runs(vpt, cfg, witness.u2) \
                            and vpt_core.co_accessible(vpt, cfg):
                        loops.add(cfg)
            if not loops:
                return "a looping run is missing"
        before = _delay(witness.v1, witness.w1)
        after = _delay(witness.v1 + witness.v2, witness.w1 + witness.w2)
        return "" if before != after else "delay does not change"
    if isinstance(witness, VptTwinWitness):
        w = witness
        if not w.u2 + w.u4 or not _well_nested(w.u3, vpt) \
                or not _well_nested(w.u2 + w.u4, vpt):
            return "loop words are not well-nested"
        for init, cfgs, outs in ((w.init1, w.configs1, w.outs1),
                                 (w.init2, w.configs2, w.outs2)):
            a, b, c, d = cfgs
            if init not in vpt.initial or b.state != a.state \
                    or b.stack[:len(a.stack)] != a.stack or c.stack != b.stack \
                    or d.state != c.state or d.stack != a.stack:
                return "configurations do not form the loops"
            cur = Configuration(init, ())
            for word, out, target in zip((w.u1, w.u2, w.u3, w.u4), outs, cfgs):
                if (target, out) not in _runs(vpt, cur, word):
                    return "a segment does not replay"
                cur = target
            if not vpt_core.co_accessible(vpt, d):
                return "end configuration cannot accept"
        v, x = w.outs1, w.outs2
        before = _delay(v[0] + v[2], x[0] + x[2])
        after = _delay(v[0] + v[1] + v[2] + v[3], x[0] + x[1] + x[2] + x[3])
        return "" if before != after else "delay does not change"
    return f"unknown witness type {type(witness).__name__}"


def budget_hit(result) -> bool:
    return isinstance(result, StreamabilityReport) and any(
        "node budget exhausted" in v.diagnostics
        for v in (result.bm, result.hbm, result.obm))


def quantile(values, q: int, n: int) -> float:
    """The q-th of the n-1 cut points of `statistics.quantiles`."""
    return statistics.quantiles(values, n=n)[q - 1]
