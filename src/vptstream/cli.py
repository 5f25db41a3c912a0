"""Command-line front end: validate/reduce machine files, stream-evaluate
nested-word input, run the streamability checks, enumerate small domains, and
dump per-symbol memory telemetry.

Exit codes, everywhere: 0 accept/clean, 1 reject/violation, 2 usage/parse.
"""

from __future__ import annotations

import csv
import re
import sys
from contextlib import nullcontext
from dataclasses import replace
from typing import Callable, Iterable, Iterator, NoReturn, Optional, TextIO

import click

from . import machines
from .delay_algebra import DelayPair, Word
from .nested_words import UnknownSymbol
from .streamability import (
    FstTwinWitness,
    Outcome,
    SearchBounds,
    Unbounded,
    Verdict,
    VptTwinWitness,
    check_bm,
    check_htp,
    check_mtp,
    classify_streamability,
)
from .streaming_eval import (
    EvalDag,
    EvalDiagnostic,
    EvalState,
    NoInitialStates,
    RunConflict,
    finish,
    memory_snapshot,
    start,
    step,
)
from .vpt_core import (
    CounterExample,
    NotFunctionalWitness,
    ParseError,
    ValidationError,
    Vpt,
    _FUNCTIONAL_PROBE_LEN,
    check_functional_bounded,
    enumerate_domain,
    parse_vpt,
    reduce,
    reduce_with_map,
    serialize_vpt,
)

TELEMETRY_COLUMNS = ("pos", "symbol", "hc", "nodes", "edges",
                     "label_tokens", "out_neq", "emitted")

def _telemetry_row(state: EvalState) -> tuple:
    """The memory snapshot after the last step, in TELEMETRY_COLUMNS order."""
    r = memory_snapshot(state)
    return (r.position, r.symbol, r.hc, r.node_count, r.edge_count,
            r.label_tokens_total, r.out_neq, r.emitted_total)


def _load(path: str) -> Vpt:
    """A filesystem path, or builtin:NAME for a bundled machine."""
    if path.startswith("builtin:"):
        name = path[len("builtin:"):]
        try:
            return machines.load(name)
        except KeyError as exc:
            raise click.UsageError(str(exc.args[0]))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        click.echo(f"{path}: {exc}", err=True)
        sys.exit(2)
    try:
        return parse_vpt(text)
    except ParseError as exc:
        click.echo(f"{path}:{exc.line}: {exc.reason}", err=True)
        sys.exit(2)
    except ValidationError as exc:
        for error in exc.errors:
            click.echo(f"{path}: {error}", err=True)
        sys.exit(2)


def _join(word: Iterable[str]) -> str:
    text = " ".join(word)
    return text if text else "-"


def _cat(word: Iterable[str]) -> str:
    text = "".join(word)
    return text if text else "-"


def _not_functional(conflict: CounterExample | NotFunctionalWitness) -> NoReturn:
    """Print the conflict in the one wording `eval`, `check` and `enum` share,
    and exit 1."""
    click.echo(f"machine is not functional: input {_join(conflict.word)} has "
               f"outputs {_join(conflict.out1)} and {_join(conflict.out2)}",
               err=True)
    sys.exit(1)


@click.group()
def main() -> None:
    """Streaming evaluation and streamability analysis of visibly pushdown
    transducers over nested words."""


# ---------------------------------------------------------------------------
# validate

@main.command()
@click.argument("path")
def validate(path: str) -> None:
    """Parse PATH and check every machine invariant."""
    _load(path)
    click.echo("ok")


# ---------------------------------------------------------------------------
# eval

def _token_stream(handle: TextIO, chars: bool, xml: bool) -> Iterator[str]:
    if xml:
        tag = re.compile(r"<(/?)([^<>\s]+)\s*>")
        for line in handle:
            pos = 0
            for match in tag.finditer(line):
                for ch in line[pos:match.start()]:
                    if not ch.isspace():
                        yield ch
                yield ("/" + match.group(2)) if match.group(1) else match.group(2)
                pos = match.end()
            for ch in line[pos:]:
                if not ch.isspace():
                    yield ch
        return
    for line in handle:
        if chars:
            yield from line.rstrip("\r\n")
        else:
            yield from line.split()


class _Emitter:
    """Space-separated tokens, streamed as they become known."""

    def __init__(self, out: TextIO):
        self.out = out
        self.any = False

    def emit(self, fragment: Word) -> None:
        if not fragment:
            return
        self.out.write((" " if self.any else "") + " ".join(fragment))
        self.any = True
        self.out.flush()

    def close(self) -> None:
        if self.any:
            self.out.write("\n")
            self.out.flush()


def _start_live(vpt: Vpt, factorize: bool) -> tuple[EvalState, dict[str, str],
                                                    dict[str, str]]:
    """The evaluator over the live part of ``vpt``, its reduction, plus the
    maps from the reduction's state and stack-symbol names to those of
    ``vpt``.  No run of the reduction is dead, so the evaluator emits the
    lcp of the live runs' outputs and its conflict check is exact on a
    functional machine.  A machine with an initial state but an empty
    domain reduces to one with none: it starts with no run, so that every
    input reads as a rejection."""
    live, states, symbols = reduce_with_map(vpt)
    state = start(live if live.initial else vpt, factorize=factorize)
    if not live.initial:
        state.dag = EvalDag()
    return state, states, symbols


def _stream(vpt: Vpt, factorize: bool, symbols: Iterable[str],
            emit: Callable[[Word], None], writer,
            end: Callable[[], None] = lambda: None) -> None:
    """Step the evaluator over the live part of ``vpt`` through ``symbols``,
    handing every fragment to ``emit`` and, given a csv ``writer``, one
    telemetry row per symbol after the header; then call ``end``, which
    ends the output, whether the input is accepted or not.  Rejection, and
    an evaluator error (no initial state, or two runs that disagree on
    their output), then print one stderr line, in the machine's own names,
    and exit 1."""
    try:
        state, state_names, symbol_names = _start_live(vpt, factorize)
        if writer:
            writer.writerow(TELEMETRY_COLUMNS)
        position = 0
        for position, symbol in enumerate(symbols, 1):
            try:
                fragment = step(state, symbol)
            except UnknownSymbol:
                break
            emit(fragment)
            if writer:
                writer.writerow(_telemetry_row(state))
            if state.reject_position is not None:
                position = state.reject_position
                break
        else:
            tail = finish(state)
            if tail is not None:
                emit(tail)
                end()
                return
            position, symbol = state.reject_position or position, "<end>"
        problem = f"reject at position {position} (symbol {symbol!r})"
    except RunConflict as exc:
        q, gamma, *rest = exc.args
        problem = str(RunConflict(state_names[q], symbol_names.get(gamma), *rest))
    except (NoInitialStates, EvalDiagnostic) as exc:
        problem = str(exc)
    end()
    click.echo(problem, err=True)
    sys.exit(1)


@main.command("eval")
@click.argument("path")
@click.option("--no-factorize", is_flag=True,
              help="Keep all output on the run graph until the end of input.")
@click.option("--telemetry", "telemetry_path", type=click.Path(writable=True),
              help="Write one CSV row of memory metrics per input symbol.")
@click.option("--chars", is_flag=True,
              help="Treat each character of each stdin line as one symbol.")
@click.option("--xml", is_flag=True,
              help="Tokenize stdin as <a> → call a, </a> → return /a, "
                   "text characters → internals.")
@click.option("--unsafe", is_flag=True,
              help="Skip the bounded functionality pre-check.")
def eval_cmd(path: str, no_factorize: bool, telemetry_path: Optional[str],
             chars: bool, xml: bool, unsafe: bool) -> None:
    """Evaluate the machine at PATH over the nested word on standard input,
    emitting output as early as it is determined."""
    if chars and xml:
        raise click.UsageError("--chars and --xml are mutually exclusive")
    vpt = _load(path)
    if not unsafe:
        probe = check_functional_bounded(vpt, _FUNCTIONAL_PROBE_LEN)
        if isinstance(probe, CounterExample):
            _not_functional(probe)

    emitter = _Emitter(sys.stdout)
    symbols = _token_stream(sys.stdin, chars, xml)
    with (open(telemetry_path, "w", encoding="utf-8", newline="")
          if telemetry_path else nullcontext()) as telemetry:
        _stream(vpt, not no_factorize, symbols, emitter.emit,
                csv.writer(telemetry) if telemetry else None, emitter.close)


# ---------------------------------------------------------------------------
# check

def _show_word(label: str, word: tuple) -> str:
    return f"  {label}: {_join(word)}"


def _show_delay(label: str, d: DelayPair) -> str:
    return f"  {label}: {_join(d.left)} | {_join(d.right)}"


def _witness_lines(witness) -> list[str]:
    if isinstance(witness, Unbounded):
        return [
            "  witness: unbounded-height",
            f"  state: {witness.state}",
            _show_word("prefix", witness.prefix),
            _show_word("cycle", witness.cycle),
        ]
    if isinstance(witness, FstTwinWitness):
        return [
            "  witness: diverging-delay-loop",
            _show_word("u1", witness.u1),
            _show_word("u2", witness.u2),
            _show_word("v1", witness.v1),
            _show_word("v2", witness.v2),
            _show_word("w1", witness.w1),
            _show_word("w2", witness.w2),
            _show_delay("delay_before", witness.delay_before),
            _show_delay("delay_after", witness.delay_after),
        ]
    if isinstance(witness, VptTwinWitness):
        lines = ["  witness: diverging-delay-loop"]
        for label, word in zip(("u1", "u2", "u3", "u4"),
                               (witness.u1, witness.u2, witness.u3, witness.u4)):
            lines.append(_show_word(label, word))
        for label, words in (("run1", witness.outs1), ("run2", witness.outs2)):
            lines.append(f"  {label}: " +
                         " , ".join(_cat(w) for w in words))
        lines.append(_show_delay("delay_before", witness.delay_before))
        lines.append(_show_delay("delay_after", witness.delay_after))
        return lines
    return []


def _report(name: str, verdict: Verdict) -> None:
    click.echo(f"{name}: {verdict.outcome.value}")
    if verdict.diagnostics:
        click.echo(f"  note: {verdict.diagnostics}")
    if verdict.bounds is not None:
        b = verdict.bounds
        click.echo(f"  searched: max_height={b.max_height} max_len={b.max_len}")
    for line in _witness_lines(verdict.witness):
        click.echo(line)


@main.command()
@click.argument("path")
@click.option("--property", "prop",
              type=click.Choice(["bm", "htp", "mtp", "all"]), default="all",
              show_default=True)
@click.option("--max-height", type=click.IntRange(min=0),
              default=SearchBounds.max_height, show_default=True)
@click.option("--max-len", type=click.IntRange(min=0),
              default=SearchBounds.max_len, show_default=True)
def check(path: str, prop: str, max_height: int, max_len: int) -> None:
    """Check memory-boundedness properties of the machine at PATH.  Every
    property first runs the bounded functionality probe, up to length
    min(--max-len, 10), and a machine it finds not functional fails."""
    vpt = _load(path)
    bounds = SearchBounds(max_height=max_height, max_len=max_len)
    verdicts: dict[str, Verdict] = {}
    try:
        if prop == "all":
            report = classify_streamability(vpt, bounds)
            click.echo("functional: no conflict up to length "
                       f"{report.functional.max_len}")
            verdicts = {"bm": report.bm, "htp": report.hbm, "mtp": report.obm}
        else:
            # the probe classify_streamability runs first
            probe = check_functional_bounded(vpt, min(max_len, _FUNCTIONAL_PROBE_LEN))
            if isinstance(probe, CounterExample):
                _not_functional(probe)
            if prop == "bm":
                verdicts = {"bm": check_bm(vpt)}
            else:
                search = check_htp if prop == "htp" else check_mtp
                verdicts = {prop: search(vpt, bounds)}
    except NotFunctionalWitness as exc:
        _not_functional(exc)
    for name in verdicts:
        _report(name, verdicts[name])
    if any(v.outcome is Outcome.VIOLATED for v in verdicts.values()):
        sys.exit(1)


# ---------------------------------------------------------------------------
# reduce

@main.command("reduce")
@click.argument("path")
@click.argument("out_path")
def reduce_cmd(path: str, out_path: str) -> None:
    """Write a trimmed machine (every reachable configuration can still
    accept) equivalent to the one at PATH.  A machine with an initial state
    but an empty domain reduces to one with no state; it is written with its
    initial states and no rule instead, so that ``eval`` of the written file
    rejects at the first symbol as it does on PATH, where a file with no
    initial state is an error."""
    vpt = _load(path)
    reduced = reduce(vpt)
    if vpt.initial and not reduced.initial:
        reduced = replace(reduced, states=vpt.initial, initial=vpt.initial)
    text = serialize_vpt(reduced)
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)


# ---------------------------------------------------------------------------
# enum

@main.command("enum")
@click.argument("path")
@click.option("--max-len", type=click.IntRange(min=0), default=8,
              show_default=True)
def enum_cmd(path: str, max_len: int) -> None:
    """List accepted words up to --max-len with their outputs, one
    `word output` pair per line (symbols concatenated, `-` for empty)."""
    vpt = _load(path)
    try:
        domain = enumerate_domain(vpt, max_len)
    except NotFunctionalWitness as exc:
        _not_functional(exc)
    for word, out in domain:
        click.echo(f"{_cat(word)} {_cat(out)}")


# ---------------------------------------------------------------------------
# bench

def _family_word(vpt: Vpt, family: str, n: int) -> list[str]:
    calls = sorted(vpt.alphabet.calls)
    rets = sorted(vpt.alphabet.returns)
    if not calls or not rets:
        raise click.UsageError("machine has no call/return symbols to generate")
    if family == "cnrn":
        return [calls[0]] * n + [rets[0]] * n
    if len(rets) < 2:
        raise click.UsageError(
            "family ccnrnrp needs a second return symbol")
    return [calls[0]] + [calls[0]] * n + [rets[0]] * n + [rets[1]]


@main.command()
@click.argument("path")
@click.option("--family", type=click.Choice(["cnrn", "ccnrnrp", "custom"]),
              required=True)
@click.option("--n-max", type=int, default=100, show_default=True,
              help="Generate the family word at this size (ignored by custom).")
def bench(path: str, family: str, n_max: int) -> None:
    """Stream one generated (or custom, from stdin) input through the
    evaluator and print the telemetry CSV on standard output."""
    vpt = _load(path)
    if family == "custom":
        symbols: Iterable[str] = _token_stream(sys.stdin, False, False)
    else:
        if n_max < 1:
            raise click.UsageError("--n-max must be at least 1")
        symbols = _family_word(vpt, family, n_max)

    _stream(vpt, True, symbols, lambda fragment: None, csv.writer(sys.stdout))


if __name__ == "__main__":
    main()
