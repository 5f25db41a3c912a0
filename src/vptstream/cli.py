"""Command-line front end: validate/reduce machine files, stream-evaluate
nested-word input, run the streamability checks, enumerate small domains, and
dump per-symbol memory telemetry.

Exit codes, everywhere: 0 accept/clean, 1 reject/violation, 2 usage/parse.
"""

from __future__ import annotations

import csv
import re
import sys
from typing import Iterable, Iterator, Optional, TextIO

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
from .streaming_eval import EvalState, finish, memory_snapshot, start, step
from .vpt_core import (
    CounterExample,
    NotFunctionalWitness,
    ParseError,
    ValidationError,
    Vpt,
    check_functional_bounded,
    enumerate_domain,
    parse_vpt,
    reduce,
    serialize_vpt,
)

TELEMETRY_COLUMNS = ("pos", "symbol", "hc", "nodes", "edges",
                     "label_tokens", "out_neq", "emitted")

_FUNCTIONAL_PROBE_LEN = 8


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
        for token in fragment:
            self.out.write((" " if self.any else "") + token)
            self.any = True
        self.out.flush()

    def close(self) -> None:
        if self.any:
            self.out.write("\n")
            self.out.flush()


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
            click.echo(
                f"machine is not functional: input {_join(probe.word)} has "
                f"outputs {_join(probe.out1)} and {_join(probe.out2)}",
                err=True)
            sys.exit(1)

    state = start(vpt, factorize=not no_factorize)
    emitter = _Emitter(sys.stdout)
    telemetry = None
    writer = None
    if telemetry_path:
        telemetry = open(telemetry_path, "w", encoding="utf-8", newline="")
        writer = csv.writer(telemetry)
        writer.writerow(TELEMETRY_COLUMNS)

    def reject(position: int, symbol: str) -> None:
        if telemetry:
            telemetry.close()
        click.echo(f"reject at position {position} (symbol {symbol!r})",
                   err=True)
        sys.exit(1)

    position = 0
    try:
        for symbol in _token_stream(sys.stdin, chars, xml):
            position += 1
            try:
                fragment = step(state, symbol)
            except UnknownSymbol:
                reject(position, symbol)
            emitter.emit(fragment)
            if writer:
                writer.writerow(_telemetry_row(state))
            if state.reject_position is not None:
                reject(state.reject_position, symbol)
        tail = finish(state)
        if tail is None:
            reject(state.reject_position or position, "<end>")
        emitter.emit(tail)
        emitter.close()
    finally:
        if telemetry:
            telemetry.close()


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
        click.echo(f"  searched: max_height={b.max_height} "
                   f"max_len={b.max_len} delay_cap={b.delay_cap}")
    for line in _witness_lines(verdict.witness):
        click.echo(line)


@main.command()
@click.argument("path")
@click.option("--property", "prop",
              type=click.Choice(["bm", "htp", "mtp", "all"]), default="all",
              show_default=True)
@click.option("--max-height", type=click.IntRange(min=0), default=6,
              show_default=True)
@click.option("--max-len", type=click.IntRange(min=0), default=24,
              show_default=True)
def check(path: str, prop: str, max_height: int, max_len: int) -> None:
    """Check memory-boundedness properties of the machine at PATH."""
    vpt = _load(path)
    bounds = SearchBounds(max_height=max_height, max_len=max_len)
    verdicts: dict[str, Verdict] = {}
    try:
        if prop == "all":
            report = classify_streamability(vpt, bounds)
            verdicts = {"bm": report.bm, "htp": report.hbm, "mtp": report.obm}
        elif prop == "bm":
            verdicts = {"bm": check_bm(vpt)}
        elif prop == "htp":
            verdicts = {"htp": check_htp(vpt, bounds)}
        else:
            verdicts = {"mtp": check_mtp(vpt, bounds)}
    except NotFunctionalWitness as exc:
        click.echo(f"machine is not functional: input {_join(exc.word)} has "
                   f"outputs {_join(exc.out1)} and {_join(exc.out2)}", err=True)
        sys.exit(1)
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
    accept) equivalent to the one at PATH."""
    vpt = _load(path)
    text = serialize_vpt(reduce(vpt))
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
    for word, out in enumerate_domain(vpt, max_len):
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

    state = start(vpt)
    writer = csv.writer(sys.stdout)
    writer.writerow(TELEMETRY_COLUMNS)
    position = 0
    for symbol in symbols:
        position += 1
        try:
            step(state, symbol)
        except UnknownSymbol:
            click.echo(f"reject at position {position} (symbol {symbol!r})",
                       err=True)
            sys.exit(1)
        writer.writerow(_telemetry_row(state))
        if state.reject_position is not None:
            click.echo(f"reject at position {state.reject_position} "
                       f"(symbol {symbol!r})", err=True)
            sys.exit(1)
    if finish(state) is None:
        click.echo(f"reject at position {position} (end of input)", err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
