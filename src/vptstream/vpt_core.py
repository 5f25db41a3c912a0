"""Visibly pushdown transducers: representation, naive semantics, reduction.

The input symbol's partition class dictates the stack action: calls push one
symbol, returns pop one (checking it), internals leave the stack alone.  Every
rule emits an output word.  ``naive_eval`` and friends implement the
run-enumeration semantics used as the oracle for the streaming evaluator;
``reduce`` rebuilds a machine so that every accessible configuration can still
reach acceptance; ``fst_of`` flattens a machine up to a stack-height bound.

Two per-machine tables serve every later stage.  ``rule_index`` groups the
rules for one-step lookup, and ``moves`` takes one configuration step through
it.  ``well_matched`` holds the well-matched relation (q, q' joined by a
well-nested word) with a witness word per pair, plus the pop targets and
finishing states derived from it; reduction, co-accessibility, the
domain-height test and the twinning loop conditions all read it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple, Optional

from .delay_algebra import Word
from .nested_words import StructuredAlphabet, SymbolKind, classify

InputWord = tuple[str, ...]


class ParseError(ValueError):
    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class ValidationError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


class NotFunctionalWitness(Exception):
    """Two accepting runs on the same input with different outputs."""

    def __init__(self, word: InputWord, out1: Word, out2: Word):
        super().__init__(f"input {' '.join(word) or 'ε'} maps to both "
                         f"{''.join(out1) or 'ε'} and {''.join(out2) or 'ε'}")
        self.word = word
        self.out1 = out1
        self.out2 = out2


class StateExplosion(Exception):
    """A lazily materialized construction exceeded its configuration budget."""


# ---------------------------------------------------------------------------
# Machine types

@dataclass(frozen=True, order=True)
class CallRule:
    src: str
    symbol: str
    out: Word
    push: str
    dst: str


@dataclass(frozen=True, order=True)
class ReturnRule:
    src: str
    symbol: str
    out: Word
    pop: str
    dst: str


@dataclass(frozen=True, order=True)
class InternalRule:
    src: str
    symbol: str
    out: Word
    dst: str


@dataclass(frozen=True)
class Vpt:
    alphabet: StructuredAlphabet
    states: frozenset[str]
    initial: frozenset[str]
    final: frozenset[str]
    stack_alphabet: frozenset[str]
    call_rules: frozenset[CallRule]
    return_rules: frozenset[ReturnRule]
    internal_rules: frozenset[InternalRule]

    def __post_init__(self):
        errors = self._invariant_errors()
        if errors:
            raise ValidationError(errors)

    def _invariant_errors(self) -> list[str]:
        errors = []
        for name, subset in (("initial", self.initial), ("final", self.final)):
            for q in sorted(subset - self.states):
                errors.append(f"{name} state {q!r} is not a declared state")
        for rule in sorted(self.call_rules):
            if rule.symbol not in self.alphabet.calls:
                errors.append(f"call rule on non-call symbol {rule.symbol!r}")
            if rule.push not in self.stack_alphabet:
                errors.append(f"call rule pushes undeclared stack symbol {rule.push!r}")
            errors.extend(self._endpoint_errors(rule))
        for rule in sorted(self.return_rules):
            if rule.symbol not in self.alphabet.returns:
                errors.append(f"return rule on non-return symbol {rule.symbol!r}")
            if rule.pop not in self.stack_alphabet:
                errors.append(f"return rule pops undeclared stack symbol {rule.pop!r}")
            errors.extend(self._endpoint_errors(rule))
        for rule in sorted(self.internal_rules):
            if rule.symbol not in self.alphabet.internals:
                errors.append(f"internal rule on non-internal symbol {rule.symbol!r}")
            errors.extend(self._endpoint_errors(rule))
        return errors

    def _endpoint_errors(self, rule) -> list[str]:
        errors = []
        if rule.src not in self.states:
            errors.append(f"rule references undeclared state {rule.src!r}")
        if rule.dst not in self.states:
            errors.append(f"rule references undeclared state {rule.dst!r}")
        return errors


@dataclass(frozen=True, order=True)
class FstRule:
    src: str
    symbol: str
    out: Word
    dst: str


@dataclass(frozen=True)
class FstMachine:
    alphabet: frozenset[str]
    states: frozenset[str]
    initial: frozenset[str]
    final: frozenset[str]
    rules: frozenset[FstRule]


class Configuration(NamedTuple):
    state: str
    stack: tuple[str, ...] = ()  # bottom ⊥ is the empty tuple


class DConfiguration(NamedTuple):
    state: str
    stack: tuple[str, ...]
    residual: Word


@dataclass(frozen=True)
class MachineMetrics:
    n: int
    gamma: int
    M: int


def metrics(vpt: Vpt) -> MachineMetrics:
    outs = [len(r.out) for r in
            itertools.chain(vpt.call_rules, vpt.return_rules, vpt.internal_rules)]
    return MachineMetrics(n=len(vpt.states), gamma=len(vpt.stack_alphabet),
                          M=max(outs, default=0))


# ---------------------------------------------------------------------------
# Naive (run enumeration) semantics

def initial_dconfigs(vpt: Vpt) -> set[DConfiguration]:
    return {DConfiguration(q, (), ()) for q in vpt.initial}


class RuleIndex(NamedTuple):
    """Rules grouped for one-step lookup, each bucket in ``sorted(rules)``
    order: calls and internals by (symbol, src), returns by (symbol, src,
    popped symbol); plus the sorted input symbols and each one's kind."""
    symbols: tuple[str, ...]
    kind: dict[str, SymbolKind]
    calls: dict[tuple[str, str], tuple[CallRule, ...]]
    returns: dict[tuple[str, str, str], tuple[ReturnRule, ...]]
    internals: dict[tuple[str, str], tuple[InternalRule, ...]]


def _group(rules, key) -> dict:
    groups: dict = {}
    for r in sorted(rules):
        groups.setdefault(key(r), []).append(r)
    return {k: tuple(v) for k, v in groups.items()}


@lru_cache(maxsize=256)
def rule_index(vpt: Vpt) -> RuleIndex:
    symbols = tuple(sorted(vpt.alphabet.symbols))
    return RuleIndex(
        symbols=symbols,
        kind={s: classify(s, vpt.alphabet) for s in symbols},
        calls=_group(vpt.call_rules, lambda r: (r.symbol, r.src)),
        returns=_group(vpt.return_rules, lambda r: (r.symbol, r.src, r.pop)),
        internals=_group(vpt.internal_rules, lambda r: (r.symbol, r.src)))


def moves(idx: RuleIndex, cfg: Configuration, symbol: str,
          kind: SymbolKind) -> list[tuple[Configuration, Word]]:
    """One-step successors of ``cfg`` on ``symbol`` with each rule's output."""
    out = []
    if kind is SymbolKind.CALL:
        for r in idx.calls.get((symbol, cfg.state), ()):
            out.append((Configuration(r.dst, cfg.stack + (r.push,)), r.out))
    elif kind is SymbolKind.RETURN:
        if cfg.stack:
            for r in idx.returns.get((symbol, cfg.state, cfg.stack[-1]), ()):
                out.append((Configuration(r.dst, cfg.stack[:-1]), r.out))
    else:
        for r in idx.internals.get((symbol, cfg.state), ()):
            out.append((Configuration(r.dst, cfg.stack), r.out))
    return out


def update_dconfigs(configs: Iterable[DConfiguration], symbol: str,
                    vpt: Vpt) -> set[DConfiguration]:
    """One naive step: every run candidate advances by every applicable rule."""
    idx = rule_index(vpt)
    kind = idx.kind.get(symbol)
    out: set[DConfiguration] = set()
    if kind is SymbolKind.CALL:
        for dc in configs:
            for r in idx.calls.get((symbol, dc.state), ()):
                out.add(DConfiguration(r.dst, dc.stack + (r.push,),
                                       dc.residual + r.out))
    elif kind is SymbolKind.RETURN:
        for dc in configs:
            if not dc.stack:
                continue
            for r in idx.returns.get((symbol, dc.state, dc.stack[-1]), ()):
                out.add(DConfiguration(r.dst, dc.stack[:-1],
                                       dc.residual + r.out))
    elif kind is SymbolKind.INTERNAL:
        for dc in configs:
            for r in idx.internals.get((symbol, dc.state), ()):
                out.add(DConfiguration(r.dst, dc.stack, dc.residual + r.out))
    else:
        raise ValueError(f"symbol {symbol!r} is not in the machine's alphabet")
    return out


def run_dconfigs(vpt: Vpt, word: Iterable[str],
                 start: Optional[set[DConfiguration]] = None) -> set[DConfiguration]:
    configs = initial_dconfigs(vpt) if start is None else set(start)
    for symbol in word:
        if not configs:
            return set()
        configs = update_dconfigs(configs, symbol, vpt)
    return configs


def reach(vpt: Vpt, word: Iterable[str]) -> frozenset[Word]:
    """Outputs of all runs from the initial configurations on ``word``."""
    return frozenset(dc.residual for dc in run_dconfigs(vpt, word))


def naive_outputs(vpt: Vpt, word: Iterable[str]) -> frozenset[Word]:
    """Outputs of all *accepting* runs (final state, empty stack)."""
    return frozenset(dc.residual for dc in run_dconfigs(vpt, word)
                     if not dc.stack and dc.state in vpt.final)


def naive_eval(vpt: Vpt, word: Iterable[str]) -> Optional[Word]:
    """Unique accepting output, or None on rejection.

    Raises NotFunctionalWitness if the machine maps ``word`` to two different
    outputs.
    """
    word = tuple(word)
    outs = sorted(naive_outputs(vpt, word))
    if not outs:
        return None
    if len(outs) > 1:
        raise NotFunctionalWitness(word, outs[0], outs[1])
    return outs[0]


def step_runs(vpt: Vpt, start: Configuration,
              word: Iterable[str]) -> frozenset[tuple[Configuration, Word]]:
    """All (end configuration, output) pairs of runs on ``word`` from ``start``."""
    configs = {DConfiguration(start.state, start.stack, ())}
    for symbol in word:
        configs = update_dconfigs(configs, symbol, vpt)
    return frozenset((Configuration(dc.state, dc.stack), dc.residual)
                     for dc in configs)


# ---------------------------------------------------------------------------
# Enumeration oracles

def live_prefixes(vpt: Vpt, max_len: int) -> Iterator[tuple[InputWord, set[DConfiguration]]]:
    """Depth-first walk of all prefixes with at least one surviving run.

    Children are explored in sorted symbol order, so words appear in
    lexicographic order.  Yields (prefix, run set) including the empty prefix.
    """
    symbols = sorted(vpt.alphabet.symbols)
    start = initial_dconfigs(vpt)
    if not start:
        return
    yield (), start
    # explicit frames (prefix, configs, next symbol position) instead of
    # nested generators: resuming a deep subtree stays O(1) per yield
    stack: list[tuple[InputWord, set[DConfiguration], int]] = [((), start, 0)]
    while stack:
        prefix, configs, i = stack[-1]
        if len(prefix) >= max_len or i == len(symbols):
            stack.pop()
            continue
        stack[-1] = (prefix, configs, i + 1)
        nxt = update_dconfigs(configs, symbols[i], vpt)
        if nxt:
            child = prefix + (symbols[i],)
            yield child, nxt
            stack.append((child, nxt, 0))


def enumerate_domain(vpt: Vpt, max_len: int) -> list[tuple[InputWord, Word]]:
    """All accepted words of length <= max_len, lexicographic by word."""
    result = []
    for prefix, configs in live_prefixes(vpt, max_len):
        outs = sorted({dc.residual for dc in configs
                       if not dc.stack and dc.state in vpt.final})
        if not outs:
            continue
        if len(outs) > 1:
            raise NotFunctionalWitness(prefix, outs[0], outs[1])
        result.append((prefix, outs[0]))
    return result


@dataclass(frozen=True)
class FunctionalUpTo:
    max_len: int


@dataclass(frozen=True)
class CounterExample:
    word: InputWord
    out1: Word
    out2: Word


def check_functional_bounded(vpt: Vpt, max_len: int):
    """Scan every domain word of length <= max_len for output conflicts."""
    for prefix, configs in live_prefixes(vpt, max_len):
        outs = sorted({dc.residual for dc in configs
                       if not dc.stack and dc.state in vpt.final})
        if len(outs) > 1:
            return CounterExample(prefix, outs[0], outs[1])
    return FunctionalUpTo(max_len)


# ---------------------------------------------------------------------------
# Well-matched summaries, co-accessibility, reduction

def well_matched_witnesses(vpt: Vpt) -> dict[tuple[str, str], InputWord]:
    """Least fixpoint of the well-matched reachability relation.

    (q, q') is in the relation iff some well-nested input word drives q to q'
    leaving the stack below untouched.  The value stored is one witness word.
    """
    wit: dict[tuple[str, str], InputWord] = {(q, q): () for q in sorted(vpt.states)}
    int_rules = sorted(vpt.internal_rules)
    call_rules = sorted(vpt.call_rules)
    ret_by_pop: dict[str, list[ReturnRule]] = {}
    for r in sorted(vpt.return_rules):
        ret_by_pop.setdefault(r.pop, []).append(r)

    changed = True
    while changed:
        changed = False
        # internal steps
        for (q, x), w in list(wit.items()):
            for r in int_rules:
                if r.src == x and (q, r.dst) not in wit:
                    wit[(q, r.dst)] = w + (r.symbol,)
                    changed = True
        # call ... matched return wrapping
        for c in call_rules:
            for (q1, x), w in list(wit.items()):
                if q1 != c.dst:
                    continue
                for r in ret_by_pop.get(c.push, ()):
                    if r.src == x and (c.src, r.dst) not in wit:
                        wit[(c.src, r.dst)] = (c.symbol,) + w + (r.symbol,)
                        changed = True
        # composition
        for (q, x), w1 in list(wit.items()):
            for (x2, y), w2 in list(wit.items()):
                if x2 == x and (q, y) not in wit:
                    wit[(q, y)] = w1 + w2
                    changed = True
    return wit


class WellMatched(NamedTuple):
    """The well-matched relation of one machine and the tables built on it.

    ``witnesses`` maps each (q, q') joined by a well-nested word to one such
    word; ``pop_to[(q, gamma)]`` holds the states that q, with gamma on top
    of the stack, can land in right after popping that gamma; ``can_finish``
    holds the states that reach a final state by a well-nested word.  Shared
    by every caller through the cache, so read-only.
    """
    witnesses: dict[tuple[str, str], InputWord]
    pop_to: dict[tuple[str, str], frozenset[str]]
    can_finish: frozenset[str]


# One classification touches about four machines (the caller's, its
# reduction and the intermediate reductions), so a few entries suffice.
@lru_cache(maxsize=16)
def well_matched(vpt: Vpt) -> WellMatched:
    wit = well_matched_witnesses(vpt)
    ret_by_src: dict[str, list[ReturnRule]] = {}
    for r in vpt.return_rules:
        ret_by_src.setdefault(r.src, []).append(r)
    pop_to: dict[tuple[str, str], set[str]] = {}
    for (q, x) in wit:
        for r in ret_by_src.get(x, ()):
            pop_to.setdefault((q, r.pop), set()).add(r.dst)
    return WellMatched(
        witnesses=wit,
        pop_to={k: frozenset(v) for k, v in pop_to.items()},
        can_finish=frozenset(q for q in vpt.states
                             if any((q, f) in wit for f in vpt.final)))


def co_accessible(vpt: Vpt, config: Configuration) -> bool:
    """Exact test: can ``config`` be continued into an accepting run?"""
    wm = well_matched(vpt)
    # Peel the stack bottom-up: after processing a prefix of the tuple, live
    # holds the states that can finish with exactly that prefix below them,
    # its last symbol on top (popped first from there).
    live = wm.can_finish
    for gamma in config.stack:
        live = {q for q in vpt.states
                if any(p in live for p in wm.pop_to.get((q, gamma), ()))}
        if not live:
            return False
    return config.state in live


# Annotations used by reduce(): a state carries the (stack symbol, obligation)
# pair of the current top, or None at the bottom; a stack symbol additionally
# remembers the annotation to restore below it.
_Top = Optional[tuple[str, str]]


def _ann_state_name(q: str, t: _Top) -> str:
    return q if t is None else f"{q}@{t[0]}>{t[1]}"


def _ann_symbol_name(gamma: str, p: str, below: _Top) -> str:
    base = f"{gamma}@{p}"
    return base if below is None else f"{base}@{below[0]}>{below[1]}"


def reduce(vpt: Vpt) -> Vpt:
    """Equivalent machine in which accessible configurations are co-accessible."""
    return reduce_with_map(vpt)[0]


def reduce_with_map(vpt: Vpt) -> tuple[Vpt, dict[str, str], dict[str, str]]:
    """reduce() plus projections of new state/stack names onto the originals.

    Stack symbols are annotated with the state the machine commits to reach
    when the symbol is popped; call rules only choose commitments that some
    well-matched continuation can honor, so no run can paint itself into a
    corner.  States gain the annotation of the current top so return rules can
    check the commitment.
    """
    wm = well_matched(vpt)
    pop_to, can_finish = wm.pop_to, wm.can_finish

    def live(q: str, t: _Top) -> bool:
        if t is None:
            return q in can_finish
        gamma, p = t
        return p in pop_to.get((q, gamma), ())

    states: set[tuple[str, _Top]] = set()
    frontier: list[tuple[str, _Top]] = []
    call_out: set[tuple[tuple[str, _Top], CallRule, str]] = set()
    # A return popping gamma onto its commitment p lands on (p, below) for
    # every symbol (gamma, p, below) that some call materializes; whichever
    # of the two is found second makes the join.
    below_of: dict[tuple[str, str], set[_Top]] = {}
    landed: set[tuple[str, str]] = set()

    def add(st: tuple[str, _Top]) -> None:
        if st not in states:
            states.add(st)
            frontier.append(st)

    for q in vpt.initial:
        if q in can_finish:
            add((q, None))
    while frontier:
        q, t = frontier.pop()
        for r in vpt.internal_rules:
            if r.src == q and live(r.dst, t):
                add((r.dst, t))
        for r in vpt.call_rules:
            if r.src != q:
                continue
            for p in pop_to.get((r.dst, r.push), ()):
                if not live(p, t):
                    continue
                call_out.add(((q, t), r, p))
                add((r.dst, (r.push, p)))
                below = below_of.setdefault((r.push, p), set())
                if t not in below:
                    below.add(t)
                    if (r.push, p) in landed:
                        add((p, t))
        if t is not None and t not in landed and any(
                r.src == q and r.pop == t[0] and r.dst == t[1]
                for r in vpt.return_rules):
            landed.add(t)
            for below in below_of.get(t, ()):
                add((t[1], below))
    symbols = {(gamma, p, below) for (gamma, p), belows in below_of.items()
               for below in belows}

    state_name: dict[tuple[str, _Top], str] = {}
    used_states: set[str] = set()
    for st in sorted(states, key=_state_key):
        name = _ann_state_name(*st)
        while name in used_states:
            name += "'"
        state_name[st] = name
        used_states.add(name)
    sym_name: dict[tuple[str, str, _Top], str] = {}
    used_syms: set[str] = set()
    for s in sorted(symbols, key=_sym_key):
        name = _ann_symbol_name(*s)
        while name in used_syms:
            name += "'"
        sym_name[s] = name
        used_syms.add(name)

    new_calls = {CallRule(state_name[src], r.symbol, r.out,
                          sym_name[(r.push, p, src[1])],
                          state_name[(r.dst, (r.push, p))])
                 for (src, r, p) in call_out}
    new_returns = set()
    for (q, t) in states:
        if t is None:
            continue
        gamma, p = t
        for r in vpt.return_rules:
            if r.src == q and r.pop == gamma and r.dst == p:
                for below in below_of[t]:
                    new_returns.add(ReturnRule(state_name[(q, t)], r.symbol,
                                               r.out, sym_name[(gamma, p, below)],
                                               state_name[(p, below)]))
    new_internals = set()
    for (q, t) in states:
        for r in vpt.internal_rules:
            if r.src == q and (r.dst, t) in states:
                new_internals.add(InternalRule(state_name[(q, t)], r.symbol,
                                               r.out, state_name[(r.dst, t)]))

    reduced = Vpt(
        alphabet=vpt.alphabet,
        states=frozenset(state_name.values()),
        initial=frozenset(state_name[(q, None)] for q in vpt.initial
                          if (q, None) in states),
        final=frozenset(state_name[(q, None)] for q in vpt.final
                        if (q, None) in states),
        stack_alphabet=frozenset(sym_name.values()),
        call_rules=frozenset(new_calls),
        return_rules=frozenset(new_returns),
        internal_rules=frozenset(new_internals),
    )
    trimmed = _forward_trim(reduced)
    state_map = {name: st[0] for st, name in state_name.items()
                 if name in trimmed.states}
    sym_map = {name: s[0] for s, name in sym_name.items()
               if name in trimmed.stack_alphabet}
    return trimmed, state_map, sym_map


def _state_key(st: tuple[str, _Top]):
    return (st[0], st[1] is not None, st[1] or ("", ""))


def _sym_key(s: tuple[str, str, _Top]):
    return (s[0], s[1], s[2] is not None, s[2] or ("", ""))


def _forward_trim(vpt: Vpt) -> Vpt:
    """Drop states (and their rules) that no input can ever reach."""
    wm = well_matched(vpt).witnesses
    reachable: set[str] = set(vpt.initial)
    changed = True
    while changed:
        changed = False
        for r in vpt.internal_rules:
            if r.src in reachable and r.dst not in reachable:
                reachable.add(r.dst)
                changed = True
        for r in vpt.call_rules:
            if r.src in reachable and r.dst not in reachable:
                reachable.add(r.dst)
                changed = True
        for (q, x) in wm:
            if q in reachable and x not in reachable:
                reachable.add(x)
                changed = True
    calls = frozenset(r for r in vpt.call_rules
                      if r.src in reachable and r.dst in reachable)
    live_syms = frozenset(r.push for r in calls)
    return Vpt(
        alphabet=vpt.alphabet,
        states=frozenset(reachable),
        initial=vpt.initial & frozenset(reachable),
        final=vpt.final & frozenset(reachable),
        stack_alphabet=live_syms,
        call_rules=calls,
        return_rules=frozenset(r for r in vpt.return_rules
                               if r.src in reachable and r.dst in reachable
                               and r.pop in live_syms),
        internal_rules=frozenset(r for r in vpt.internal_rules
                                 if r.src in reachable and r.dst in reachable),
    )


# ---------------------------------------------------------------------------
# Bounded-height flattening

def _cfg_name(cfg: Configuration) -> str:
    return cfg.state if not cfg.stack else cfg.state + "|" + ".".join(cfg.stack)


def fst_of(vpt: Vpt, k: int, max_states: Optional[int] = None) -> FstMachine:
    """Finite-state restriction of ``vpt`` to stack heights <= k.

    States are the reachable configurations; only rules that stay within the
    height bound are kept.  Raises StateExplosion past ``max_states``.
    """
    if k < 0:
        raise ValueError("height bound must be >= 0")
    idx = rule_index(vpt)
    rules: set[FstRule] = set()
    seen: set[Configuration] = {Configuration(q, ()) for q in sorted(vpt.initial)}
    frontier = sorted(seen)
    while frontier:
        cfg = frontier.pop()
        for symbol in idx.symbols:
            kind = idx.kind[symbol]
            if kind is SymbolKind.CALL and len(cfg.stack) >= k:
                continue
            for nxt, out in moves(idx, cfg, symbol, kind):
                rules.add(FstRule(_cfg_name(cfg), symbol, out, _cfg_name(nxt)))
                if nxt not in seen:
                    seen.add(nxt)
                    if max_states is not None and len(seen) > max_states:
                        raise StateExplosion(
                            f"height-{k} flattening exceeded {max_states} configurations")
                    frontier.append(nxt)
    return FstMachine(
        alphabet=frozenset(vpt.alphabet.symbols),
        states=frozenset(_cfg_name(c) for c in seen),
        initial=frozenset(_cfg_name(Configuration(q, ())) for q in vpt.initial),
        final=frozenset(_cfg_name(Configuration(q, ())) for q in vpt.final
                        if Configuration(q, ()) in seen),
        rules=frozenset(rules),
    )


def trim_fst(m: FstMachine) -> FstMachine:
    """Keep only states on some initial-to-final path (and their rules)."""
    fwd: set[str] = set(m.initial)
    changed = True
    while changed:
        changed = False
        for r in m.rules:
            if r.src in fwd and r.dst not in fwd:
                fwd.add(r.dst)
                changed = True
    bwd: set[str] = set(m.final)
    changed = True
    while changed:
        changed = False
        for r in m.rules:
            if r.dst in bwd and r.src not in bwd:
                bwd.add(r.src)
                changed = True
    keep = frozenset(fwd & bwd)
    return FstMachine(
        alphabet=m.alphabet,
        states=keep,
        initial=m.initial & keep,
        final=m.final & keep,
        rules=frozenset(r for r in m.rules if r.src in keep and r.dst in keep),
    )


# ---------------------------------------------------------------------------
# Text format

_HEADERS = ("calls", "returns", "internals", "states", "initial", "final", "stack")


def parse_vpt(text: str) -> Vpt:
    """Parse the line-oriented machine format (see the CLI docs)."""
    sections: dict[str, list[str]] = {}
    raw_rules: list[tuple[int, list[str]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head.endswith(":"):
            name = head[:-1]
            if name not in _HEADERS:
                raise ParseError(line_no, f"unknown header {head!r}")
            if name in sections:
                raise ParseError(line_no, f"duplicate header {head!r}")
            if len(tokens) == 1:
                raise ValidationError(
                    [f"line {line_no}: header {head!r} declares no symbols "
                     "(omit the line for an empty section)"])
            sections[name] = tokens[1:]
        elif head == "trans":
            raw_rules.append((line_no, tokens))
        else:
            raise ParseError(line_no, f"expected a header or 'trans', got {head!r}")

    def out_word(token: str) -> Word:
        return () if token == "-" else tuple(token)

    call_rules, return_rules, internal_rules = set(), set(), set()
    for line_no, tokens in raw_rules:
        shape_ok = (len(tokens) == 7 and tokens[4] in ("push", "pop")) or \
                   (len(tokens) == 6 and tokens[4] == "int")
        if not shape_ok:
            raise ParseError(line_no, "expected 'trans <src> <sym> <out|-> "
                                      "push|pop <stack> <dst>' or "
                                      "'trans <src> <sym> <out|-> int <dst>'")
        _, src, sym, out, action = tokens[:5]
        if action == "push":
            call_rules.add(CallRule(src, sym, out_word(out), tokens[5], tokens[6]))
        elif action == "pop":
            return_rules.add(ReturnRule(src, sym, out_word(out), tokens[5], tokens[6]))
        else:
            internal_rules.add(InternalRule(src, sym, out_word(out), tokens[5]))

    try:
        alphabet = StructuredAlphabet(sections.get("calls", ()),
                                      sections.get("returns", ()),
                                      sections.get("internals", ()))
        return Vpt(
            alphabet=alphabet,
            states=frozenset(sections.get("states", ())),
            initial=frozenset(sections.get("initial", ())),
            final=frozenset(sections.get("final", ())),
            stack_alphabet=frozenset(sections.get("stack", ())),
            call_rules=frozenset(call_rules),
            return_rules=frozenset(return_rules),
            internal_rules=frozenset(internal_rules),
        )
    except ValidationError:
        raise
    except ValueError as exc:
        raise ValidationError([str(exc)]) from exc


def serialize_vpt(vpt: Vpt) -> str:
    """Render a machine in the text format; parse(serialize(m)) == m."""
    lines: list[str] = []
    for name, values in (("calls", vpt.alphabet.calls),
                         ("returns", vpt.alphabet.returns),
                         ("internals", vpt.alphabet.internals),
                         ("states", vpt.states),
                         ("initial", vpt.initial),
                         ("final", vpt.final),
                         ("stack", vpt.stack_alphabet)):
        if values:
            lines.append(f"{name}: " + " ".join(sorted(values)))
    if lines:
        lines.append("")

    def out_token(out: Word) -> str:
        return "".join(out) if out else "-"

    for r in sorted(vpt.call_rules):
        lines.append(f"trans {r.src} {r.symbol} {out_token(r.out)} push {r.push} {r.dst}")
    for r in sorted(vpt.return_rules):
        lines.append(f"trans {r.src} {r.symbol} {out_token(r.out)} pop {r.pop} {r.dst}")
    for r in sorted(vpt.internal_rules):
        lines.append(f"trans {r.src} {r.symbol} {out_token(r.out)} int {r.dst}")
    return "\n".join(lines) + "\n"
