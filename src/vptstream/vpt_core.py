"""Visibly pushdown transducers: representation, naive semantics, reduction.

The input symbol's partition class dictates the stack action: calls push one
symbol, returns pop one (checking it), internals leave the stack alone.  Every
rule emits an output word.  ``naive_eval`` and friends implement the
run-enumeration semantics used as the oracle for the streaming evaluator;
``reduce`` rebuilds a machine so that every accessible configuration can still
reach acceptance; ``fst_of`` flattens a machine up to a stack-height bound
into a finite-state transducer whose states are the machine's own
configurations, within the one budget ``_CONFIG_BUDGET``.

Two per-machine tables serve every later stage.  ``rule_index`` holds the
rules in one table, by state, then symbol, then (for a return) popped
symbol, which the naive step, the evaluator and ``ConfigGraph`` all read.
``ConfigGraph`` is the one walk of live configurations under a
stack-height bound: the functional probe, the twinning searches and
``fst_of`` number configurations through it and step each at most once,
and the pump replay walks it as well.
``well_matched`` holds the well-matched relation (q, q' joined by a
well-nested word) with a witness word per pair, plus the pop targets and
finishing states derived from it; reduction, co-accessibility, the
domain-height walk and the twinning loop conditions all read it, and its
``push`` steps a stack's finishers, the states from which a run holding
the stack can still accept, one pushed symbol at a time.  ``reduce`` needs
no forward trim, because the one worklist that builds the reduced machine
adds only states it can reach.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, NamedTuple, Optional

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


# The one budget of BM's flattening: the configurations ``fst_of`` may meet
# and the nodes its twinning product may hold.
_CONFIG_BUDGET = 200_000


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
    src: Hashable
    symbol: str
    out: Word
    dst: Hashable


@dataclass(frozen=True)
class FstMachine:
    """A finite-state transducer.  Its states are any hashable values that
    compare with each other: names in a parsed or hand-built machine, the
    ``Configuration``s of a VPT in its flattening ``fst_of``."""
    alphabet: frozenset[str]
    states: frozenset[Hashable]
    initial: frozenset[Hashable]
    final: frozenset[Hashable]
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
    """The rules of one machine in one table, for one-step lookup:
    ``rules[q][symbol]`` is the bucket of call or internal rules from q on
    ``symbol``, or, for a return symbol, popped stack symbol -> bucket.
    Every state of the machine has a table, each state's symbols in sorted
    order and each bucket in ``sorted(rules)`` order.  Plus the sorted
    input symbols and each one's kind."""
    symbols: tuple[str, ...]
    kind: dict[str, SymbolKind]
    rules: dict[str, dict[str, object]]


def _group(rules, key) -> dict:
    groups: dict = {}
    for r in sorted(rules):
        groups.setdefault(key(r), []).append(r)
    return {k: tuple(v) for k, v in groups.items()}


@lru_cache(maxsize=256)
def rule_index(vpt: Vpt) -> RuleIndex:
    symbols = tuple(sorted(vpt.alphabet.symbols))
    kind = {s: classify(s, vpt.alphabet) for s in symbols}
    buckets = {**_group(vpt.call_rules, lambda r: (r.src, r.symbol)),
               **_group(vpt.internal_rules, lambda r: (r.src, r.symbol)),
               **_group(vpt.return_rules, lambda r: (r.src, r.symbol, r.pop))}
    rules: dict[str, dict] = {q: {} for q in vpt.states}
    for (q, symbol, *pop), bucket in sorted(buckets.items()):  # symbols in order
        if pop:
            rules[q].setdefault(symbol, {})[pop[0]] = bucket
        else:
            rules[q][symbol] = bucket
    return RuleIndex(symbols, kind, rules)


class ConfigGraph:
    """The live configurations of one machine that hold at most ``cap``
    stack symbols, numbered in the order they are met, each stepped at most
    once.

    ``id(cfg)`` interns a configuration; ``configs``, ``height``, ``state``
    and ``live`` hold each id's configuration, stack height, state and
    whether it can still be continued into an accepting run, and ``ids``
    maps back.  A configuration is live iff its state is in
    ``_finishers(stack)``, the exact test of ``co_accessible``.  ``succ[i]``
    is None until ``steps(i)`` fills it with symbol -> [(id, output)]: the
    one-step successors of configuration i that are live and keep the stack
    within ``cap``, in ``idx.symbols`` order, each symbol's in rule order,
    symbols with none left out.  Dead configurations get ids but are never
    a successor, so a walk from live roots meets only live ones.  A walk
    that calls ``steps`` only where ``succ`` is None steps each
    configuration at most once.
    """

    def __init__(self, vpt: Vpt, cap: int):
        self.idx = rule_index(vpt)
        self.cap = cap
        self.ids: dict[Configuration, int] = {}
        self.configs: list[Configuration] = []
        self.height: list[int] = []
        self.state: list[str] = []
        self.live: list[bool] = []
        self.succ: list[Optional[dict[str, list[tuple[int, Word]]]]] = []
        self._wm = wm = well_matched(vpt)
        self._finishing: dict[tuple[str, ...], frozenset[str]] = {(): wm.can_finish}

    def _finishers(self, stack: tuple[str, ...]) -> frozenset[str]:
        """The states from which a run holding ``stack`` can accept:
        ``can_finish`` under the empty stack, then one ``WellMatched.push``
        per stack symbol, bottom first.  Memoised per stack, extended from
        the longest prefix known."""
        known = self._finishing
        k = len(stack)
        while stack[:k] not in known:
            k -= 1
        live = known[stack[:k]]
        for n in range(k, len(stack)):
            live = known[stack[:n + 1]] = self._wm.push(live, stack[n])
        return live

    def id(self, cfg: Configuration) -> int:
        i = self.ids.get(cfg)
        if i is None:
            i = self.ids[cfg] = len(self.configs)
            self.configs.append(cfg)
            self.height.append(len(cfg.stack))
            self.state.append(cfg.state)
            self.live.append(cfg.state in self._finishers(cfg.stack))
            self.succ.append(None)
        return i

    def steps(self, i: int) -> dict[str, list[tuple[int, Word]]]:
        state, stack = self.configs[i]
        table = {}
        kind = self.idx.kind
        for symbol, rules in self.idx.rules[state].items():
            if kind[symbol] is SymbolKind.CALL:
                if len(stack) >= self.cap:
                    continue
                nxt = [(Configuration(r.dst, stack + (r.push,)), r.out) for r in rules]
            elif kind[symbol] is SymbolKind.RETURN:
                if not stack:
                    continue
                nxt = [(Configuration(r.dst, stack[:-1]), r.out)
                       for r in rules.get(stack[-1], ())]
            else:
                nxt = [(Configuration(r.dst, stack), r.out) for r in rules]
            kept = []
            for cfg, out in nxt:
                j = self.id(cfg)
                if self.live[j]:
                    kept.append((j, out))
            if kept:
                table[symbol] = kept
        self.succ[i] = table
        return table


def update_dconfigs(configs: Iterable[DConfiguration], symbol: str,
                    vpt: Vpt) -> set[DConfiguration]:
    """One naive step: every run candidate advances by every applicable rule."""
    return _advance(rule_index(vpt), configs, symbol)


def _advance(idx: RuleIndex, configs: Iterable[DConfiguration],
             symbol: str) -> set[DConfiguration]:
    """``update_dconfigs`` on an index the caller looked up once."""
    kind = idx.kind.get(symbol)
    out: set[DConfiguration] = set()
    if kind is SymbolKind.CALL:
        for dc in configs:
            for r in idx.rules.get(dc.state, {}).get(symbol, ()):
                out.add(DConfiguration(r.dst, dc.stack + (r.push,),
                                       dc.residual + r.out))
    elif kind is SymbolKind.RETURN:
        for dc in configs:
            if not dc.stack:
                continue
            for r in idx.rules.get(dc.state, {}).get(symbol, {}).get(dc.stack[-1], ()):
                out.add(DConfiguration(r.dst, dc.stack[:-1],
                                       dc.residual + r.out))
    elif kind is SymbolKind.INTERNAL:
        for dc in configs:
            for r in idx.rules.get(dc.state, {}).get(symbol, ()):
                out.add(DConfiguration(r.dst, dc.stack, dc.residual + r.out))
    else:
        raise ValueError(f"symbol {symbol!r} is not in the machine's alphabet")
    return out


def run_dconfigs(vpt: Vpt, word: Iterable[str],
                 start: Optional[set[DConfiguration]] = None) -> set[DConfiguration]:
    configs = initial_dconfigs(vpt) if start is None else set(start)
    idx = rule_index(vpt)
    for symbol in word:
        if not configs:
            return set()
        configs = _advance(idx, configs, symbol)
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
    configs = run_dconfigs(vpt, word, {DConfiguration(start.state, start.stack, ())})
    return frozenset((Configuration(dc.state, dc.stack), dc.residual)
                     for dc in configs)


# ---------------------------------------------------------------------------
# Enumeration oracles

def enumerate_domain(vpt: Vpt, max_len: int) -> list[tuple[InputWord, Word]]:
    """All accepted words of length <= max_len, lexicographic by word.

    A depth-first walk over the prefixes that some run survives, children
    in sorted symbol order, pruned exactly: a run holding h stack symbols
    needs at least h more symbols (its returns) to accept, so a prefix is
    extended only while some run's height is at most the symbols left.
    Every prefix of an accepted word of length <= max_len passes that test
    (the run that accepts it does), so the pruned subtrees hold no such
    word and the order of the words found is unchanged.  Raises
    NotFunctionalWitness at the first word with two accepting outputs.
    """
    result: list[tuple[InputWord, Word]] = []
    if not vpt.initial:
        return result
    symbols = sorted(vpt.alphabet.symbols, reverse=True)  # popped smallest first
    idx = rule_index(vpt)
    final = vpt.final
    todo = [((), initial_dconfigs(vpt))]
    while todo:
        word, configs = todo.pop()
        outs = sorted({dc.residual for dc in configs
                       if not dc.stack and dc.state in final})
        if len(outs) > 1:
            raise NotFunctionalWitness(word, outs[0], outs[1])
        if outs:
            result.append((word, outs[0]))
        left = max_len - len(word) - 1  # symbols left after one more
        if left < 0:
            continue
        for symbol in symbols:
            nxt = _advance(idx, configs, symbol)
            if any(len(dc.stack) <= left for dc in nxt):
                todo.append((word + (symbol,), nxt))
    return result


@dataclass(frozen=True)
class FunctionalUpTo:
    max_len: int


@dataclass(frozen=True)
class CounterExample:
    word: InputWord
    out1: Word
    out2: Word


# The length up to which `eval` and `check` look for an output conflict
# before they trust a machine to be functional.
_FUNCTIONAL_PROBE_LEN = 10


def check_functional_bounded(vpt: Vpt, max_len: int):
    """Scan every domain word of length <= max_len for output conflicts.

    Returns the first conflict in lexicographic order, or FunctionalUpTo.

    A depth-first walk over input prefixes, children in sorted symbol
    order (so words are met in lexicographic order), that explores each
    distinct subtree once.  A prefix holds its runs as (configuration,
    residual) pairs, the residual being the run's output so far, reduced
    exactly in two ways.  A run holding more stack symbols than the symbols
    left cannot accept in time, and neither can any run it leads to, so it
    is dropped; a prefix with no run left is not extended, the pruning of
    ``enumerate_domain``.  Then the longest common prefix p of the
    residuals is stripped: every accepted output below is p followed by a
    suffix that depends only on the stripped pairs, so two outputs below
    differ iff their stripped forms differ, and the order of outputs is
    kept.  Which words below a prefix conflict is therefore a function of
    the reduced runs and the symbols left, and that pair is the memo key.
    The first conflict ends the search, so the memo is just the set of
    keys whose subtree was explored without one; a prefix whose key is in
    it is skipped whole.  A conflict is reported with the prefix's full
    word and the two smallest of its ``naive_outputs``: a dropped run
    accepts no word of the bound, so these are the outputs of the runs kept.

    Runs name their configurations by ``ConfigGraph`` ids, one graph per
    probe.  Its height cap max_len // 2 loses nothing: a run at height h
    after k symbols has h <= k and must also have h <= max_len - k to be
    kept.
    """
    graph = ConfigGraph(vpt, max_len // 2)
    height, state, succ = graph.height, graph.state, graph.succ
    final = vpt.final

    # a prefix is (word, memo key, runs); once its children are pushed, its
    # key follows them as (None, key, None), to be marked done when popped
    root = frozenset((graph.id(Configuration(q, ())), ()) for q in vpt.initial)
    done: set[tuple[int, frozenset]] = set()
    todo: list = [((), (max_len, root), root)]
    while todo:
        word, key, runs = todo.pop()
        if word is None:
            done.add(key)
            continue
        if key in done:
            continue
        if len(runs) > 1 and len({r for i, r in runs
                                  if not height[i] and state[i] in final}) > 1:
            outs = sorted(naive_outputs(vpt, word))
            return CounterExample(word, outs[0], outs[1])
        left = key[0] - 1  # symbols left after one more
        grown: dict[str, set[tuple[int, Word]]] = {}
        if left >= 0:
            for i, r in runs:
                table = succ[i]
                if table is None:
                    table = graph.steps(i)
                for symbol, steps in table.items():
                    for j, o in steps:
                        if height[j] <= left:
                            grown.setdefault(symbol, set()).add((j, r + o))
        todo.append((None, key, None))
        for symbol in sorted(grown, reverse=True):  # popped smallest first
            nxt = grown[symbol]
            if len(nxt) == 1:  # the common case; its residual strips to ε
                child = frozenset((j, ()) for j, _ in nxt)
            else:
                lo = min(r for _, r in nxt)  # the lcp of a set is that of
                hi = max(r for _, r in nxt)  # its least and greatest members
                cut = 0
                while cut < len(lo) and lo[cut] == hi[cut]:
                    cut += 1
                child = frozenset((j, r[cut:]) for j, r in nxt)
            todo.append(((*word, symbol), (left, child), child))
    return FunctionalUpTo(max_len)


# ---------------------------------------------------------------------------
# Well-matched summaries, co-accessibility, reduction

def well_matched_witnesses(vpt: Vpt) -> dict[tuple[str, str], InputWord]:
    """Least fixpoint of the well-matched reachability relation.

    (q, q') is in the relation iff some well-nested input word drives q to q'
    leaving the stack below untouched.  The value stored is one witness word.

    Each round tries, in turn: every entry (q, x) followed by an internal
    rule from x; every call rule c, in sorted order, around every entry
    (c.dst, x) closed by a return from x popping c's symbol; every entry
    (q, x) followed by every entry (x, y).  ``order`` holds every entry in
    insertion order and ``after[x]`` those from x, so each walk reads only
    the entries that can join.  A walk over a list it may add to reads a
    copy of the list as it was when the walk began, so entries added during
    a walk wait for the next one.  The rounds end when one adds nothing.
    """
    wit: dict[tuple[str, str], InputWord] = {}
    order: list[tuple[str, str, InputWord]] = []
    after: dict[str, list[tuple[str, InputWord]]] = {q: [] for q in vpt.states}

    def add(q: str, y: str, w: InputWord) -> None:
        wit[q, y] = w
        order.append((q, y, w))
        after[q].append((y, w))

    for q in sorted(vpt.states):
        add(q, q, ())
    internals_from = _group(vpt.internal_rules, lambda r: r.src)
    call_rules = sorted(vpt.call_rules)
    returns_from = _group(vpt.return_rules, lambda r: (r.pop, r.src))

    size = 0
    while size < len(wit):
        size = len(wit)
        for q, x, w in order[:]:
            for r in internals_from.get(x, ()):
                if (q, r.dst) not in wit:
                    add(q, r.dst, w + (r.symbol,))
        for c in call_rules:
            for x, w in after[c.dst][:]:
                for r in returns_from.get((c.push, x), ()):
                    if (c.src, r.dst) not in wit:
                        add(c.src, r.dst, (c.symbol,) + w + (r.symbol,))
        for q, x, w1 in order[:]:
            # an entry (q, x) with x = q is (q, q) with ε, which adds nothing,
            # so no entry joins after[x] during this walk
            for y, w2 in after[x]:
                if (q, y) not in wit:
                    add(q, y, w1 + w2)
    return wit


class WellMatched(NamedTuple):
    """The well-matched relation of one machine and the tables built on it.

    ``witnesses`` maps each (q, q') joined by a well-nested word to one such
    word; ``pop_to[(q, gamma)]`` holds the states that q, with gamma on top
    of the stack, can land in right after popping that gamma; ``can_finish``
    holds the states that reach a final state by a well-nested word;
    ``pops[gamma]`` lists the pairs (q, ``pop_to[(q, gamma)]``).  Shared by
    every caller through the cache, so read-only.
    """
    witnesses: dict[tuple[str, str], InputWord]
    pop_to: dict[tuple[str, str], frozenset[str]]
    can_finish: frozenset[str]
    pops: dict[str, tuple[tuple[str, frozenset[str]], ...]]

    def push(self, finishers: frozenset[str], gamma: str) -> frozenset[str]:
        """The finishers of a stack s + (gamma,), the states from which a
        run holding it can accept, given ``finishers``, those of s: the
        states q with some p in ``pop_to[(q, gamma)]`` among them.  The
        finishers of the empty stack are ``can_finish``."""
        return frozenset(q for q, targets in self.pops.get(gamma, ())
                         if not targets.isdisjoint(finishers))


# One classification reads the summary of the caller's machine alone, so a
# few entries suffice.
@lru_cache(maxsize=16)
def well_matched(vpt: Vpt) -> WellMatched:
    wit = well_matched_witnesses(vpt)
    ret_by_src = _group(vpt.return_rules, lambda r: r.src)
    landings: dict[tuple[str, str], set[str]] = {}
    for (q, x) in wit:
        for r in ret_by_src.get(x, ()):
            landings.setdefault((q, r.pop), set()).add(r.dst)
    pop_to = {k: frozenset(v) for k, v in landings.items()}
    pops: dict[str, list[tuple[str, frozenset[str]]]] = {}
    for (q, gamma), targets in pop_to.items():
        pops.setdefault(gamma, []).append((q, targets))
    return WellMatched(
        witnesses=wit,
        pop_to=pop_to,
        can_finish=frozenset(q for q in vpt.states
                             if any((q, f) in wit for f in vpt.final)),
        pops={gamma: tuple(pairs) for gamma, pairs in pops.items()})


def co_accessible(vpt: Vpt, config: Configuration) -> bool:
    """Exact test: can ``config`` be continued into an accepting run?"""
    wm = well_matched(vpt)
    # Peel the stack bottom-up: after processing a prefix of the tuple, live
    # holds the states that can finish with exactly that prefix below them,
    # its last symbol on top (popped first from there).
    live = wm.can_finish
    for gamma in config.stack:
        live = wm.push(live, gamma)
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


# Only ``reduce`` reads it in the package; a few entries suffice.
@lru_cache(maxsize=16)
def reduce_with_map(vpt: Vpt) -> tuple[Vpt, dict[str, str], dict[str, str]]:
    """reduce() plus projections of new state/stack names onto the originals.

    Stack symbols are annotated with the state the machine commits to reach
    when the symbol is popped; call rules only choose commitments that some
    well-matched continuation can honor, so no run can paint itself into a
    corner.  States gain the annotation of the current top so return rules can
    check the commitment.  The result is cached and shared by every caller,
    so the two maps are read-only.

    One worklist adds the states and records each rule from a state as it
    finds it; the machine is built from those records.  Every state it adds
    is reachable, so no forward trim follows: a state enters ``states`` only
    through ``add``, as an initial state, as the target of a recorded rule
    from a state already there, or as the landing (p, t) of a recorded call
    from (q, t) onto (c.dst, (γ, p)).  The call commits to p only if p is in
    ``pop_to[(c.dst, γ)]``, so a well-nested path leads from c.dst to a
    return popping γ onto p; every state on it is live under (γ, p), and by
    induction on its nesting the worklist records it and that return.  So
    the landing is reachable, and the worklist adds it with the call.
    """
    wm = well_matched(vpt)
    pop_to, can_finish = wm.pop_to, wm.can_finish
    internals_from = _group(vpt.internal_rules, lambda r: r.src)
    calls_from = _group(vpt.call_rules, lambda r: r.src)
    returns_to = _group(vpt.return_rules, lambda r: (r.src, r.pop, r.dst))

    def live(q: str, t: _Top) -> bool:
        if t is None:
            return q in can_finish
        gamma, p = t
        return p in pop_to.get((q, gamma), ())

    states: set[tuple[str, _Top]] = set()
    frontier: list[tuple[str, _Top]] = []
    internals: set[tuple[tuple[str, _Top], InternalRule]] = set()
    calls: set[tuple[tuple[str, _Top], CallRule, str]] = set()
    returns: set[tuple[tuple[str, _Top], ReturnRule]] = set()
    below_of: dict[tuple[str, str], set[_Top]] = {}

    def add(st: tuple[str, _Top]) -> None:
        if st not in states:
            states.add(st)
            frontier.append(st)

    for q in vpt.initial:
        if q in can_finish:
            add((q, None))
    while frontier:
        st = frontier.pop()
        q, t = st
        for r in internals_from.get(q, ()):
            if live(r.dst, t):
                internals.add((st, r))
                add((r.dst, t))
        for r in calls_from.get(q, ()):
            for p in pop_to.get((r.dst, r.push), ()):
                if not live(p, t):
                    continue
                calls.add((st, r, p))
                add((r.dst, (r.push, p)))
                below_of.setdefault((r.push, p), set()).add(t)
                add((p, t))
        if t is not None and (q, *t) in returns_to:
            returns.update((st, r) for r in returns_to[(q, *t)])

    state_name = _fresh_names(states, _ann_key, _ann_state_name)
    sym_name = _fresh_names({(gamma, p, below) for (gamma, p), belows in below_of.items()
                             for below in belows}, _ann_key, _ann_symbol_name)
    reduced = Vpt(
        alphabet=vpt.alphabet,
        states=frozenset(state_name.values()),
        initial=frozenset(state_name[(q, None)] for q in vpt.initial
                          if (q, None) in states),
        final=frozenset(state_name[(q, None)] for q in vpt.final
                        if (q, None) in states),
        stack_alphabet=frozenset(sym_name.values()),
        call_rules=frozenset(
            CallRule(state_name[src], r.symbol, r.out, sym_name[(r.push, p, src[1])],
                     state_name[(r.dst, (r.push, p))])
            for src, r, p in calls),
        return_rules=frozenset(
            ReturnRule(state_name[src], r.symbol, r.out, sym_name[(*src[1], below)],
                       state_name[(r.dst, below)])
            for src, r in returns for below in below_of[src[1]]),
        internal_rules=frozenset(
            InternalRule(state_name[src], r.symbol, r.out, state_name[(r.dst, src[1])])
            for src, r in internals),
    )
    return (reduced, {name: st[0] for st, name in state_name.items()},
            {name: s[0] for s, name in sym_name.items()})


def _fresh_names(items: Iterable[tuple], key, name) -> dict[tuple, str]:
    """``name(*item)`` for each item, taken in ``key`` order, with primes
    appended until it differs from every earlier name."""
    names: dict[tuple, str] = {}
    used: set[str] = set()
    for item in sorted(items, key=key):
        fresh = name(*item)
        while fresh in used:
            fresh += "'"
        names[item] = fresh
        used.add(fresh)
    return names


def _ann_key(item: tuple):
    """Sort key of an annotated state or symbol, whose last part may be None."""
    *head, top = item
    return (*head, top is not None, top or ("", ""))


# ---------------------------------------------------------------------------
# Bounded-height flattening

def fst_of(vpt: Vpt, k: int) -> FstMachine:
    """Finite-state restriction of ``vpt`` to stack heights <= k.

    States are the reachable live configurations themselves, met by one
    ``ConfigGraph`` walk, so two configurations are never one state; only
    rules that stay within the height bound and lead to a live
    configuration are kept.  At or above the domain height the bound cuts
    no live configuration, so the result holds every live configuration
    the machine reaches, which on a reduced machine is every reachable
    one.  Raises StateExplosion past ``_CONFIG_BUDGET`` configurations.
    """
    if k < 0:
        raise ValueError("height bound must be >= 0")
    graph = ConfigGraph(vpt, k)
    walk = [i for i in (graph.id(Configuration(q)) for q in sorted(vpt.initial)) if graph.live[i]]
    met = set(walk)
    for i in walk:  # grows as the walk meets configurations
        for kept in graph.steps(i).values():
            for j, _ in kept:
                if j not in met:
                    met.add(j)
                    walk.append(j)
        if len(walk) > _CONFIG_BUDGET:
            raise StateExplosion(f"height-{k} flattening exceeded {_CONFIG_BUDGET} configurations")
    states = frozenset(graph.configs[i] for i in walk)
    return FstMachine(
        alphabet=frozenset(vpt.alphabet.symbols),
        states=states,
        initial=frozenset(c for c in states if not c.stack and c.state in vpt.initial),
        final=frozenset(c for c in states if not c.stack and c.state in vpt.final),
        rules=frozenset(FstRule(graph.configs[i], symbol, out, graph.configs[j])
                        for i in walk
                        for symbol, kept in graph.succ[i].items() for j, out in kept),
    )


def trim_fst(m: FstMachine) -> FstMachine:
    """Keep only states on some initial-to-final path (and their rules)."""
    succ: dict[Hashable, list[Hashable]] = {}
    pred: dict[Hashable, list[Hashable]] = {}
    for r in m.rules:
        succ.setdefault(r.src, []).append(r.dst)
        pred.setdefault(r.dst, []).append(r.src)
    keep = frozenset(_closure(m.initial, succ) & _closure(m.final, pred))
    return FstMachine(
        alphabet=m.alphabet,
        states=keep,
        initial=m.initial & keep,
        final=m.final & keep,
        rules=frozenset(r for r in m.rules if r.src in keep and r.dst in keep),
    )


def _closure(seeds: Iterable[Hashable], step: dict[Hashable, list]) -> set:
    """The seeds and every node that ``step`` edges lead to from them."""
    seen = set(seeds)
    todo = list(seen)
    while todo:
        for nxt in step.get(todo.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


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
