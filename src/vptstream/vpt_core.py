"""Visibly pushdown transducers: representation, naive semantics, reduction.

The input symbol's partition class dictates the stack action: calls push one
symbol, returns pop one (checking it), internals leave the stack alone.  Every
rule emits an output word.  ``naive_eval`` and friends implement the
run-enumeration semantics used as the oracle for the streaming evaluator;
``reduce`` rebuilds a machine so that every accessible configuration can still
reach acceptance; ``fst_of`` flattens a machine up to a stack-height bound
into a finite-state transducer whose states are the machine's own
configurations, within the one budget ``_CONFIG_BUDGET``.

Three per-machine tables serve every later stage.  ``rule_index`` holds the
rules in one table, by state, then symbol, then (for a return) popped
symbol, which the naive step, ``ConfigGraph`` and the evaluator's
``move_table`` all read.
``config_graph`` holds the machine's one ``ConfigGraph``, its live
configurations with no height bound: the functional probe, the twinning
searches, ``fst_of`` and the pump replay all walk it, each bounding the
heights its own contract names, and the graph steps each configuration at
most once across them all.
``well_matched`` holds the well-matched relation (q, q' joined by a
well-nested word) with a witness word per pair, plus the pop targets and
finishing states derived from it; co-accessibility, the live walk and
the twinning loop conditions all read it.  Its ``push`` steps a stack's
finishers, the states from which a run holding the stack can still
accept, one pushed symbol at a time, each step computed once per machine
and then looked up; ``finishers`` folds it over a whole stack, and is the
one liveness test of ``co_accessible`` and ``ConfigGraph``.
``_live_walk`` walks the (state, finishers) nodes that runs reach live,
once per machine, and is the one liveness construction behind the
domain height, HTP's early exit and ``reduce``, whose states are exactly
those nodes, so the reduction needs no trim.
"""

from __future__ import annotations

import itertools
from collections import deque
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


# ---------------------------------------------------------------------------
# Naive (run enumeration) semantics

def initial_dconfigs(vpt: Vpt) -> set[DConfiguration]:
    return {DConfiguration(q, (), ()) for q in vpt.initial}


class RuleIndex(NamedTuple):
    """The rules of one machine in one table, for one-step lookup:
    ``rules[q][symbol]`` is the bucket of call or internal rules from q on
    ``symbol``, or, for a return symbol, popped stack symbol -> bucket.
    Every state of the machine has a table, each state's symbols in sorted
    order and each bucket in ``sorted(rules)`` order, so by output, then
    target.  Plus each input symbol's kind."""
    kind: dict[str, SymbolKind]
    rules: dict[str, dict[str, object]]


def _group(rules, key) -> dict:
    groups: dict = {}
    for r in sorted(rules):
        groups.setdefault(key(r), []).append(r)
    return {k: tuple(v) for k, v in groups.items()}


@lru_cache(maxsize=256)
def rule_index(vpt: Vpt) -> RuleIndex:
    kind = {s: classify(s, vpt.alphabet) for s in vpt.alphabet.symbols}
    buckets = {**_group(vpt.call_rules, lambda r: (r.src, r.symbol)),
               **_group(vpt.internal_rules, lambda r: (r.src, r.symbol)),
               **_group(vpt.return_rules, lambda r: (r.src, r.symbol, r.pop))}
    rules: dict[str, dict] = {q: {} for q in vpt.states}
    for (q, symbol, *pop), bucket in sorted(buckets.items()):  # symbols in order
        if pop:
            rules[q].setdefault(symbol, {})[pop[0]] = bucket
        else:
            rules[q][symbol] = bucket
    return RuleIndex(kind, rules)


class ConfigGraph:
    """The live configurations of one machine, numbered in the order they
    are met, each stepped at most once.  Callers read the machine's one
    graph through ``config_graph``; it has no height bound, so every walk
    bounds the heights it needs itself.

    ``id(cfg)`` interns a configuration; ``configs``, ``height``, ``state``
    and ``live`` hold each id's configuration, stack height, state and
    whether it can still be continued into an accepting run, and ``ids``
    maps back.  A configuration is live iff its state is in
    ``WellMatched.finishers(stack)``, the test of ``co_accessible``.  ``succ[i]``
    is None until ``steps(i)`` fills it with symbol -> [(id, output)]: the
    one-step successors of configuration i that are live, in
    sorted symbol order, each symbol's in rule order, symbols with none
    left out.  ``steps(i)`` returns ``succ[i]`` once it is filled, so the
    graph itself steps each configuration at most once.  Dead
    configurations get ids but are never a successor, so a walk from live
    roots meets only live ones.

    ``roots`` holds the ids of the live initial configurations, in sorted
    order of their states.  A walk that seeded the dead ones too would
    find nothing more: a configuration with a live successor is live
    itself, so a dead one has no successor in ``succ``, and a dead
    configuration of height 0 is not in a final state, or the empty word
    would make it accept.
    """

    def __init__(self, vpt: Vpt):
        self.idx = rule_index(vpt)
        self.ids: dict[Configuration, int] = {}
        self.configs: list[Configuration] = []
        self.height: list[int] = []
        self.state: list[str] = []
        self.live: list[bool] = []
        self.succ: list[Optional[dict[str, list[tuple[int, Word]]]]] = []
        self._wm = well_matched(vpt)
        self.roots = tuple(i for i in (self.id(Configuration(q)) for q in sorted(vpt.initial))
                           if self.live[i])

    def id(self, cfg: Configuration) -> int:
        i = self.ids.get(cfg)
        if i is None:
            i = self.ids[cfg] = len(self.configs)
            self.configs.append(cfg)
            self.height.append(len(cfg.stack))
            self.state.append(cfg.state)
            self.live.append(cfg.state in self._wm.finishers(cfg.stack))
            self.succ.append(None)
        return i

    def steps(self, i: int) -> dict[str, list[tuple[int, Word]]]:
        table = self.succ[i]
        if table is not None:
            return table
        state, stack = self.configs[i]
        table = {}
        kind = self.idx.kind
        for symbol, rules in self.idx.rules[state].items():
            if kind[symbol] is SymbolKind.CALL:
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


# One classification walks the graph of the caller's machine alone, so 16
# entries, as for ``well_matched``, keep the last few machines.  An entry
# retains every configuration its walks have interned and every successor
# table they filled: at most 636 configurations on a pool machine of
# perfbench/gen.py after a classification at SearchBounds(6, 24).
@lru_cache(maxsize=16)
def config_graph(vpt: Vpt) -> ConfigGraph:
    return ConfigGraph(vpt)


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
    The memo is one set of keys, each marked when a prefix holding it is
    popped; a later prefix whose key is marked is skipped whole.  That is
    exact: the key fixes the symbols left, so the later prefix has the
    same length and lies outside the first one's subtree; the walk is
    depth-first, so it is popped only after that subtree was explored;
    and the exploration found no conflict, for the first conflict ends
    the search.  A conflict is reported with the prefix's full
    word and the two smallest of its ``naive_outputs``: a dropped run
    accepts no word of the bound, so these are the outputs of the runs kept.
    Runs name their configurations by ids of the machine's ``config_graph``,
    from its live roots.
    """
    graph = config_graph(vpt)
    height, state = graph.height, graph.state
    final = vpt.final

    # a prefix is (word, memo key, runs)
    root = frozenset((i, ()) for i in graph.roots)
    seen: set[tuple[int, frozenset]] = set()
    todo: list = [((), (max_len, root), root)]
    while todo:
        word, key, runs = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        if len(runs) > 1 and len({r for i, r in runs
                                  if not height[i] and state[i] in final}) > 1:
            outs = sorted(naive_outputs(vpt, word))
            return CounterExample(word, outs[0], outs[1])
        left = key[0] - 1  # symbols left after one more
        grown: dict[str, set[tuple[int, Word]]] = {}
        if left >= 0:
            for i, r in runs:
                for symbol, steps in graph.steps(i).items():
                    for j, o in steps:
                        if height[j] <= left:
                            grown.setdefault(symbol, set()).add((j, r + o))
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
    ``pushed`` memoises ``push`` by (finishers, gamma).  Shared by every
    caller through the cache; ``pushed`` is the one field written after
    construction, and only by ``push``, whose result it stores.
    """
    witnesses: dict[tuple[str, str], InputWord]
    pop_to: dict[tuple[str, str], frozenset[str]]
    can_finish: frozenset[str]
    pushed: dict[tuple[frozenset[str], str], frozenset[str]]

    def push(self, finishers: frozenset[str], gamma: str) -> frozenset[str]:
        """The finishers of a stack s + (gamma,), the states from which a
        run holding it can accept, given ``finishers``, those of s: the
        states q with some p in ``pop_to[(q, gamma)]`` among them.  These
        are the transitions of a finite automaton whose states are finisher
        sets, so each is computed from ``pop_to`` once and then looked up."""
        above = self.pushed.get((finishers, gamma))
        if above is None:
            above = self.pushed[finishers, gamma] = frozenset(
                q for (q, g), targets in self.pop_to.items()
                if g == gamma and not targets.isdisjoint(finishers))
        return above

    def finishers(self, stack: tuple[str, ...]) -> frozenset[str]:
        """The states from which a run holding ``stack`` can accept:
        ``can_finish`` under the empty stack, then one ``push`` per stack
        symbol, bottom first."""
        live = self.can_finish
        for gamma in stack:
            live = self.push(live, gamma)
        return live


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
    return WellMatched(
        witnesses=wit,
        pop_to={k: frozenset(v) for k, v in landings.items()},
        can_finish=frozenset(q for q in vpt.states
                             if any((q, f) in wit for f in vpt.final)),
        pushed={})


def co_accessible(vpt: Vpt, config: Configuration) -> bool:
    """Exact test: can ``config`` be continued into an accepting run?  Iff
    its state is among the finishers of its stack."""
    return config.state in well_matched(vpt).finishers(config.stack)


_Node = tuple[str, frozenset[str]]


# One entry per machine serves the reduction, the domain height and HTP's
# early exit.
@lru_cache(maxsize=16)
def _live_walk(vpt: Vpt) -> tuple[dict[_Node, InputWord],
                                  dict[_Node, list[tuple[_Node, InputWord]]]]:
    """One breadth-first walk over the live (state, F) nodes of ``vpt``.

    A run in state q holding stack s can still accept iff q is among the
    finishers F of s: ``can_finish`` for the empty stack, and one
    ``WellMatched.push`` per symbol above it.  That is the automaton of the
    regular set of co-accessible configurations (Bouajjani, Esparza and
    Maler, "Reachability analysis of pushdown automata", 1997) read
    bottom-up, and what a live run can go on to do depends on q and F
    alone.  The walk starts at (i, ``can_finish``) for each initial state i
    that can finish, in sorted order, and tries from each node (q, F):

    - a level move, one well-matched summary q -> p, to (p, F);
    - an ascent, one call from q pushing γ and then one summary from its
      target to p, to (p, F') with F' the finishers after pushing γ onto F.

    A move is kept only when it lands live, p in F or in F'.  Every prefix
    of an input word splits into well-matched segments and the calls left
    pending between them, and every configuration on a live run is live,
    so the nodes the walk meets are exactly the (state, finishers) pairs of
    the live configurations that runs reach from the initial ones, each
    node reached by its access word, and a run's stack height is the
    number of ascents on its path.  There can be |Q|·2^|Q| of them, one
    per state and finisher set; no budget caps the walk, and the machines
    of the benchmark pool meet at most 4 finisher sets each.

    Returns (access, ascents): ``access`` maps each node, in the order
    found, to the first word found reaching it, and ``ascents`` maps each
    node to its ascents as (node, word) pairs.  Shared by every caller
    through the cache, so read-only.
    """
    wm = well_matched(vpt)
    summaries: dict[str, list[tuple[str, InputWord]]] = {}
    for (q, p), word in wm.witnesses.items():
        summaries.setdefault(q, []).append((p, word))
    calls = _group(vpt.call_rules, lambda r: r.src)
    bottom = wm.can_finish
    access = {(q, bottom): () for q in sorted(vpt.initial) if q in bottom}
    ascents: dict[_Node, list[tuple[_Node, InputWord]]] = {}
    queue = deque(access)
    while queue:
        node = queue.popleft()
        q, live = node
        level = [((p, live), word) for p, word in summaries[q] if p in live]
        up = ascents[node] = []
        for c in calls.get(q, ()):
            above = wm.push(live, c.push)
            up += [((p, above), (c.symbol,) + word)
                   for p, word in summaries[c.dst] if p in above]
        for nxt, word in level + up:
            if nxt not in access:
                access[nxt] = access[node] + word
                queue.append(nxt)
    return access, ascents


def reduce(vpt: Vpt) -> Vpt:
    """Equivalent machine in which accessible configurations are co-accessible."""
    return reduce_with_map(vpt)[0]


# Only ``reduce`` reads it in the package; a few entries suffice.
@lru_cache(maxsize=16)
def reduce_with_map(vpt: Vpt) -> tuple[Vpt, dict[str, str], dict[str, str]]:
    """reduce() plus projections of new state/stack names onto the originals.

    The machine read through its ``_live_walk``: the states are the walk's
    nodes (q, F), F the finishers of the stack, and a stack symbol is (γ, F)
    with F the finishers of the stack below it.  A rule of the machine is
    kept between two nodes when its target is a node: an internal from
    (q, F) goes to (dst, F); a call from (q, F) pushes (γ, F) and goes to
    (dst, F') with F' = ``push(F, γ)``.  Returns are kept at the calls that
    push what they pop: for each kept call as above, a return from x popping
    γ is kept from every node (x, F') that a well-matched word leads dst to,
    popping (γ, F) and going to (y, F), y its target, when that is a node.
    So a return is kept exactly when a reachable configuration takes it to a
    node: the call's run goes on over that word to (x, F') with (γ, F) on
    top, every configuration on the way live because the last one is.  Every
    reachable configuration carries the finishers of its own stack in its
    state and symbols, and projecting the names maps the reachable
    configurations one to one onto the live configurations that runs of the
    machine reach, with the same steps and outputs: a step of a live run
    ends live, in a configuration whose (state, finishers) pair is a node.
    The states number as many as the walk's nodes, at most |Q|·2^|Q|, where
    a reduction that guesses the state each pending call is popped onto
    stays polynomial; but ``check_bm`` walks the same nodes for every
    machine, with no budget, to find the domain height.

    A name keeps the original when F is ``can_finish`` and otherwise gets
    the index of F in the order the walk first meets it, ``q@1`` and
    ``g@1``; ``_fresh_names`` resolves clashes, naming every (γ, F) pair
    so that a symbol's name does not depend on which others are pushed.
    The result is cached and shared by every caller, so the two maps are
    read-only.
    """
    wm = well_matched(vpt)
    nodes = _live_walk(vpt)[0]
    index: dict[frozenset[str], int] = {}  # finisher set -> order first met
    for _, live in nodes:
        index.setdefault(live, len(index))
    name = _fresh_names(nodes, index)
    sym = _fresh_names(itertools.product(vpt.stack_alphabet, index), index)
    internals_from = _group(vpt.internal_rules, lambda r: r.src)
    calls_from = _group(vpt.call_rules, lambda r: r.src)
    returns_from = _group(vpt.return_rules, lambda r: (r.src, r.pop))
    leads_to: dict[str, list[str]] = {}  # q -> the states a well-matched word leads q to
    for q, p in wm.witnesses:
        leads_to.setdefault(q, []).append(p)

    internals, calls, returns = set(), set(), set()
    for node in nodes:
        q, live = node
        internals |= {InternalRule(name[node], r.symbol, r.out, name[r.dst, live])
                      for r in internals_from.get(q, ()) if (r.dst, live) in nodes}
        for r in calls_from.get(q, ()):
            above = wm.push(live, r.push)
            if (r.dst, above) in nodes:
                calls.add(CallRule(name[node], r.symbol, r.out, sym[r.push, live],
                                   name[r.dst, above]))
                returns |= {ReturnRule(name[x, above], ret.symbol, ret.out, sym[r.push, live],
                                       name[ret.dst, live])
                            for x in leads_to[r.dst] if (x, above) in nodes
                            for ret in returns_from.get((x, r.push), ())
                            if (ret.dst, live) in nodes}

    bottom = {q: n for (q, live), n in name.items() if not index[live]}
    pushed = {r.push for r in calls}
    reduced = Vpt(alphabet=vpt.alphabet, states=frozenset(name.values()),
                  initial=frozenset(bottom[q] for q in vpt.initial & bottom.keys()),
                  final=frozenset(bottom[q] for q in vpt.final & bottom.keys()),
                  stack_alphabet=frozenset(pushed), call_rules=frozenset(calls),
                  return_rules=frozenset(returns), internal_rules=frozenset(internals))
    return (reduced, {n: q for (q, _), n in name.items()},
            {n: gamma for (gamma, _), n in sym.items() if n in pushed})


def _fresh_names(items: Iterable[_Node], index: dict[frozenset[str], int]) -> dict[_Node, str]:
    """The reduced name of each (name, finisher set) pair: the name itself
    under the set of index 0, ``can_finish``, else ``name@i`` with i the
    set's ``index``, with primes appended until it differs from every
    earlier one.  Pairs are taken by index, then name, so the original
    names come first and the result does not depend on the order of
    ``items``."""
    names: dict[_Node, str] = {}
    used: set[str] = set()
    for base, live in sorted(items, key=lambda item: (index[item[1]], item[0])):
        fresh = f"{base}@{index[live]}" if index[live] else base
        while fresh in used:
            fresh += "'"
        names[base, live] = fresh
        used.add(fresh)
    return names


# ---------------------------------------------------------------------------
# Bounded-height flattening

def fst_of(vpt: Vpt, k: int) -> FstMachine:
    """Finite-state restriction of ``vpt`` to stack heights <= k.

    States are the reachable live configurations themselves, met by one
    walk of the machine's ``config_graph``, so two configurations are never
    one state; only rules that lead to a live configuration of height <= k
    are kept.  At or above the domain height the bound cuts no live
    configuration, so the result holds every live configuration the
    machine reaches, which on a reduced machine is every reachable one.
    Raises StateExplosion past ``_CONFIG_BUDGET`` configurations.
    """
    if k < 0:
        raise ValueError("height bound must be >= 0")
    graph = config_graph(vpt)
    walk = list(graph.roots)
    met = set(walk)
    rules = []
    for i in walk:  # grows as the walk meets configurations
        for symbol, kept in graph.steps(i).items():
            for j, out in kept:
                if graph.height[j] <= k:
                    rules.append(FstRule(graph.configs[i], symbol, out, graph.configs[j]))
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
        rules=frozenset(rules),
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
