"""Deciding and searching the memory-boundedness properties.

Three tiers, strongest first: bounded memory (BM) holds iff the domain's
stack height is bounded and the height-restricted finite-state transducer is
twinned — both decided exactly here.  Height-bounded memory (HBM) and
current-height-bounded memory (OBM) are characterized by the horizontal and
matched twinning properties of the pushdown machine itself.  For those, one
bounded breadth-first search looks for two runs on a common input
u1·u2·u3·u4 whose loops u2 and u4 around a well-nested u3 change the delay
between them; the horizontal property is its special case u3 = u4 = ε.  A
Violated verdict carries a replayed, machine-checked witness, while
exhausting the bounds yields NoWitnessUpTo — never Holds, since the search
is not complete — and names the height and length searched, nothing else.
The search skips the joint runs whose delay is still (ε, ε) and can never
move, because no step with two different outputs is reachable from their
pair of states, heights ignored (the squared-machine view of Béal, Carton,
Prieur and Sakarovitch, "Squaring transducers", 2003); no verdict changes,
as ``_search`` argues.  Since a horizontal witness is also a matched one,
``classify_streamability`` runs the matched search first and skips the
horizontal one when the matched search ran to its bounds without a witness.

The twinning premises need a reduced machine, one where every accessible
configuration is co-accessible.  The checkers need only that property, so
every stage reads the machine it was given over its live configurations,
those that can still accept: the searches and the pump replay walk them,
BM flattens them into a finite-state transducer whose states are those
configurations, and witnesses name the caller's configurations; each is
re-verified on the caller's machine before being returned.  No stage
builds the reduction: the domain height and HTP's early exit read one
walk over the live (state, finisher set) nodes of the caller's machine,
``vpt_core._live_walk``, whose nodes are the reduction's states.  Every
stage reads the one well-matched summary ``vpt_core.well_matched`` of the
machine it works on, and walks the one graph of its live configurations,
``vpt_core.config_graph``, with no height bound of its own: the functional
probe, the searches, the flattening and the pump replay share it, and each
bounds the heights its own contract names.
Replays check through ``_require``, not ``assert``, so that ``python -O``
keeps them.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Hashable, Optional

from .delay_algebra import DelayPair, Word, delta, delta_extend
from .nested_words import is_well_nested, scan
from .vpt_core import (
    Configuration,
    CounterExample,
    FstMachine,
    FstRule,
    FunctionalUpTo,
    InputWord,
    NotFunctionalWitness,
    StateExplosion,
    Vpt,
    _CONFIG_BUDGET,
    _FUNCTIONAL_PROBE_LEN,
    _closure,
    _Node,
    _group,
    _live_walk,
    check_functional_bounded,
    co_accessible,
    config_graph,
    fst_of,
    reduce_with_map,  # unused here: perfbench/run.py traces it by this name
    step_runs,
    trim_fst,
    well_matched,
    well_matched_witnesses,  # unused here: perfbench/run.py traces it by this name
)


class InconsistentVerdicts(Exception):
    """The verdict ladder BM => OBM => HBM was contradicted: a bug, not data."""


class Outcome(enum.Enum):
    HOLDS = "Holds"
    VIOLATED = "Violated"
    NO_WITNESS_UP_TO = "NoWitnessUpTo"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class SearchBounds:
    max_height: int = 6
    max_len: int = 24

    def __post_init__(self):
        if self.max_height < 0 or self.max_len < 0:
            raise ValueError("search bounds must be non-negative")


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    witness: object = None
    bounds: Optional[SearchBounds] = None
    diagnostics: str = ""


@dataclass(frozen=True)
class FstTwinWitness:
    u1: InputWord
    u2: InputWord
    run1_rules: tuple[FstRule, ...]
    run2_rules: tuple[FstRule, ...]
    v1: Word
    v2: Word
    w1: Word
    w2: Word
    delay_before: DelayPair
    delay_after: DelayPair


@dataclass(frozen=True)
class VptTwinWitness:
    """Runs over u1·u2·u3·u4; a horizontal witness has u3 = u4 = ε."""
    u1: InputWord
    u2: InputWord
    u3: InputWord
    u4: InputWord
    init1: str
    init2: str
    configs1: tuple[Configuration, Configuration, Configuration, Configuration]
    configs2: tuple[Configuration, Configuration, Configuration, Configuration]
    outs1: tuple[Word, Word, Word, Word]
    outs2: tuple[Word, Word, Word, Word]
    delay_before: DelayPair
    delay_after: DelayPair


@dataclass(frozen=True)
class Bounded:
    h_max: int


@dataclass(frozen=True)
class Unbounded:
    state: str
    prefix: InputWord
    cycle: InputWord


@dataclass(frozen=True)
class StreamabilityReport:
    """The three verdicts plus the functionality probe they rest on: no
    conflict on any word up to ``functional.max_len``, nothing beyond."""
    bm: Verdict
    hbm: Verdict
    obm: Verdict
    functional: FunctionalUpTo


_NODE_BUDGET = 400_000


# ---------------------------------------------------------------------------
# Exact twinning for finite-state transducers

def check_fst_twinning(fst: FstMachine) -> Verdict:
    """Exact decision: two runs looping on a common input keep a fixed delay.

    The states may be any hashable values that compare with each other.
    Raises StateExplosion once the search has seen more than
    ``_CONFIG_BUDGET`` nodes.

    One depth-first forest over (state, state, delay) nodes, rooted at the
    pairs of initial states; a root starts a tree only if no earlier tree
    reached it.  Every edge, to a new node or a seen one, is checked against
    the current path: if it reaches a state pair that is on the path with
    another delay, the path from that pair plus the edge is a loop that
    changes the delay, and the search returns Violated.  If that never
    fires, every reachable node has been expanded and twinning holds:

    - No pair repeats on a path (a repeat with the same delay is a seen
      node, with another it fires), so paths hold at most |Q|² nodes, their
      delays stay short, and the explored graph is finite.
    - In the free group the delay of (u, v) is u⁻¹·v, so appending outputs
      (o1, o2) maps a delay d to o1⁻¹·d·o2: each step, and so each word,
      changes delays injectively.
    - Take the first node n the search enters in a strongly connected part
      of the pair graph.  Nothing n reaches in that part has been seen, so
      n stays on the path while all of it is found, and every edge back to
      n's pair is checked against n's delay.  Walking back to n's pair is
      injective, so the nodes found from n carry one delay per pair, and
      every loop in the part keeps every such delay.
    - A later entry into the part reaches none of those nodes, unless it is
      one of them: a loop through them would take its pair from its own
      delay to the one found from n, while the same loop keeps the latter,
      and an injective map cannot send two delays to one.  So it starts a
      part of unseen nodes, and the same argument holds for it.
    """
    m = trim_fst(fst)
    if not m.initial or not m.rules:
        return Verdict(Outcome.HOLDS, diagnostics="no two runs exist")
    by_symbol = _group(m.rules, lambda r: (r.src, r.symbol))
    symbols = sorted({r.symbol for r in m.rules})

    def expansions(node: tuple[Hashable, Hashable, DelayPair]):
        q1, q2, d = node
        for symbol in symbols:
            for r1 in by_symbol.get((q1, symbol), ()):
                for r2 in by_symbol.get((q2, symbol), ()):
                    yield (r1.dst, r2.dst, delta_extend(d, r1.out, r2.out)), r1, r2

    seen: set[tuple[Hashable, Hashable, DelayPair]] = set()
    for i1 in sorted(m.initial):
        for i2 in sorted(m.initial):
            root = (i1, i2, DelayPair((), ()))
            if root in seen:
                continue
            seen.add(root)
            # path entries: (node, its expansions, rule pair leading to it)
            path = [(root, expansions(root), None)]
            at = {(i1, i2): 0}  # state pair on the path -> its index
            while path:
                node, it, _ = path[-1]
                for nxt, r1, r2 in it:
                    j = at.get(nxt[:2])
                    if j is not None and path[j][0][2] != nxt[2]:
                        steps = [step for _, _, step in path[1:]] + [(r1, r2)]
                        return _fst_violation(m, steps, j)
                    if nxt not in seen:
                        seen.add(nxt)
                        if len(seen) > _CONFIG_BUDGET:
                            raise StateExplosion(
                                f"product delay graph exceeded {_CONFIG_BUDGET} nodes")
                        at[nxt[:2]] = len(path)
                        path.append((nxt, expansions(nxt), (r1, r2)))
                        break
                else:
                    path.pop()
                    del at[node[:2]]
    return Verdict(Outcome.HOLDS)


def _fst_violation(m: FstMachine, steps: list[tuple[FstRule, FstRule]],
                   k: int) -> Verdict:
    """The two runs take ``steps`` and loop back after the first ``k``."""
    run1 = tuple(r1 for r1, _ in steps)
    run2 = tuple(r2 for _, r2 in steps)
    word = tuple(r.symbol for r in run1)
    v1, v2, w1, w2 = (sum((r.out for r in rules), ())
                      for rules in (run1[:k], run1[k:], run2[:k], run2[k:]))
    witness = FstTwinWitness(
        u1=word[:k], u2=word[k:], run1_rules=run1, run2_rules=run2,
        v1=v1, v2=v2, w1=w1, w2=w2,
        delay_before=delta(v1, w1), delay_after=delta(v1 + v2, w1 + w2))
    verify_fst_twinning_witness(m, witness)
    return Verdict(Outcome.VIOLATED, witness=witness)


def _require(ok: bool, what: str) -> None:
    """A replay check: raise AssertionError(what) unless ``ok``."""
    if not ok:
        raise AssertionError(what)


def verify_fst_twinning_witness(fst: FstMachine, w: FstTwinWitness) -> None:
    """Replay both runs rule by rule; raises AssertionError on any mismatch."""
    _require(bool(w.u2), "the loop u2 is empty")
    word = w.u1 + w.u2
    for rules, out_all in ((w.run1_rules, w.v1 + w.v2), (w.run2_rules, w.w1 + w.w2)):
        _require(len(rules) == len(word), "run length differs from u1·u2")
        _require(not rules or rules[0].src in fst.initial,
                 "run does not start in an initial state")
        collected: Word = ()
        for rule, symbol in zip(rules, word):
            _require(rule in fst.rules, f"rule {rule} not in machine")
            _require(rule.symbol == symbol, "rule reads another symbol than u1·u2")
            collected += rule.out
        for prev, nxt in zip(rules, rules[1:]):
            _require(prev.dst == nxt.src, "runs do not chain")
        _require(collected == out_all, "run output differs from the claimed output")
    k = len(w.u1)
    q_mid1 = w.run1_rules[k - 1].dst if k else w.run1_rules[0].src
    q_mid2 = w.run2_rules[k - 1].dst if k else w.run2_rules[0].src
    _require(w.run1_rules[-1].dst == q_mid1, "run 1 does not loop")
    _require(w.run2_rules[-1].dst == q_mid2, "run 2 does not loop")
    _require(delta(w.v1, w.w1) == w.delay_before, "delay_before is not the delay after u1")
    _require(delta(w.v1 + w.v2, w.w1 + w.w2) == w.delay_after,
             "delay_after is not the delay after u1·u2")
    _require(w.delay_before != w.delay_after, "claimed delays are equal")


# ---------------------------------------------------------------------------
# Domain height

def domain_height_bounded(vpt: Vpt):
    """Bounded(h_max) or Unbounded(pump witness) for the domain's stack
    heights, read off the ascents of ``_live_walk``.

    A run's stack grows only by ascents, one call plus a well-matched walk
    each, and a prefix of an accepted word is a run through live
    configurations, so the domain's heights are the lengths of the ascent
    paths of the walk from its level-0 nodes: (p, ``can_finish``) with p
    reached from an initial state by a well-matched word.  One depth-first
    search from each node not yet finished, in the order the walk found
    them, follows the ascents.  An ascent onto the current path closes a
    cycle from a node (q, F) back to itself: the node's access word leads
    a run live into q over a stack with finishers F, and each turn of the
    cycle lifts it live into q again over a higher stack with the same
    finishers, from which the same moves are open, so the pump can be
    taken again and again.  That is Unbounded, on the caller's machine,
    whose replay ``_verify_pump`` checks.  Otherwise each finished node
    records the most ascents that start at it, and h_max is the most over
    the level-0 nodes.
    """
    access, ascents = _live_walk(vpt)
    height: dict[_Node, int] = {}  # finished node -> most ascents from it
    for start in access:
        if start in height:
            continue
        # path entries: (node, word of the ascent into it, its ascents left)
        path = [(start, (), iter(ascents[start]))]
        at = {start: 0}  # node on the path -> its index
        while path:
            node, _, it = path[-1]
            for nxt, word in it:
                j = at.get(nxt)
                if j is not None:
                    cycle = sum((w for _, w, _ in path[j + 1:]), ()) + word
                    return Unbounded(state=nxt[0], prefix=access[nxt], cycle=cycle)
                if nxt not in height:
                    at[nxt] = len(path)
                    path.append((nxt, word, iter(ascents[nxt])))
                    break
            else:
                path.pop()
                del at[node]
                height[node] = max((height[p] + 1 for p, _ in ascents[node]), default=0)
    wm = well_matched(vpt)
    return Bounded(h_max=max((height[p, wm.can_finish] for (a, p) in wm.witnesses
                              if a in vpt.initial and p in wm.can_finish), default=0))


# ---------------------------------------------------------------------------
# BM

def check_bm(vpt: Vpt) -> Verdict:
    """Exact: bounded domain height plus twinning of the height-capped FST.

    The paper twins the flattening of the reduction; this flattens the
    caller's machine, whose states are its live configurations themselves,
    within the domain height h_max, so the cap cuts none of them.  The
    flattening and its twinning product share the one budget
    ``_CONFIG_BUDGET``; past it the verdict is Unknown.  The reduction's
    reachable configurations project one to one onto the caller's live
    ones, rule for rule with the same outputs, so its flattening is this
    one in other names, and both are twinned or neither is.

    A twinning witness is replayed twice: rule by rule on the flattening,
    by ``verify_fst_twinning_witness``, and on the caller's machine, by
    ``_verify_flat_runs``.
    """
    shape = domain_height_bounded(vpt)
    if isinstance(shape, Unbounded):
        _verify_pump(vpt, shape)
        return Verdict(Outcome.VIOLATED, witness=shape,
                       diagnostics="domain height is unbounded")
    try:
        verdict = check_fst_twinning(fst_of(vpt, shape.h_max))
    except StateExplosion as exc:
        return Verdict(Outcome.UNKNOWN, diagnostics=str(exc))
    if verdict.outcome is Outcome.VIOLATED:
        _verify_flat_runs(vpt, verdict.witness)
        return replace(verdict, diagnostics=(
            f"twinning fails on the height-{shape.h_max} restriction"))
    return replace(verdict, diagnostics=f"domain height bounded by {shape.h_max}")


def _verify_flat_runs(vpt: Vpt, w: FstTwinWitness) -> None:
    """The runs of a flattening's witness are runs of ``vpt`` itself: each
    starts in an initial configuration at height 0, every rule is one step
    of the machine with its output, and the configuration the loop comes
    back to can still accept."""
    k = len(w.u1)
    for rules in (w.run1_rules, w.run2_rules):
        _require(rules[0].src.state in vpt.initial and not rules[0].src.stack,
                 "run does not start in an initial configuration")
        for r in rules:
            _require((r.dst, r.out) in step_runs(vpt, r.src, (r.symbol,)),
                     f"rule {r} is not a step of the machine")
        _require(co_accessible(vpt, rules[k - 1].dst if k else rules[0].src),
                 "the loop's configuration cannot accept")


def _verify_pump(vpt: Vpt, w: Unbounded) -> None:
    """The pump witness must keep runs alive while the pending height grows.

    One walk of the live configurations along prefix·cycle·cycle, from the
    live initial ones, without outputs: a run that can no longer accept
    does not count as alive.  All runs on one word hold the same number of
    stack symbols, the word's pending calls, so the ascent is read off the
    word itself, and the walk needs no height bound of its own."""
    _require(all(s in vpt.alphabet for s in w.prefix + w.cycle),
             "pump witness reads a symbol outside the alphabet")
    graph = config_graph(vpt)
    runs = set(graph.roots)
    for symbol in w.prefix + w.cycle + w.cycle:
        runs = {j for i in runs for j, _ in graph.steps(i).get(symbol, ())}
    _require(bool(runs), "pump witness replay died")
    _require(scan(w.prefix + w.cycle, vpt.alphabet).hc > scan(w.prefix, vpt.alphabet).hc,
             "pump witness does not ascend")


# ---------------------------------------------------------------------------
# Twinning search (HTP and MTP)

def _wn_loop_states(vpt: Vpt) -> set[str]:
    """States with a nonempty well-nested input loop back to themselves."""
    summary = well_matched(vpt)
    wm = summary.witnesses
    # one internal step, or one call wrapped around a well-nested word and
    # closed by its matching return
    steps = {(r.src, r.dst) for r in vpt.internal_rules}
    steps |= {(c.src, p) for c in vpt.call_rules
              for p in summary.pop_to.get((c.dst, c.push), ())}
    loops: set[str] = set()
    for q in vpt.states:
        for (a, b) in steps:
            if (q, a) in wm and (b, q) in wm:
                loops.add(q)
                break
    return loops


def check_htp(vpt: Vpt, bounds: Optional[SearchBounds] = None) -> Verdict:
    """Search for two runs on a common input looping (each on its own
    configuration) around a common well-nested word with diverging delay.

    This is the matched search of ``check_mtp`` with u3 = u4 = ε: the loop
    closes as soon as u2 does.  It may only start on two states that each
    admit a nonempty well-nested loop; when no state admits one, no witness
    of any size exists and the search is skipped."""
    return _twinning_search(vpt, bounds or SearchBounds(), horizontal=True)


def check_mtp(vpt: Vpt, bounds: Optional[SearchBounds] = None) -> Verdict:
    """Search for matched ascent/descent loops (u2/u4 around a well-nested
    u3) whose pumping changes the delay between two runs on a common input."""
    return _twinning_search(vpt, bounds or SearchBounds(), horizontal=False)


def _twinning_search(vpt: Vpt, bounds: SearchBounds, horizontal: bool,
                     search: bool = True) -> Verdict:
    """One property's verdict; ``search=False`` runs only the early exits and
    otherwise answers what a search that ran to the bounds without a witness
    answers.

    HTP's early exit reads the states with a nonempty well-nested loop
    among the states of the nodes of ``_live_walk``, the (state,
    finishers) pairs of the live configurations reachable from the initial
    ones.  Those nodes are the reduction's states, so a state is among
    them iff the reduction keeps a state over it.
    """
    if not vpt.initial & well_matched(vpt).can_finish:
        return Verdict(Outcome.NO_WITNESS_UP_TO, bounds=bounds,
                       diagnostics="empty domain")
    loopers = None
    if horizontal:
        loopers = _wn_loop_states(vpt) & {q for q, _ in _live_walk(vpt)[0]}
        if not loopers:
            return Verdict(Outcome.NO_WITNESS_UP_TO, bounds=bounds, diagnostics=(
                "no state has a nonempty well-nested loop, so no witness of "
                "any size exists"))

    if not search:
        return Verdict(Outcome.NO_WITNESS_UP_TO, bounds=bounds)
    steps, exhaustive_to = _search(vpt, bounds, loopers)
    if steps is not None:
        return _witness(vpt, steps)
    if exhaustive_to is not None:
        return Verdict(Outcome.NO_WITNESS_UP_TO,
                       bounds=replace(bounds, max_len=exhaustive_to), diagnostics=(
                           "node budget exhausted; exhaustive only up to "
                           f"length {exhaustive_to}"))
    return Verdict(Outcome.NO_WITNESS_UP_TO, bounds=bounds)


def _search(vpt: Vpt, bounds: SearchBounds, loopers: Optional[set[str]]):
    """Breadth-first search over joint-run nodes, one layer per input length.

    A node is (phase, c1, c2, dA, dF, ah, floor, s1, s2): the phase says
    which of u1..u4 is being read, c1/c2 are the two runs' configurations,
    dF the delay over everything read and dA the delay over u1·u3 alone
    (the word with both loops cut out; None before the loops start).  ah
    is the loop's anchor height, floor the height no return may pop below,
    and s1/s2 the states the current loop must come back to (the u2 anchor
    in phase 2, the end of u3 in phase 4).  ε-steps hand over from one
    phase to the next.  A loop closes in the last phase, back at the anchor
    height in states s1/s2 with dA != dF, which needs u2·u4 nonempty.

    Only a child, a node reached by a symbol, is tested for closing.  An
    ε-step into phase 4 at the anchor height, which keeps the states s1/s2,
    never needs the test.  Say it leads to a node with dA != dF after
    u1·u2·u3.  If u3 = ε, the path (u1, ε, ε, u2) reads u2 in phase 4 with
    the same heights, states and delays, so the same node is first made
    one layer earlier, as a child, and closes there.  If u3 != ε, both
    delays are the ones after u1 and after u1·u2, each extended by u3's
    two outputs, and appending outputs maps delays injectively (see
    ``check_fst_twinning``), so the delays after u1 and u1·u2 differ, and
    the path (u1, ε, ε, u2) closes at a shorter length.

    Horizontal mode (``loopers`` given) ends in phase 2, so u3 = u4 = ε,
    and enters phase 2 only on a pair of states with a nonempty
    well-nested loop.

    The two bounds are the only limits: no call is taken at max_height, as
    no return is taken at the floor, so no stack grows past max_height, and
    no run reads more than max_len symbols, so no delay exceeds max_len·M
    letters, M the longest rule output.  The last layer takes its ε-steps
    but reads no further symbol.

    The search walks the caller's machine over the live configurations of
    its ``config_graph``, from the live initial ones.  The reduction's
    reachable configurations project one to one onto those, with the same
    steps, outputs and heights, so the nodes are those of a search of the
    reduction read in the caller's names, layer by layer.  The loop gates
    read the caller's states; ``loopers`` holds those with a nonempty
    well-nested loop among the states of ``_live_walk``'s nodes, the
    reduction's states, and such a loop lifts and projects as any run
    does.  Children may come in another order, so the witness may be
    another of the same length.

    Configurations are the ids of the machine's ``config_graph``, shared
    with every other stage and every bound, and delays are interned as
    small ints too, so a node is a flat tuple of ints plus s1/s2 and hashes
    without walking stacks or delay words.  Runs on one word always have
    equal stack heights, so run 1's height gates both runs' moves.  Delays
    are interned by equality, so comparing two ids is comparing the
    delays, and ``delta_extend`` runs once per distinct (delay, output,
    output) triple; a step that appends no output to either run leaves
    both delays as they are.  Children are generated by symbol, then run
    1's move, then run 2's, so the search meets the same first witness as
    one over the objects themselves.

    A node whose delays are both ε (dF is ε and dA is None or ε) at two
    configurations whose states ``_still_pairs`` finds unable to reach a
    joint step with two different outputs is never enqueued, nor is
    anything below it, and no root is enqueued when no initial pair can
    diverge:

    - From (ε, ε), two equal outputs give (ε, ε) again, and such a pair
      only steps to pairs of its kind, so every node below a dropped one
      keeps dA = dF = ε.  Both closing tests need dA != dF, so nothing
      below a dropped node can close.
    - Every node the search keeps was first discovered, in the search
      without the cut, by a node it keeps too: a dropped node's children
      are all dropped.  So each kept node keeps its discoverer, its
      ``preds`` entry and its place in its layer, and the first closing
      node and its chain, the witness, are the same.
    - The cut search enqueues a subset of the nodes, so it hits the node
      budget at the same layer or later, and only where the uncut search
      ran out of nodes can it reach further or find a witness, which is
      replayed as every witness is.

    Returns (the steps from the root to the closing node, each the node
    it leads to as (phase, Configuration, Configuration) followed by its
    symbol, None for an ε-step or the root, and the two outputs, or None
    when no loop closes; the length up to which the search was exhaustive
    when the node budget ran out, else None).
    """
    graph = config_graph(vpt)
    height, state, succ = graph.height, graph.state, graph.succ
    calls, returns = vpt.alphabet.calls, vpt.alphabet.returns
    may_loop = vpt.states if loopers is None else loopers

    delays: list[DelayPair] = [DelayPair((), ())]
    delay_id: dict[DelayPair, int] = {delays[0]: 0}
    extended: dict[tuple[int, Word, Word], int] = {}

    def extend(d: int, o1: Word, o2: Word) -> int:
        grown = delta_extend(delays[d], o1, o2)
        e = delay_id.get(grown)
        if e is None:
            e = delay_id[grown] = len(delays)
            delays.append(grown)
        extended[d, o1, o2] = e
        return e

    def chain(n: Optional[tuple]) -> list[tuple]:
        steps = []
        while n is not None:
            prev, symbol, o1, o2 = preds[n]
            steps.append((n[0], graph.configs[n[1]], graph.configs[n[2]], symbol, o1, o2))
            n = prev
        return steps[::-1]

    last = 4 if loopers is None else 2
    still = _still_pairs(vpt)
    preds: dict[tuple, tuple[Optional[tuple], Optional[str], Word, Word]] = {}
    layer: deque[tuple] = deque()
    for i1 in graph.roots:
        for i2 in graph.roots:
            if (state[i1], state[i2]) in still:
                continue
            node = (1, i1, i2, None, 0, 0, 0, None, None)
            preds[node] = (None, None, (), ())
            layer.append(node)

    for length in range(bounds.max_len + 1):
        if not layer:
            break
        reads = length < bounds.max_len
        nxt_layer: deque[tuple] = deque()
        work = layer
        while work:
            node = work.popleft()
            phase, i1, i2, a, f, ah, floor, s1, s2 = node
            eps = None
            if phase == 1:
                if state[i1] in may_loop and state[i2] in may_loop:
                    h = height[i1]
                    eps = (2, i1, i2, f, f, h, h, state[i1], state[i2])
            elif phase == 2:
                if phase < last and state[i1] == s1 and state[i2] == s2:
                    eps = (3, i1, i2, a, f, ah, height[i1], None, None)
            elif phase == 3 and height[i1] == floor:
                eps = (4, i1, i2, a, f, ah, ah, state[i1], state[i2])
            if eps is not None and eps not in preds:
                preds[eps] = (node, None, (), ())
                work.append(eps)
            if not reads:
                continue
            # reading succ first skips a call per filled table, which in
            # this, the hottest loop, is worth about 3 % of a pool pass
            steps1 = succ[i1] or graph.steps(i1)
            steps2 = succ[i2] or graph.steps(i2)
            at_floor = height[i1] <= floor
            at_top = height[i1] >= bounds.max_height
            for symbol, moves1 in steps1.items():
                if at_floor and symbol in returns or at_top and symbol in calls:
                    continue  # a pop would dip below the loop, a push above the bound
                moves2 = steps2.get(symbol)
                if moves2 is None:
                    continue
                for (n1, o1) in moves1:
                    for (n2, o2) in moves2:
                        if o1 or o2:
                            f2 = extended.get((f, o1, o2))
                            if f2 is None:
                                f2 = extend(f, o1, o2)
                            if phase == 3:
                                a2 = extended.get((a, o1, o2))
                                if a2 is None:
                                    a2 = extend(a, o1, o2)
                            else:
                                a2 = a
                        else:
                            f2, a2 = f, a  # nothing appended, no delay moves
                        if not f2 and not a2 and (state[n1], state[n2]) in still:
                            continue  # both delays ε, and they can never move
                        child = (phase, n1, n2, a2, f2, ah, floor, s1, s2)
                        if child in preds:
                            continue
                        preds[child] = (node, symbol, o1, o2)
                        if phase == last and height[n1] == ah and a2 != f2 \
                                and state[n1] == s1 and state[n2] == s2:
                            return chain(child), None
                        if len(preds) > _NODE_BUDGET:
                            return None, max(length - 1, 0)
                        nxt_layer.append(child)
        layer = nxt_layer
    return None, None


# One entry per machine serves every bound and both searches.
@lru_cache(maxsize=16)
def _still_pairs(vpt: Vpt) -> frozenset[tuple[str, str]]:
    """The pairs of states of two runs on one input from which no joint
    step with two different outputs can be reached, among those reachable
    from two initial states.

    A joint step is two rules that read one symbol; heights are ignored and
    pops are not matched against the stacks, so the pair graph, the squared
    machine without its stacks, over-approximates every joint run.  Every
    step the search takes from two configurations is a joint step of their
    states, so a delay of (ε, ε) at such a pair stays (ε, ε).  One pass
    from the initial pairs marks the pairs with a step of two different
    outputs and keeps the edges of the others reversed; their ``_closure``
    from the marked pairs holds every pair that reaches a marked one.
    """
    by_src: dict[str, dict[str, set[tuple[str, Word]]]] = {}
    for rules in (vpt.call_rules, vpt.return_rules, vpt.internal_rules):
        for r in rules:
            by_src.setdefault(r.src, {}).setdefault(r.symbol, set()).add((r.dst, r.out))
    seen = {(q1, q2) for q1 in vpt.initial for q2 in vpt.initial}
    todo = list(seen)
    back: dict[tuple[str, str], list[tuple[str, str]]] = {}
    moving: set[tuple[str, str]] = set()
    while todo:
        node = todo.pop()
        q1, q2 = node
        moves2 = by_src.get(q2, {})
        for symbol, moves1 in by_src.get(q1, {}).items():
            for d2, o2 in moves2.get(symbol, ()):
                for d1, o1 in moves1:
                    child = (d1, d2)
                    if o1 != o2:
                        moving.add(node)
                    else:
                        back.setdefault(child, []).append(node)
                    if child not in seen:
                        seen.add(child)
                        todo.append(child)
    return frozenset(seen - _closure(moving, back))


def _witness(vpt: Vpt, steps: list[tuple]) -> Verdict:
    """Read u1..u4 off the steps from the root to the closing node: each
    symbol belongs to the phase of the node it leads to, and the ε-steps
    into phases 2, 3 and 4 mark the configurations after u1, u2 and u3 (a
    horizontal loop closes in phase 2, so its u3 and u4 are empty and end
    where u2 does)."""
    u = {k: () for k in (1, 2, 3, 4)}
    v = dict(u)
    w = dict(u)
    marks = {}
    for phase, c1, c2, sym, o1, o2 in steps:
        if sym is None:
            marks[phase] = (c1, c2)
        else:
            u[phase] += (sym,)
            v[phase] += o1
            w[phase] += o2
    init1, init2 = steps[0][1].state, steps[0][2].state
    end = steps[-1][1:3]
    A, B, C, D = marks[2], marks.get(3, end), marks.get(4, end), end
    witness = VptTwinWitness(
        u1=u[1], u2=u[2], u3=u[3], u4=u[4],
        init1=init1, init2=init2,
        configs1=(A[0], B[0], C[0], D[0]),
        configs2=(A[1], B[1], C[1], D[1]),
        outs1=(v[1], v[2], v[3], v[4]),
        outs2=(w[1], w[2], w[3], w[4]),
        delay_before=delta(v[1] + v[3], w[1] + w[3]),
        delay_after=delta(v[1] + v[2] + v[3] + v[4],
                          w[1] + w[2] + w[3] + w[4]))
    verify_vpt_twinning_witness(vpt, witness)
    return Verdict(Outcome.VIOLATED, witness=witness)


def verify_vpt_twinning_witness(vpt: Vpt, w: VptTwinWitness) -> None:
    """Replay both runs through the four segments on the given machine and
    re-check every premise plus the delay divergence; AssertionError on any
    mismatch."""
    _require(all(s in vpt.alphabet for s in w.u1 + w.u2 + w.u3 + w.u4),
             "witness reads a symbol outside the alphabet")
    _require(len(w.u2) + len(w.u4) >= 1, "both loops are empty")
    _require(is_well_nested(w.u3, vpt.alphabet), "u3 is not well-nested")
    _require(is_well_nested(w.u2 + w.u4, vpt.alphabet), "u2·u4 is not well-nested")
    for init, cfgs, outs in ((w.init1, w.configs1, w.outs1),
                             (w.init2, w.configs2, w.outs2)):
        _require(init in vpt.initial, "run does not start in an initial state")
        A, B, C, D = cfgs
        _require(B.state == A.state, "ascent loop does not return to its state")
        _require(B.stack[: len(A.stack)] == A.stack, "ascent loop touched the base")
        _require(C.stack == B.stack, "u3 changed the stack")
        _require(D.state == C.state, "descent loop does not return to its state")
        _require(D.stack == A.stack, "descent loop did not restore the stack")
        cur = Configuration(init, ())
        for word, out, target in zip((w.u1, w.u2, w.u3, w.u4), outs, cfgs):
            _require((target, out) in step_runs(vpt, cur, word), "segment replay failed")
            cur = target
        _require(co_accessible(vpt, D), "end configuration is not co-accessible")
    v1, v2, v3, v4 = w.outs1
    w1, w2, w3, w4 = w.outs2
    _require(delta(v1 + v3, w1 + w3) == w.delay_before,
             "delay_before is not the delay over u1·u3")
    _require(delta(v1 + v2 + v3 + v4, w1 + w2 + w3 + w4) == w.delay_after,
             "delay_after is not the delay over u1·u2·u3·u4")
    _require(w.delay_before != w.delay_after, "claimed delays are equal")


# ---------------------------------------------------------------------------
# Combined report

def classify_streamability(vpt: Vpt,
                           bounds: Optional[SearchBounds] = None) -> StreamabilityReport:
    bounds = bounds or SearchBounds()
    probe = check_functional_bounded(vpt, min(bounds.max_len, _FUNCTIONAL_PROBE_LEN))
    if isinstance(probe, CounterExample):
        raise NotFunctionalWitness(probe.word, probe.out1, probe.out2)
    obm = check_mtp(vpt, bounds)
    if obm.outcome is Outcome.NO_WITNESS_UP_TO and obm.bounds == bounds:
        # the matched search closes any horizontal witness two ε-steps after
        # the horizontal one would, at the same length, so a matched search
        # that ran to its bounds without a witness leaves none to find here
        hbm = _twinning_search(vpt, bounds, horizontal=True, search=False)
    else:
        hbm = check_htp(vpt, bounds)
    bm = check_bm(vpt)

    if hbm.outcome is Outcome.VIOLATED and obm.outcome is not Outcome.VIOLATED:
        # any horizontal witness is a matched witness with empty u3/u4, and
        # check_htp has replayed it on this machine already
        obm = Verdict(Outcome.VIOLATED, witness=hbm.witness,
                      diagnostics="transferred from the horizontal witness")
    if bm.outcome is Outcome.HOLDS and (hbm.outcome is Outcome.VIOLATED
                                        or obm.outcome is Outcome.VIOLATED):
        raise InconsistentVerdicts(
            "bounded memory holds but a twinning violation was found")
    return StreamabilityReport(bm=bm, hbm=hbm, obm=obm, functional=probe)
