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
is not complete.

All searches run on the reduced machine (accessible implies co-accessible
there, which the twinning premises need) and witnesses are projected back to
the caller's machine and re-verified on it before being returned.  Every
stage reads the one well-matched summary ``vpt_core.well_matched`` of the
machine it works on, and steps configurations with ``vpt_core.moves``.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, replace
from typing import Optional

from .delay_algebra import DelayPair, Word, delta, delta_extend
from .nested_words import SymbolKind, is_well_nested
from .vpt_core import (
    Configuration,
    CounterExample,
    FstMachine,
    FstRule,
    InputWord,
    NotFunctionalWitness,
    StateExplosion,
    Vpt,
    check_functional_bounded,
    co_accessible,
    fst_of,
    metrics,
    moves,
    reduce_with_map,
    rule_index,
    run_dconfigs,
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
    delay_cap: Optional[int] = None  # None: 3·|Q|²·M of the searched machine

    def __post_init__(self):
        if self.max_height < 0 or self.max_len < 0 \
                or (self.delay_cap is not None and self.delay_cap < 0):
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
    bm: Verdict
    hbm: Verdict
    obm: Verdict


_NODE_BUDGET = 400_000


# ---------------------------------------------------------------------------
# Exact twinning for finite-state transducers

def check_fst_twinning(fst: FstMachine,
                       node_budget: Optional[int] = None) -> Verdict:
    """Exact decision: two runs looping on a common input keep a fixed delay.

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
    by_symbol: dict[tuple[str, str], list[FstRule]] = {}
    for r in sorted(m.rules):
        by_symbol.setdefault((r.src, r.symbol), []).append(r)
    symbols = sorted({r.symbol for r in m.rules})

    def expansions(node: tuple[str, str, DelayPair]):
        q1, q2, d = node
        for symbol in symbols:
            for r1 in by_symbol.get((q1, symbol), ()):
                for r2 in by_symbol.get((q2, symbol), ()):
                    yield (r1.dst, r2.dst, delta_extend(d, r1.out, r2.out)), r1, r2

    seen: set[tuple[str, str, DelayPair]] = set()
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
                        if node_budget is not None and len(seen) > node_budget:
                            raise StateExplosion(
                                f"product delay graph exceeded {node_budget} nodes")
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


def verify_fst_twinning_witness(fst: FstMachine, w: FstTwinWitness) -> None:
    """Replay both runs rule by rule; raises AssertionError on any mismatch."""
    word = w.u1 + w.u2
    for rules, out_all in ((w.run1_rules, w.v1 + w.v2), (w.run2_rules, w.w1 + w.w2)):
        assert len(rules) == len(word)
        assert rules[0].src in fst.initial if rules else True
        collected: Word = ()
        for rule, symbol in zip(rules, word):
            assert rule in fst.rules, f"rule {rule} not in machine"
            assert rule.symbol == symbol
            collected += rule.out
        for prev, nxt in zip(rules, rules[1:]):
            assert prev.dst == nxt.src, "runs do not chain"
        assert collected == out_all
    k = len(w.u1)
    q_mid1 = w.run1_rules[k - 1].dst if k else w.run1_rules[0].src
    q_mid2 = w.run2_rules[k - 1].dst if k else w.run2_rules[0].src
    assert w.run1_rules[-1].dst == q_mid1, "run 1 does not loop"
    assert w.run2_rules[-1].dst == q_mid2, "run 2 does not loop"
    assert delta(w.v1, w.w1) == w.delay_before
    assert delta(w.v1 + w.v2, w.w1 + w.w2) == w.delay_after
    assert w.delay_before != w.delay_after, "claimed delays are equal"


# ---------------------------------------------------------------------------
# Domain height

def _ascend_edges(vpt: Vpt) -> dict[str, list[tuple[str, InputWord]]]:
    """q -> p whenever one call from q plus a well-matched walk lands on p one
    level higher; the word realizes the ascent."""
    wmw = well_matched(vpt).witnesses
    edges: dict[str, list[tuple[str, InputWord]]] = {}
    for r in sorted(vpt.call_rules):
        for (a, p), word in sorted(wmw.items()):
            if a == r.dst:
                edges.setdefault(r.src, []).append((p, (r.symbol,) + word))
    return edges


def _access_words(vpt: Vpt) -> dict[str, InputWord]:
    """Some input word reaching each forward-reachable state."""
    wmw = well_matched(vpt).witnesses
    words: dict[str, InputWord] = {q: () for q in sorted(vpt.initial)}
    changed = True
    while changed:
        changed = False
        for q in list(words):
            for r in sorted(vpt.internal_rules):
                if r.src == q and r.dst not in words:
                    words[r.dst] = words[q] + (r.symbol,)
                    changed = True
            for r in sorted(vpt.call_rules):
                if r.src == q and r.dst not in words:
                    words[r.dst] = words[q] + (r.symbol,)
                    changed = True
            for (a, p), word in wmw.items():
                if a == q and p not in words:
                    words[p] = words[q] + word
                    changed = True
    return words


def domain_height_bounded(vpt: Vpt):
    """Bounded(h_max) or Unbounded(pump witness); expects a reduced machine."""
    edges = _ascend_edges(vpt)
    color: dict[str, int] = {}
    for start in sorted(vpt.states):
        if color.get(start, 0) != 0:
            continue
        found = _find_ascent_cycle(start, edges, color)
        if found is not None:
            state, cycle_word = found
            access = _access_words(vpt)
            return Unbounded(state=state, prefix=access.get(state, ()),
                             cycle=cycle_word)

    level = {p for (a, p) in well_matched(vpt).witnesses if a in vpt.initial}
    h_max = 0
    k = 0
    while level:
        nxt_states = {p for q in level for p, _ in edges.get(q, ())}
        k += 1
        if nxt_states:
            h_max = k
        if k > len(vpt.states) + 1:
            raise AssertionError("ascent iteration exceeded |Q| without a cycle")
        level = nxt_states
    return Bounded(h_max=h_max)


def _find_ascent_cycle(start: str, edges: dict[str, list[tuple[str, InputWord]]],
                       color: dict[str, int]) -> Optional[tuple[str, InputWord]]:
    """Iterative DFS; returns (state on cycle, input word realizing the cycle)."""
    path: list[tuple[str, InputWord]] = [(start, ())]
    iters = [iter(edges.get(start, ()))]
    color[start] = 1
    while iters:
        advanced = False
        for (nxt, word) in iters[-1]:
            if color.get(nxt, 0) == 1:
                idx = next(i for i, (s, _) in enumerate(path) if s == nxt)
                cycle_word = sum((w for (_, w) in path[idx + 1:]), ()) + word
                return (nxt, cycle_word)
            if color.get(nxt, 0) == 0:
                color[nxt] = 1
                path.append((nxt, word))
                iters.append(iter(edges.get(nxt, ())))
                advanced = True
                break
        if not advanced:
            state, _ = path.pop()
            color[state] = 2
            iters.pop()
    return None


# ---------------------------------------------------------------------------
# BM

def check_bm(vpt: Vpt, config_budget: int = 200_000) -> Verdict:
    """Exact: bounded domain height plus twinning of the height-capped FST."""
    reduced, state_map, _ = reduce_with_map(vpt)
    shape = domain_height_bounded(reduced)
    if isinstance(shape, Unbounded):
        shape = replace(shape, state=state_map[shape.state])
        _verify_pump(vpt, shape)
        return Verdict(Outcome.VIOLATED, witness=shape,
                       diagnostics="domain height is unbounded")
    try:
        flat = fst_of(reduced, shape.h_max, max_states=config_budget)
        verdict = check_fst_twinning(flat, node_budget=config_budget)
    except StateExplosion as exc:
        return Verdict(Outcome.UNKNOWN, diagnostics=str(exc))
    if verdict.outcome is Outcome.VIOLATED:
        return replace(verdict, diagnostics=(
            f"twinning fails on the height-{shape.h_max} restriction"))
    return replace(verdict, diagnostics=f"domain height bounded by {shape.h_max}")


def _verify_pump(vpt: Vpt, w: Unbounded) -> None:
    """The pump witness must keep runs alive while the pending height grows."""
    def heights(word: InputWord) -> list[int]:
        return [len(dc.stack) for dc in run_dconfigs(vpt, word)]

    assert heights(w.prefix + w.cycle + w.cycle), "pump witness replay died"
    assert max(heights(w.prefix + w.cycle)) > max(heights(w.prefix)), \
        "pump witness does not ascend"


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


def _joint_pairs(vpt: Vpt) -> set[tuple[str, str]]:
    """State pairs jointly reachable on a common input, stacks abstracted:
    a return may pop any stack symbol, so this over-approximates."""
    idx = rule_index(vpt)
    pops = sorted(vpt.stack_alphabet)

    def successors(q: str, symbol: str) -> list[str]:
        kind = idx.kind[symbol]
        if kind is SymbolKind.CALL:
            return [r.dst for r in idx.calls.get((symbol, q), ())]
        if kind is SymbolKind.INTERNAL:
            return [r.dst for r in idx.internals.get((symbol, q), ())]
        return [r.dst for g in pops for r in idx.returns.get((symbol, q, g), ())]

    pairs = {(a, b) for a in vpt.initial for b in vpt.initial}
    frontier = list(pairs)
    while frontier:
        (a, b) = frontier.pop()
        for symbol in idx.symbols:
            steps_b = successors(b, symbol)
            for na in successors(a, symbol):
                for nb in steps_b:
                    if (na, nb) not in pairs:
                        pairs.add((na, nb))
                        frontier.append((na, nb))
    return pairs


def _delay_len(d: DelayPair) -> int:
    return max(len(d.left), len(d.right))


def _resolve_cap(bounds: SearchBounds, vpt: Vpt) -> int:
    if bounds.delay_cap is not None:
        return bounds.delay_cap
    m = metrics(vpt)
    return 3 * m.n ** 2 * max(m.M, 1)


def _project_config(cfg: Configuration, state_map: dict[str, str],
                    sym_map: dict[str, str]) -> Configuration:
    return Configuration(state_map[cfg.state],
                         tuple(sym_map[g] for g in cfg.stack))


def check_htp(vpt: Vpt, bounds: Optional[SearchBounds] = None) -> Verdict:
    """Search for two runs on a common input looping (each on its own
    configuration) around a common well-nested word with diverging delay.

    This is the matched search of ``check_mtp`` with u3 = u4 = ε: the loop
    closes as soon as u2 does.  It may only start on two states that each
    admit a nonempty well-nested loop; when no jointly reachable pair of
    such states exists, no witness of any size does and the search is
    skipped."""
    return _twinning_search(vpt, bounds or SearchBounds(), horizontal=True)


def check_mtp(vpt: Vpt, bounds: Optional[SearchBounds] = None) -> Verdict:
    """Search for matched ascent/descent loops (u2/u4 around a well-nested
    u3) whose pumping changes the delay between two runs on a common input."""
    return _twinning_search(vpt, bounds or SearchBounds(), horizontal=False)


def _twinning_search(vpt: Vpt, bounds: SearchBounds, horizontal: bool) -> Verdict:
    reduced, state_map, sym_map = reduce_with_map(vpt)
    cap = _resolve_cap(bounds, reduced)
    eff = replace(bounds, delay_cap=cap)
    if not reduced.initial:
        return Verdict(Outcome.NO_WITNESS_UP_TO, bounds=eff,
                       diagnostics="empty domain")
    loopers = None
    if horizontal:
        loopers = _wn_loop_states(reduced)
        if not loopers or not any(a in loopers and b in loopers
                                  for (a, b) in _joint_pairs(reduced)):
            return Verdict(Outcome.NO_WITNESS_UP_TO, bounds=eff, diagnostics=(
                "no jointly reachable state pair admits a nonempty well-nested "
                "loop, so no witness of any size exists"))

    preds, final, exhaustive_to = _search(reduced, state_map, bounds, cap, loopers)
    if final is not None:
        return _witness(vpt, state_map, sym_map, preds, final)
    if exhaustive_to is not None:
        return Verdict(Outcome.NO_WITNESS_UP_TO,
                       bounds=replace(eff, max_len=exhaustive_to), diagnostics=(
                           "node budget exhausted; exhaustive only up to "
                           f"length {exhaustive_to}"))
    return Verdict(Outcome.NO_WITNESS_UP_TO, bounds=eff)


def _search(reduced: Vpt, state_map: dict[str, str], bounds: SearchBounds,
            cap: int, loopers: Optional[set[str]]):
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

    Horizontal mode (``loopers`` given) ends in phase 2, so u3 = u4 = ε,
    and enters phase 2 only on a pair of looping states.

    The loop gates compare states of the caller's machine, not the reduced
    one: the reduction refines states by pop obligation, and a loop that is
    closed upstairs may look open downstairs after refinement.

    Returns (preds, closing node or None, the length up to which the search
    was exhaustive when the node budget ran out, else None).
    """
    idx = rule_index(reduced)
    max_height = bounds.max_height
    last = 4 if loopers is None else 2
    empty = DelayPair((), ())
    preds: dict[tuple, Optional[tuple[tuple, Optional[str], Word, Word]]] = {}
    layer: deque[tuple] = deque()
    for i1 in sorted(reduced.initial):
        for i2 in sorted(reduced.initial):
            node = (1, Configuration(i1, ()), Configuration(i2, ()),
                    None, empty, 0, 0, None, None)
            preds[node] = None
            layer.append(node)

    for length in range(bounds.max_len + 1):
        if not layer:
            break
        nxt_layer: deque[tuple] = deque()
        work = layer
        while work:
            node = work.popleft()
            phase, c1, c2, dA, dF, ah, floor, s1, s2 = node
            eps = None
            if phase == 1:
                if loopers is None or (c1.state in loopers and c2.state in loopers):
                    h = len(c1.stack)
                    eps = (2, c1, c2, dF, dF, h, h,
                           state_map[c1.state], state_map[c2.state])
            elif phase == 2:
                if phase < last and state_map[c1.state] == s1 \
                        and state_map[c2.state] == s2:
                    eps = (3, c1, c2, dA, dF, ah, len(c1.stack), None, None)
            elif phase == 3 and len(c1.stack) == floor:
                eps = (4, c1, c2, dA, dF, ah, ah,
                       state_map[c1.state], state_map[c2.state])
            if eps is not None and eps not in preds:
                preds[eps] = (node, None, (), ())
                # entering phase 4 keeps the states, so only height and delay
                if eps[0] == 4 and len(c1.stack) == ah and dA != dF:
                    return preds, eps, None
                work.append(eps)
            for symbol in idx.symbols:
                kind = idx.kind[symbol]
                if kind is SymbolKind.RETURN and len(c1.stack) <= floor:
                    continue  # a pop here would dip below the loop
                moves1 = moves(idx, c1, symbol, kind)
                if not moves1:
                    continue
                moves2 = moves(idx, c2, symbol, kind)
                for (n1, o1) in moves1:
                    if len(n1.stack) > max_height:
                        continue
                    for (n2, o2) in moves2:
                        dF2 = delta_extend(dF, o1, o2)
                        if _delay_len(dF2) > cap:
                            continue
                        dA2 = dA
                        if phase == 3:
                            dA2 = delta_extend(dA, o1, o2)
                            if _delay_len(dA2) > cap:
                                continue
                        child = (phase, n1, n2, dA2, dF2, ah, floor, s1, s2)
                        if child in preds:
                            continue
                        preds[child] = (node, symbol, o1, o2)
                        if phase == last and len(n1.stack) == ah \
                                and state_map[n1.state] == s1 \
                                and state_map[n2.state] == s2 and dA2 != dF2:
                            return preds, child, None
                        if len(preds) > _NODE_BUDGET:
                            return preds, None, max(length - 1, 0)
                        nxt_layer.append(child)
        layer = nxt_layer
    return preds, None, None


def _witness(original: Vpt, state_map, sym_map, preds, final) -> Verdict:
    """Read u1..u4 off the discovery chain of ``final``: each symbol belongs
    to the phase of the node it leads to, and the ε-steps into phases 2, 3
    and 4 mark the configurations after u1, u2 and u3 (a horizontal loop
    closes in phase 2, so its u3 and u4 are empty and end where u2 does)."""
    steps = []
    node = final
    while preds[node] is not None:
        prev, sym, o1, o2 = preds[node]
        steps.append((node, sym, o1, o2))
        node = prev
    init1, init2 = node[1].state, node[2].state
    u = {k: () for k in (1, 2, 3, 4)}
    v = dict(u)
    w = dict(u)
    marks = {}
    for (node, sym, o1, o2) in reversed(steps):
        phase = node[0]
        if sym is None:
            marks[phase] = (node[1], node[2])
        else:
            u[phase] += (sym,)
            v[phase] += o1
            w[phase] += o2
    end = final[1:3]
    A, B, C, D = ([_project_config(c, state_map, sym_map) for c in pair]
                  for pair in (marks[2], marks.get(3, end), marks.get(4, end), end))
    witness = VptTwinWitness(
        u1=u[1], u2=u[2], u3=u[3], u4=u[4],
        init1=state_map[init1], init2=state_map[init2],
        configs1=(A[0], B[0], C[0], D[0]),
        configs2=(A[1], B[1], C[1], D[1]),
        outs1=(v[1], v[2], v[3], v[4]),
        outs2=(w[1], w[2], w[3], w[4]),
        delay_before=delta(v[1] + v[3], w[1] + w[3]),
        delay_after=delta(v[1] + v[2] + v[3] + v[4],
                          w[1] + w[2] + w[3] + w[4]))
    verify_vpt_twinning_witness(original, witness)
    return Verdict(Outcome.VIOLATED, witness=witness)


def verify_vpt_twinning_witness(vpt: Vpt, w: VptTwinWitness) -> None:
    """Replay both runs through the four segments on the given machine and
    re-check every premise plus the delay divergence; AssertionError on any
    mismatch."""
    assert len(w.u2) + len(w.u4) >= 1, "both loops are empty"
    assert is_well_nested(w.u3, vpt.alphabet), "u3 is not well-nested"
    assert is_well_nested(w.u2 + w.u4, vpt.alphabet), "u2·u4 is not well-nested"
    for init, cfgs, outs in ((w.init1, w.configs1, w.outs1),
                             (w.init2, w.configs2, w.outs2)):
        assert init in vpt.initial
        A, B, C, D = cfgs
        assert B.state == A.state, "ascent loop does not return to its state"
        assert B.stack[: len(A.stack)] == A.stack, "ascent loop touched the base"
        assert C.stack == B.stack, "u3 changed the stack"
        assert D.state == C.state, "descent loop does not return to its state"
        assert D.stack == A.stack, "descent loop did not restore the stack"
        cur = Configuration(init, ())
        for word, out, target in zip((w.u1, w.u2, w.u3, w.u4), outs, cfgs):
            results = step_runs(vpt, cur, word)
            assert (target, out) in results, "segment replay failed"
            cur = target
        assert co_accessible(vpt, D), "end configuration is not co-accessible"
    v1, v2, v3, v4 = w.outs1
    w1, w2, w3, w4 = w.outs2
    assert delta(v1 + v3, w1 + w3) == w.delay_before
    assert delta(v1 + v2 + v3 + v4, w1 + w2 + w3 + w4) == w.delay_after
    assert w.delay_before != w.delay_after, "claimed delays are equal"


# ---------------------------------------------------------------------------
# Combined report

def classify_streamability(vpt: Vpt,
                           bounds: Optional[SearchBounds] = None) -> StreamabilityReport:
    bounds = bounds or SearchBounds()
    probe = check_functional_bounded(vpt, min(bounds.max_len, 10))
    if isinstance(probe, CounterExample):
        raise NotFunctionalWitness(probe.word, probe.out1, probe.out2)
    hbm = check_htp(vpt, bounds)
    obm = check_mtp(vpt, bounds)
    bm = check_bm(vpt)

    if hbm.outcome is Outcome.VIOLATED and obm.outcome is not Outcome.VIOLATED:
        # any horizontal witness is a matched witness with empty u3/u4
        try:
            verify_vpt_twinning_witness(vpt, hbm.witness)
        except AssertionError as exc:
            raise InconsistentVerdicts(
                f"horizontal witness did not transfer: {exc}") from exc
        obm = Verdict(Outcome.VIOLATED, witness=hbm.witness,
                      diagnostics="transferred from the horizontal witness")
    if bm.outcome is Outcome.HOLDS and (hbm.outcome is Outcome.VIOLATED
                                        or obm.outcome is Outcome.VIOLATED):
        raise InconsistentVerdicts(
            "bounded memory holds but a twinning violation was found")
    return StreamabilityReport(bm=bm, hbm=hbm, obm=obm)
