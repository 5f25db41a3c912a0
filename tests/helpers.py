"""Shared corpora and oracles for the test suite.

The random-machine generators are deliberately sparse: near-deterministic
rule sets and mostly-empty outputs keep the brute-force oracles small while
still exercising both verdicts.  Seeds are fixed; the quoted mix of outcomes
was checked once by hand and the comparisons re-verify everything on every
run anyway.
"""

from __future__ import annotations

import random
from typing import Iterator

from vptstream.delay_algebra import Word, delta, lcp
from vptstream.streamability import Bounded, Unbounded
from vptstream.streaming_eval import ROOT, MemoryReport, Status, memory_snapshot
from vptstream.vpt_core import (
    CallRule,
    Configuration,
    CounterExample,
    DConfiguration,
    FstMachine,
    FstRule,
    FunctionalUpTo,
    InputWord,
    InternalRule,
    ReturnRule,
    StructuredAlphabet,
    Vpt,
    _advance,
    initial_dconfigs,
    parse_vpt,
    reduce_with_map,
    rule_index,
    trim_fst,
    well_matched,
)

VPT_OUTS = [(), ("x",), ("y",), ("x", "y")]

# Two branches told apart by the last return, like fig3_plain, but every call
# after the first is preceded by an internal `a` that both runs read with no
# output: the loops and u3 hold ε-output steps between emitting ones.
SILENT_STEPS = parse_vpt("""
calls: c
returns: r rp
internals: a
states: i p1 p2 p3 q1 q2 q3 q4
initial: i
final: p3 q4
stack: g
trans i c x push g p1
trans p1 a - int p2
trans p2 c x push g p1
trans p2 r y pop g p3
trans p3 r y pop g p3
trans i c z push g q1
trans q1 a - int q2
trans q2 c z push g q1
trans q2 r y pop g q3
trans q3 r y pop g q3
trans q3 rp y pop g q4
trans q2 rp y pop g q4
""")


def random_det_vpt(rng: random.Random) -> Vpt:
    """Deterministic (hence functional) machine: 2-4 states, 1-3 stack symbols,
    at most one rule per (state, symbol[, stack]) trigger."""
    n = rng.randint(2, 4)
    states = tuple(f"q{i}" for i in range(n))
    gammas = tuple(f"g{i}" for i in range(rng.randint(1, 3)))
    calls, rets, ints = set(), set(), set()
    for q in states:
        if rng.random() < 0.75:
            calls.add(CallRule(q, "c", rng.choice(VPT_OUTS),
                               rng.choice(gammas), rng.choice(states)))
        for g in gammas:
            if rng.random() < 0.5:
                rets.add(ReturnRule(q, "r", rng.choice(VPT_OUTS), g,
                                    rng.choice(states)))
        if rng.random() < 0.35:
            ints.add(InternalRule(q, "a", rng.choice(VPT_OUTS),
                                  rng.choice(states)))
    return Vpt(alphabet=StructuredAlphabet(("c",), ("r",), ("a",)),
               states=frozenset(states),
               initial=frozenset({rng.choice(states)}),
               final=frozenset(rng.sample(states, rng.randint(1, n))),
               stack_alphabet=frozenset(gammas),
               call_rules=frozenset(calls),
               return_rules=frozenset(rets),
               internal_rules=frozenset(ints))


def random_nondet_vpt(rng: random.Random) -> Vpt:
    """Nondeterministic machine (up to two rules per trigger); outputs one
    letter or nothing, so run sets stay enumerable."""
    outs = [(), ("x",), ("y",)]
    n = rng.randint(2, 4)
    states = tuple(f"q{i}" for i in range(n))
    gammas = tuple(f"g{i}" for i in range(rng.randint(1, 3)))
    calls, rets, ints = set(), set(), set()
    for q in states:
        if rng.random() < 0.7:
            calls.add(CallRule(q, "c", rng.choice(outs),
                               rng.choice(gammas), rng.choice(states)))
        if rng.random() < 0.25:
            calls.add(CallRule(q, "c", rng.choice(outs),
                               rng.choice(gammas), rng.choice(states)))
        for g in gammas:
            if rng.random() < 0.5:
                rets.add(ReturnRule(q, "r", rng.choice(outs), g,
                                    rng.choice(states)))
            if rng.random() < 0.2:
                rets.add(ReturnRule(q, "r", rng.choice(outs), g,
                                    rng.choice(states)))
        if rng.random() < 0.35:
            ints.add(InternalRule(q, "a", rng.choice(outs), rng.choice(states)))
        if rng.random() < 0.15:
            ints.add(InternalRule(q, "a", rng.choice(outs), rng.choice(states)))
    return Vpt(alphabet=StructuredAlphabet(("c",), ("r",), ("a",)),
               states=frozenset(states),
               initial=frozenset(rng.sample(states, rng.randint(1, 2))),
               final=frozenset(rng.sample(states, rng.randint(1, n))),
               stack_alphabet=frozenset(gammas),
               call_rules=frozenset(calls),
               return_rules=frozenset(rets),
               internal_rules=frozenset(ints))


def live_prefixes(vpt: Vpt, max_len: int) -> Iterator[tuple[InputWord, set[DConfiguration]]]:
    """Depth-first walk of all prefixes with at least one surviving run.

    Children are explored in sorted symbol order, so words appear in
    lexicographic order.  Yields (prefix, run set) including the empty prefix.
    """
    symbols = sorted(vpt.alphabet.symbols)
    idx = rule_index(vpt)
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
        nxt = _advance(idx, configs, symbols[i])
        if nxt:
            child = prefix + (symbols[i],)
            yield child, nxt
            stack.append((child, nxt, 0))


def functional_by_scan(vpt: Vpt, max_len: int):
    """The unpruned functionality probe, oracle for ``check_functional_bounded``:
    every live prefix of length <= max_len, in lexicographic order."""
    for prefix, configs in live_prefixes(vpt, max_len):
        outs = sorted({dc.residual for dc in configs
                       if not dc.stack and dc.state in vpt.final})
        if len(outs) > 1:
            return CounterExample(prefix, outs[0], outs[1])
    return FunctionalUpTo(max_len)


FST_SYMBOLS = ("s", "t")
FST_OUTS = [(), (), (), ("x",), ("y",)]


def random_fst(rng: random.Random) -> FstMachine:
    """Trimmed transducer with at most one nondeterministic fork."""
    return trim_fst(random_untrimmed_fst(rng))


def random_untrimmed_fst(rng: random.Random) -> FstMachine:
    """``random_fst`` before trimming: some states may be unreachable or
    lead to no final state."""
    n = rng.randint(2, 5)
    states = tuple(f"q{i}" for i in range(n))
    rules = set()
    for q in states:
        for sym in FST_SYMBOLS:
            if rng.random() < 0.85:
                rules.add(FstRule(q, sym, rng.choice(FST_OUTS),
                                  rng.choice(states)))
    if rules and rng.random() < 0.5:
        base = rng.choice(sorted(rules))
        rules.add(FstRule(base.src, base.symbol, rng.choice(FST_OUTS),
                          rng.choice(states)))
    return FstMachine(alphabet=FST_SYMBOLS, states=frozenset(states),
                      initial=frozenset(rng.sample(states, rng.randint(1, 2))),
                      final=frozenset(rng.sample(states, rng.randint(1, n))),
                      rules=frozenset(rules))


def fst_twinning_violated(m: FstMachine, max_len: int = 10) -> bool:
    """Brute-force twinning test over loop decompositions u1·u2, |u1·u2| <=
    max_len: two runs over u1 reaching (q, q'), both looping on u2, with the
    delay after the loop differing from the delay before it.

    Works directly on output words with the definitional suffix-pair delta;
    the only shortcut is deduplicating u1 run pairs by their delay, which is
    safe because a delay determines how any extension's delta evolves.
    """
    idx: dict[tuple[str, str], list[FstRule]] = {}
    for r in m.rules:
        idx.setdefault((r.src, r.symbol), []).append(r)
    symbols = sorted({r.symbol for r in m.rules})

    # Pass 1 over u1 prefixes: per state pair, every reachable delay of a run
    # pair, with the shortest u1 realizing it.
    anchors: dict[tuple[str, str], dict] = {}
    def u1_dfs(depth, frontier):
        for (qa, va) in frontier:
            for (qb, vb) in frontier:
                d = delta(va, vb)
                slot = anchors.setdefault((qa, qb), {})
                if slot.get(d, max_len + 1) > depth:
                    slot[d] = depth
        if depth == max_len:
            return
        for s in symbols:
            nxt = {(r.dst, v + r.out)
                   for (q, v) in frontier for r in idx.get((q, s), ())}
            if nxt:
                u1_dfs(depth + 1, nxt)
    u1_dfs(0, {(q, ()) for q in sorted(m.initial)})

    # Pass 2 over u2 words: joint segments from every state pair; test the
    # definition at each closure, first hit wins.
    found = [False]
    def seg_dfs(depth, segs):
        if found[0]:
            return
        if depth >= 1:
            for (qa0, qb0, qa, qb, v2, w2) in segs:
                if qa == qa0 and qb == qb0:
                    for d, l1 in anchors.get((qa0, qb0), {}).items():
                        if l1 + depth <= max_len and \
                                delta(d.left + v2, d.right + w2) != d:
                            found[0] = True
                            return
        if depth == max_len:
            return
        for s in symbols:
            nxt = {(a0, b0, ra.dst, rb.dst, v + ra.out, w + rb.out)
                   for (a0, b0, qa, qb, v, w) in segs
                   for ra in idx.get((qa, s), ())
                   for rb in idx.get((qb, s), ())}
            if nxt:
                seg_dfs(depth + 1, nxt)
    states = sorted(m.states)
    seg_dfs(0, {(a, b, a, b, (), ()) for a in states for b in states})
    return found[0]


def moves(vpt: Vpt, cfg: Configuration, symbol: str) -> list[tuple[Configuration, Word]]:
    """One-step successors of ``cfg`` on ``symbol`` with each rule's output,
    in rule order, read off the machine's rule sets."""
    def applies(r) -> bool:
        return r.symbol == symbol and r.src == cfg.state

    out = [(Configuration(r.dst, cfg.stack + (r.push,)), r.out)
           for r in sorted(filter(applies, vpt.call_rules))]
    if cfg.stack:
        out += [(Configuration(r.dst, cfg.stack[:-1]), r.out)
                for r in sorted(filter(applies, vpt.return_rules)) if r.pop == cfg.stack[-1]]
    out += [(Configuration(r.dst, cfg.stack), r.out)
            for r in sorted(filter(applies, vpt.internal_rules))]
    return out


def random_vpts(seed: int, n: int) -> list[Vpt]:
    """``n`` machines of ``random.Random(seed)``, nondeterministic and
    deterministic alternating."""
    rng = random.Random(seed)
    return [(random_nondet_vpt if k % 2 == 0 else random_det_vpt)(rng) for k in range(n)]


def well_matched_by_rounds(vpt: Vpt) -> dict[tuple[str, str], InputWord]:
    """Oracle for ``well_matched_witnesses``, order of insertion included:
    each round rescans the whole table, internal steps first, then each
    call rule wrapped around every entry, then every composition of two
    entries, each scan over the entries present when it began."""
    wit: dict[tuple[str, str], InputWord] = {(q, q): () for q in sorted(vpt.states)}
    int_rules = sorted(vpt.internal_rules)
    ret_rules = sorted(vpt.return_rules)
    changed = True
    while changed:
        changed = False
        for (q, x), w in list(wit.items()):
            for r in int_rules:
                if r.src == x and (q, r.dst) not in wit:
                    wit[(q, r.dst)] = w + (r.symbol,)
                    changed = True
        for c in sorted(vpt.call_rules):
            for (q1, x), w in list(wit.items()):
                if q1 != c.dst:
                    continue
                for r in ret_rules:
                    if r.pop == c.push and r.src == x and (c.src, r.dst) not in wit:
                        wit[(c.src, r.dst)] = (c.symbol,) + w + (r.symbol,)
                        changed = True
        for (q, x), w1 in list(wit.items()):
            for (x2, y), w2 in list(wit.items()):
                if x2 == x and (q, y) not in wit:
                    wit[(q, y)] = w1 + w2
                    changed = True
    return wit


def access_words(vpt: Vpt, wit: dict[tuple[str, str], InputWord]) -> dict[str, InputWord]:
    """One input word reaching each forward-reachable state of ``vpt``,
    given its well-matched witnesses ``wit``: breadth-first from the
    initial states (sorted), each state trying its internal rules, then its
    call rules (each in sorted order), then its summaries, and the first
    word to reach a state is kept.  The keys are exactly the
    forward-reachable states."""
    steps: dict[str, list[tuple[str, InputWord]]] = {}
    for r in sorted(vpt.internal_rules) + sorted(vpt.call_rules):
        steps.setdefault(r.src, []).append((r.dst, (r.symbol,)))
    for (q, p), word in wit.items():
        steps.setdefault(q, []).append((p, word))
    words: dict[str, InputWord] = {q: () for q in sorted(vpt.initial)}
    queue = list(words)
    for q in queue:  # grows as states are found
        for p, word in steps.get(q, ()):
            if p not in words:
                words[p] = words[q] + word
                queue.append(p)
    return words


def domain_height_of_reduction(vpt: Vpt):
    """Reference for ``domain_height_bounded``: Bounded(h_max) or
    Unbounded(pump) from the ascent graph of the machine's reduction.

    In a reduced machine every accessible configuration can still accept,
    so the domain's heights are the lengths of ascent paths (one call plus
    a well-matched walk each) from the states that initial states reach by
    well-matched words.  One depth-first search from each unfinished
    state, in sorted order: an edge onto the current path closes a cycle,
    Unbounded, its state projected onto the machine's names and its prefix
    the reduction's access word; otherwise each finished state records the
    most ascents that start at it.  A word's stack height is the word's
    alone, so the reduction's domain height is the machine's."""
    reduced, state_map, _ = reduce_with_map(vpt)
    wit = well_matched(reduced).witnesses
    walks: dict[str, list[tuple[str, InputWord]]] = {}
    for (a, p), word in sorted(wit.items()):
        walks.setdefault(a, []).append((p, word))
    edges: dict[str, list[tuple[str, InputWord]]] = {}
    for r in sorted(reduced.call_rules):
        for p, word in walks[r.dst]:
            edges.setdefault(r.src, []).append((p, (r.symbol,) + word))
    height: dict[str, int] = {}  # finished state -> most ascents from it
    for start in sorted(reduced.states):
        if start in height:
            continue
        path = [(start, (), iter(edges.get(start, ())))]
        at = {start: 0}  # state on the path -> its index
        while path:
            state, _, it = path[-1]
            for nxt, word in it:
                j = at.get(nxt)
                if j is not None:
                    cycle = sum((w for _, w, _ in path[j + 1:]), ()) + word
                    return Unbounded(state=state_map[nxt], cycle=cycle,
                                     prefix=access_words(reduced, wit).get(nxt, ()))
                if nxt not in height:
                    at[nxt] = len(path)
                    path.append((nxt, word, iter(edges.get(nxt, ()))))
                    break
            else:
                path.pop()
                del at[state]
                height[state] = max((height[p] + 1 for p, _ in edges.get(state, ())),
                                    default=0)
    return Bounded(h_max=max((height[p] for (a, p) in wit if a in reduced.initial),
                             default=0))


def accessible_configs(vpt: Vpt, max_height: int) -> set[Configuration]:
    """Configurations reachable while never exceeding ``max_height``."""
    seen: set[Configuration] = set()
    frontier = [Configuration(q, ()) for q in sorted(vpt.initial)]
    seen.update(frontier)
    while frontier:
        cfg = frontier.pop()
        for symbol in sorted(vpt.alphabet.symbols):
            for nxt, _ in moves(vpt, cfg, symbol):
                if len(nxt.stack) > max_height:
                    continue
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def snapshot_by_walk(state) -> MemoryReport:
    """The telemetry record computed from scratch: counts and label sums
    over every edge, and ``out_neq`` as the longest root-to-leaf label sum,
    relaxed over the nodes reachable from ROOT in topological order."""
    dag = state.dag
    order: list = []  # reachable nodes, each after all its children
    visited = {ROOT}
    stack = [(ROOT, iter(dag.edges[ROOT]))]
    while stack:
        node, it = stack[-1]
        for child in it:
            if child not in visited:
                visited.add(child)
                stack.append((child, iter(dag.edges.get(child, ()))))
                break
        else:
            stack.pop()
            order.append(node)
    dist = {ROOT: 0}
    out_neq = 0
    for node in reversed(order):
        d = dist.get(node, 0)
        children = dag.edges.get(node, {})
        if not children and node is not ROOT:
            out_neq = max(out_neq, d)
        for child, label in children.items():
            dist[child] = max(dist.get(child, 0), d + len(label))
    return MemoryReport(
        position=state.scan.position,
        symbol=state.last_symbol,
        hc=state.scan.hc,
        node_count=len(dag.parents),
        edge_count=sum(len(slot) for slot in dag.edges.values()),
        label_tokens_total=sum(len(label) for slot in dag.edges.values()
                               for label in slot.values()),
        out_neq=out_neq,
        emitted_total=state.emitted_len,
    )


def assert_dag_invariants(state) -> None:
    """Structural bounds on the run DAG: one level per pending call plus the
    bottom, and per-level width at most |states| * |stack symbols|.  Also the
    evaluator's bookkeeping: ``memory_snapshot`` equals the walk above, every
    label is a list that sits on one edge only (a list and a tuple with the
    same letters compare unequal), every recorded parent is ROOT or a live
    node, the depth index matches a scan of the nodes, chain links join live
    nodes and start where a link may (single parent, only child, ε label),
    and after factorization every node's out-labels have an empty lcp."""
    dag = state.dag
    labels = [label for slot in dag.edges.values() for label in slot.values()]
    assert all(type(label) is list for label in labels), labels
    assert len({id(label) for label in labels}) == len(labels), labels
    assert memory_snapshot(state) == snapshot_by_walk(state), \
        (memory_snapshot(state), snapshot_by_walk(state))
    for node, ps in dag.parents.items():
        assert all(p is ROOT or p in dag.parents for p in ps), (node, ps)
    if not dag.alive:
        return
    bound = len(state.machine.states) * max(len(state.machine.stack_alphabet), 1)
    assert dag.depth == state.scan.hc, (dag.depth, state.scan.hc)
    for d in range(dag.depth + 1):
        width = len(dag.level(d))
        assert 0 < width <= bound, (d, width, bound)
    scan: dict[int, set] = {}
    for node in dag.parents:
        scan.setdefault(node.depth, set()).add(node)
    assert dag.at_depth == scan, (sorted(dag.at_depth), sorted(scan))
    for node, top in dag.chain.items():
        assert node in dag.parents and top in dag.parents, (node, top)
        (parent,) = dag.parents[node]
        assert parent is not ROOT and parent.depth >= top.depth, (node, top)
        out = dag.edges[parent]
        assert list(out) == [node] and out[node] == [], (node, out)
    if state.factorize and state.status is Status.RUNNING:
        for node in [ROOT, *dag.parents]:
            labels = list(dag.edges[node].values())
            assert not labels or not lcp(labels), (node, labels)
