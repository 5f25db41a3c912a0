"""Shared corpora and oracles for the test suite.

The random-machine generators are deliberately sparse: near-deterministic
rule sets and mostly-empty outputs keep the brute-force oracles small while
still exercising both verdicts.  Seeds are fixed; the quoted mix of outcomes
was checked once by hand and the comparisons re-verify everything on every
run anyway.
"""

from __future__ import annotations

import random

from vptstream.delay_algebra import delta, lcp
from vptstream.streaming_eval import ROOT, MemoryReport, Status, memory_snapshot
from vptstream.vpt_core import (
    CallRule,
    Configuration,
    FstMachine,
    FstRule,
    InternalRule,
    ReturnRule,
    StructuredAlphabet,
    SymbolKind,
    Vpt,
    moves,
    rule_index,
    trim_fst,
)

VPT_OUTS = [(), ("x",), ("y",), ("x", "y")]


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


FST_SYMBOLS = ("s", "t")
FST_OUTS = [(), (), (), ("x",), ("y",)]


def random_fst(rng: random.Random) -> FstMachine:
    """Trimmed transducer with at most one nondeterministic fork."""
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
    m = FstMachine(alphabet=FST_SYMBOLS, states=frozenset(states),
                   initial=frozenset(rng.sample(states, rng.randint(1, 2))),
                   final=frozenset(rng.sample(states, rng.randint(1, n))),
                   rules=frozenset(rules))
    return trim_fst(m)


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


def accessible_configs(vpt: Vpt, max_height: int) -> set[Configuration]:
    """Configurations reachable while never exceeding ``max_height``."""
    idx = rule_index(vpt)
    seen: set[Configuration] = set()
    frontier = [Configuration(q, ()) for q in sorted(vpt.initial)]
    seen.update(frontier)
    while frontier:
        cfg = frontier.pop()
        for symbol in idx.symbols:
            kind = idx.kind[symbol]
            if kind is SymbolKind.CALL and len(cfg.stack) >= max_height:
                continue
            for nxt, _ in moves(idx, cfg, symbol, kind):
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
    recorded parent is ROOT or a live node, the depth index matches a scan
    of the nodes, chain links join live nodes and start where a link may
    (single parent, only child, ε label), and after factorization every
    node's out-labels have an empty lcp."""
    dag = state.dag
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
        assert dag.edges[parent] == {node: ()}, (node, dag.edges[parent])
    if state.factorize and state.status is Status.RUNNING:
        for node in [ROOT, *dag.parents]:
            labels = list(dag.edges[node].values())
            assert not labels or not lcp(labels), (node, labels)
