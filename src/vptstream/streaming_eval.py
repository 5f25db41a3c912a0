"""Online evaluation with earliest emission.

All candidate runs over the consumed prefix are kept in a layered DAG whose
nodes are (state, stack symbol, depth) triples: a root-to-leaf branch spells
one d-configuration, with the run's pending output residual spread along the
branch's edge labels.  Stack contents are shared between runs, so each level
holds at most |Q|·|Γ| nodes.  After every symbol the DAG is factorized
bottom-up: each node hoists the longest common prefix of its outgoing labels
onto its incoming edges, and whatever reaches the root is the longest output
prefix common to every candidate — which is exactly what can be emitted
without betting on the future.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .delay_algebra import Word, lcp
from .nested_words import ScanState, SymbolKind, UnknownSymbol, classify
from .vpt_core import DConfiguration, Vpt, rule_index


class NoInitialStates(ValueError):
    pass


class PopOnEmpty(Exception):
    """A return symbol arrived while the DAG sat at depth 0."""


class EvalDiagnostic(Exception):
    """Structural evidence that the machine is not reduced functional."""


@dataclass(frozen=True)
class Node:
    state: str
    symbol: Optional[str]  # stack symbol at this level; None is bottom
    depth: int

    def __post_init__(self):
        # nodes are hashed constantly (visited sets, edge dicts); the
        # dataclass hash would rebuild the field tuple on every call
        object.__setattr__(self, "_hash",
                           hash((self.state, self.symbol, self.depth)))

    def __hash__(self):
        return self._hash


ROOT = Node("#", None, -1)


def _node_key(n: Node) -> tuple[str, str]:
    return (n.state, n.symbol or "")


class EvalDag:
    """Mutable layered DAG; ``depth`` tracks the current leaf level."""

    def __init__(self):
        self.edges: dict[Node, dict[Node, Word]] = {ROOT: {}}
        self.parents: dict[Node, set[Node]] = {}
        self.depth = 0
        # nodes whose out-edge set changed since the last factorization;
        # only these can have picked up a non-trivial label lcp
        self.dirty: set[Node] = set()

    # -- structure ---------------------------------------------------------

    @property
    def alive(self) -> bool:
        return bool(self.edges[ROOT])

    def level(self, depth: int) -> list[Node]:
        return sorted((n for n in self.parents if n.depth == depth), key=_node_key)

    def leaves(self) -> list[Node]:
        return self.level(self.depth)

    def add_edge(self, src: Node, dst: Node, label: Word) -> None:
        slot = self.edges.setdefault(src, {})
        if dst in slot:
            if slot[dst] != label:
                raise EvalDiagnostic(
                    f"two run bundles reach ({dst.state},{dst.symbol},{dst.depth}) "
                    f"from the same node with different outputs "
                    f"{''.join(slot[dst]) or 'ε'} vs {''.join(label) or 'ε'}; "
                    "the machine is not reduced functional")
            return
        slot[dst] = label
        self.edges.setdefault(dst, {})
        self.parents.setdefault(dst, set()).add(src)
        self.dirty.add(src)

    def _drop_node(self, node: Node) -> None:
        for p in self.parents.pop(node, ()):
            self.edges[p].pop(node, None)
            self.dirty.add(p)
        self.edges.pop(node, None)
        self.dirty.discard(node)

    def cascade_remove(self, seeds: list[Node]) -> None:
        """Remove childless nodes, cascading to parents left childless."""
        pending = list(seeds)
        while pending:
            node = pending.pop()
            if node is ROOT or node not in self.parents:
                continue
            if self.edges.get(node):
                continue  # still has children, keep
            ps = list(self.parents[node])
            self._drop_node(node)
            for p in ps:
                if p is not ROOT and not self.edges.get(p):
                    pending.append(p)

    def remove_level(self, depth: int) -> None:
        for node in [n for n in self.parents if n.depth == depth]:
            self._drop_node(node)

    # -- traversal ---------------------------------------------------------

    def sorted_children(self, node: Node) -> list[Node]:
        return sorted(self.edges.get(node, ()), key=_node_key)

    def postorder(self) -> list[Node]:
        """Every reachable node after all its children; ROOT last.

        Children come in edge insertion order, which the updates keep
        deterministic; callers needing sorted output sort themselves.
        """
        out: list[Node] = []
        visited = {ROOT}
        stack: list[tuple[Node, Iterator[Node]]] = [(ROOT, iter(self.edges[ROOT]))]
        while stack:
            node, it = stack[-1]
            for child in it:
                if child not in visited:
                    visited.add(child)
                    stack.append((child, iter(self.edges.get(child, ()))))
                    break
            else:
                stack.pop()
                out.append(node)
        return out


class Status(enum.Enum):
    RUNNING = "Running"
    REJECTED = "Rejected"
    FINISHED = "Finished"


@dataclass
class EvalState:
    dag: EvalDag
    scan: ScanState
    emitted_len: int
    status: Status
    machine: Vpt
    factorize: bool = True
    last_symbol: str = ""
    reject_position: Optional[int] = None


@dataclass(frozen=True)
class MemoryReport:
    position: int
    symbol: str
    hc: int
    node_count: int
    edge_count: int
    label_tokens_total: int
    out_neq: int
    emitted_total: int


def start(vpt: Vpt, factorize: bool = True) -> EvalState:
    """Fresh evaluator; the caller is expected to pass a reduced machine."""
    if not vpt.initial:
        raise NoInitialStates("machine has no initial state")
    dag = EvalDag()
    for q0 in sorted(vpt.initial):
        dag.add_edge(ROOT, Node(q0, None, 0), ())
    return EvalState(dag=dag, scan=ScanState(), emitted_len=0,
                     status=Status.RUNNING, machine=vpt, factorize=factorize)


# ---------------------------------------------------------------------------
# Per-symbol DAG updates

def update_call(dag: EvalDag, symbol: str, vpt: Vpt) -> EvalDag:
    depth = dag.depth
    by_trigger = rule_index(vpt).calls

    new_edges = []
    orphans = []
    for leaf in dag.leaves():
        rules = by_trigger.get((symbol, leaf.state))
        if not rules:
            orphans.append(leaf)
            continue
        for r in rules:
            new_edges.append((leaf, Node(r.dst, r.push, depth + 1), r.out))
    dag.cascade_remove(orphans)
    for src, dst, label in new_edges:
        if src in dag.parents:
            dag.add_edge(src, dst, label)
    dag.depth = depth + 1
    return dag


def update_return(dag: EvalDag, symbol: str, vpt: Vpt) -> EvalDag:
    depth = dag.depth
    if depth == 0:
        raise PopOnEmpty(symbol)
    by_trigger = rule_index(vpt).returns

    # Collect the replacement level before touching anything: each surviving
    # leaf folds its parent edge, its rule output, and every grandparent edge
    # into one new edge landing beside the grandparent.
    new_edges = []
    orphans = []
    for leaf in dag.leaves():
        rules = by_trigger.get((symbol, leaf.state, leaf.symbol or ""))
        if not rules:
            orphans.append(leaf)
            continue
        for parent in sorted(dag.parents[leaf], key=_node_key):
            v0 = dag.edges[parent][leaf]
            for gp in sorted(dag.parents[parent], key=_node_key):
                v1 = dag.edges[gp][parent]
                for r in rules:
                    new_edges.append((gp, Node(r.dst, parent.symbol, depth - 1),
                                      v1 + v0 + r.out))
    dag.cascade_remove(orphans)
    dag.remove_level(depth)
    dag.remove_level(depth - 1)
    for src, dst, label in new_edges:
        if src is ROOT or src in dag.parents:
            dag.add_edge(src, dst, label)
    dag.depth = depth - 1
    return dag


def update_internal(dag: EvalDag, symbol: str, vpt: Vpt) -> EvalDag:
    depth = dag.depth
    by_trigger = rule_index(vpt).internals

    new_edges = []
    orphans = []
    for leaf in dag.leaves():
        rules = by_trigger.get((symbol, leaf.state))
        if not rules:
            orphans.append(leaf)
            continue
        for parent in sorted(dag.parents[leaf], key=_node_key):
            v0 = dag.edges[parent][leaf]
            for r in rules:
                new_edges.append((parent, Node(r.dst, leaf.symbol, depth),
                                  v0 + r.out))
    dag.cascade_remove(orphans)
    dag.remove_level(depth)
    for src, dst, label in new_edges:
        if src is ROOT or src in dag.parents:
            dag.add_edge(src, dst, label)
    return dag


# ---------------------------------------------------------------------------
# Factorization and emission

def factorize_and_emit(dag: EvalDag) -> Word:
    """Hoist label lcps bottom-up, then emit and strip the root lcp.

    Each call leaves every live node with a trivial lcp over its out-edge
    labels, so the next call only needs to revisit nodes whose out-edges
    changed since (``dag.dirty``).  Edges run strictly level d -> d+1, hence
    one sweep in decreasing depth order settles all hoisting cascades.
    """
    if not dag.alive:
        dag.dirty.clear()
        return ()
    by_depth: dict[int, list[Node]] = {}
    for node in dag.dirty:
        if node is not ROOT and node in dag.parents:
            by_depth.setdefault(node.depth, []).append(node)
    dag.dirty.clear()
    for d in range(max(by_depth, default=-1), -1, -1):
        for node in by_depth.get(d, ()):
            out_edges = dag.edges.get(node)
            if not out_edges:
                continue
            common = lcp(list(out_edges.values()))
            if not common:
                continue
            k = len(common)
            for child in out_edges:
                out_edges[child] = out_edges[child][k:]
            for p in dag.parents[node]:
                dag.edges[p][node] = dag.edges[p][node] + common
                if p is not ROOT and p.depth == d - 1:
                    by_depth.setdefault(d - 1, []).append(p)
    root_edges = dag.edges[ROOT]
    emitted = lcp(list(root_edges.values()))
    if emitted:
        k = len(emitted)
        for child in root_edges:
            root_edges[child] = root_edges[child][k:]
    return emitted


# ---------------------------------------------------------------------------
# Driver

def step(state: EvalState, symbol: str) -> Word:
    """Consume one symbol and return the fragment emitted for it."""
    if state.status is not Status.RUNNING:
        raise EvalDiagnostic(f"step() after {state.status.value}")
    kind = classify(symbol, state.machine.alphabet)
    if kind is SymbolKind.UNKNOWN:
        raise UnknownSymbol(f"symbol {symbol!r} is not in the machine's alphabet")
    state.scan = state.scan.step(kind)
    state.last_symbol = symbol

    try:
        if kind is SymbolKind.CALL:
            update_call(state.dag, symbol, state.machine)
        elif kind is SymbolKind.RETURN:
            update_return(state.dag, symbol, state.machine)
        else:
            update_internal(state.dag, symbol, state.machine)
    except PopOnEmpty:
        state.status = Status.REJECTED
        state.reject_position = state.scan.position
        return ()
    if not state.dag.alive:
        state.status = Status.REJECTED
        state.reject_position = state.scan.position
        return ()
    if not state.factorize:
        return ()
    fragment = factorize_and_emit(state.dag)
    state.emitted_len += len(fragment)
    return fragment


def finish(state: EvalState) -> Optional[Word]:
    """End of input: the final fragment on acceptance, None on rejection."""
    if state.status is Status.REJECTED:
        return None
    if state.status is not Status.RUNNING:
        raise EvalDiagnostic("finish() called twice")
    dag = state.dag
    if not dag.alive or dag.depth != 0:
        state.status = Status.REJECTED
        state.reject_position = state.scan.position
        return None
    labels = []
    for node in dag.sorted_children(ROOT):
        if node.state in state.machine.final:
            labels.append(dag.edges[ROOT][node])
    if not labels:
        state.status = Status.REJECTED
        state.reject_position = state.scan.position
        return None
    if any(lab != labels[0] for lab in labels):
        raise EvalDiagnostic(
            "accepting branches disagree on the remaining output; "
            "the machine is not functional")
    state.status = Status.FINISHED
    fragment = labels[0]
    state.emitted_len += len(fragment)
    return fragment


def decode(dag: EvalDag) -> set[DConfiguration]:
    """One d-configuration per root-to-leaf branch (the naive run set)."""
    result: set[DConfiguration] = set()
    # explicit stack of (node, stack spelled so far, residual so far): the
    # DAG is as deep as the input is nested
    pending: list[tuple[Node, tuple[str, ...], Word]] = [(ROOT, (), ())]
    while pending:
        node, stack, residual = pending.pop()
        children = dag.edges.get(node, {})
        if not children:
            if node is not ROOT:
                result.add(DConfiguration(node.state, stack, residual))
            continue
        for child in dag.sorted_children(node):
            child_stack = stack + (child.symbol,) if child.symbol else stack
            pending.append((child, child_stack, residual + children[child]))
    return result


def memory_snapshot(state: EvalState) -> MemoryReport:
    dag = state.dag
    node_count = len(dag.parents)
    edge_count = sum(len(slot) for slot in dag.edges.values())
    label_tokens = sum(len(label) for slot in dag.edges.values()
                       for label in slot.values())
    # longest root-to-leaf label mass: relax edges in topological order
    dist: dict[Node, int] = {ROOT: 0}
    out_neq = 0
    for node in reversed(dag.postorder()):
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
        node_count=node_count,
        edge_count=edge_count,
        label_tokens_total=label_tokens,
        out_neq=out_neq,
        emitted_total=state.emitted_len,
    )


def run_stream(state: EvalState, symbols: Iterable[str]) -> Optional[Word]:
    """Feed all of ``symbols`` then finish; total emitted word or None."""
    collected: list[str] = []
    for s in symbols:
        collected.extend(step(state, s))
        if state.status is not Status.RUNNING:
            return None
    tail = finish(state)
    if tail is None:
        return None
    collected.extend(tail)
    return tuple(collected)
