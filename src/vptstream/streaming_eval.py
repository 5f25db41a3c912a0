"""Online evaluation with earliest emission.

All candidate runs over the consumed prefix are kept in a layered DAG whose
nodes are (state, stack symbol, depth) triples: a root-to-leaf branch spells
one d-configuration, with the run's pending output residual spread along the
branch's edge labels.  Stack contents are shared between runs, so each level
holds at most |Q|·|Γ| nodes.  After every symbol the DAG is factorized
bottom-up: each node whose out-edges changed hoists the longest common prefix
of its outgoing labels onto its incoming edges, and whatever reaches the root
is the longest output prefix common to every candidate — which is exactly
what can be emitted without betting on the future.

A step costs the width of the levels it touches plus the letters it moves,
not the stack height and not the output held.  Its fixed cost, what every
symbol pays whatever the DAG holds, is a handful of dict and set operations
per node touched: the scan of the input is counters in ``EvalState``, no
record per symbol; the updates make their nodes inline; and factorization
climbs a chain only from a node that can have one and orders its depths
through a heap only when more than one is dirty.  Each node is one object,
hashed by identity, that holds its out-edges (child -> label) and its reach.
Every update builds its new leaf level from an empty one: a call grows a
level, an internal first drops the level it replaces and a return the two
it replaces.  So ``EvalDag`` keys only the leaf level, by (state, stack
symbol), each update interning into the fresh dict that becomes it, and
keeps every node's parents and chain link in maps of its own, so no node
refers to an ancestor and reference counting alone frees a dropped DAG.
Factorization visits only the depths that hold changed nodes, and a hoist
that would climb a chain of single-child nodes with empty labels jumps to
the chain's top through union-find style links.  Each edge label is a
list, edited in place: a hoist appends to the labels at the chain's top, a
strip deletes a prefix, an only child's label moves up whole, and a fold
extends the list of the edge it replaces.  A list mostly belongs to one
edge.  The exception is a fold of a long held label into several edges
with the same letters, such as a return that forks to two states with one
output: the list is built once and every such edge holds it, so that a fork
costs the letters it appends, not the output held.  All those edges leave
one node, ``EvalDag.shared`` counts them, and a hoist onto one of them
copies the list first, while a strip, which applies to every out-edge of
the node alike, cuts it once.
The fragments ``step`` and ``finish`` return and the residuals ``decode``
lists are tuples.

``start`` resolves the machine once, to its ``rule_index``, and ``step``
reads each symbol's kind and rules from that table alone.  Every walk over
nodes runs in the order the DAG built them: a level is a dict of its nodes,
and a node's parents are an insertion-ordered dict, each filled in the
order the update that made them ran.  That order is a function of the input
and of the sorted rule buckets of ``rule_index``, so a run is reproducible
with no sorting.
The one set of nodes, ``EvalDag.dirty``, is read depth by depth, and the
nodes of one depth hoist onto distinct chain tops, so their order changes
nothing.

``memory_snapshot`` reports the DAG's size and pending output, exact after
every step.  ``out_neq`` is the longest pending residual over the candidate
runs, the longest label sum on a root-to-leaf path: with factorization the
part of a run's output beyond what was already emitted, without it the whole
residual.  ``EvalDag`` keeps the edge and label counts, and each node the
longest label sum above it, up to date as the DAG changes, so a snapshot
costs the width of the leaf level, not the size of the DAG.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass
from typing import Iterable, Optional

from .delay_algebra import Word, lcp
from .nested_words import ScanState, SymbolKind, UnknownSymbol
from .vpt_core import DConfiguration, RuleIndex, Vpt, rule_index


class NoInitialStates(ValueError):
    pass


class EvalDiagnostic(Exception):
    """Structural evidence that the machine is not reduced functional."""


class RunConflict(EvalDiagnostic):
    """Two run bundles reach the node (state, symbol, depth) from one node
    with different outputs: ``args`` is (state, symbol, depth, out1, out2)."""

    def __str__(self) -> str:
        state, symbol, depth, out1, out2 = self.args
        return (f"two run bundles reach ({state},{symbol},{depth}) from the same "
                f"node with different outputs {''.join(out1) or 'ε'} vs "
                f"{''.join(out2) or 'ε'}; the machine is not reduced functional")


class Node:
    # hashed by identity, so that the dict and set operations on nodes, a
    # few dozen per step, need no tuple hash; the updates intern them
    __slots__ = ("state", "symbol", "depth", "out", "reach")

    def __init__(self, state: str, symbol: Optional[str], depth: int):
        self.state = state
        self.symbol = symbol  # stack symbol at this level; None is bottom
        self.depth = depth
        # child -> label; hoists, strips and folds edit the lists in place,
        # and a list that more than one edge holds is in ``EvalDag.shared``
        self.out: dict[Node, list[str]] = {}
        # letters emitted plus the longest label sum from the root (see
        # ``EvalDag.reach_of``)
        self.reach = 0


class EvalDag:
    """Mutable layered DAG below ``root``; ``depth`` tracks the current
    leaf level."""

    def __init__(self):
        self.root = Node("#", None, -1)
        # the leaf level, at ``depth``, by (state, stack symbol), in the
        # order its nodes were made; each update replaces it whole
        self.leaf_level: dict[tuple[str, Optional[str]], Node] = {}
        # node -> its parents, in the order its in-edges were added
        self.parents: dict[Node, dict[Node, None]] = {}
        # node -> an ancestor up its chain (see ``chain_top``)
        self.chain: dict[Node, Node] = {}
        self.depth = 0
        # nodes whose out-edge set changed since the last factorization;
        # only these can have picked up a non-trivial label lcp
        self.dirty: set[Node] = set()
        # running totals over every edge, kept exact by each edit below; a
        # shared label counts once per edge that holds it
        self.edge_count = 0
        self.label_tokens = 0
        # id(list) -> the number of edges holding it, for each label list
        # that more than one edge holds (see ``_add_folded``); all those
        # edges leave one node.  Usually empty, and every test of it is
        # guarded, so that labels held by one edge take no bookkeeping.
        self.shared: dict[int, int] = {}

    # -- structure ---------------------------------------------------------

    def add_edge(self, src: Node, dst: Node, label: list[str]) -> None:
        """Add src -> dst with ``label``, which the edge takes over."""
        out = src.out
        if dst in out:
            if out[dst] != label:
                raise RunConflict(dst.state, dst.symbol, dst.depth, out[dst], label)
            return
        out[dst] = label
        self.edge_count += 1
        self.label_tokens += len(label)
        # dst gets all its in-edges in the step that creates it, from
        # parents that outlive it: the max over them stays its longest path
        reach = (self.reach_of(src) if src in self.chain else src.reach) + len(label)
        ps = self.parents.get(dst)
        if ps is None:
            self.parents[dst] = {src: None}
            dst.reach = reach
        else:
            ps[src] = None
            if reach > dst.reach:
                dst.reach = reach
        self.dirty.add(src)

    def _drop_nodes(self, nodes: Iterable[Node]) -> None:
        """Remove ``nodes``, each childless by its turn, with their
        in-edges; their parents become dirty."""
        for node in nodes:
            for p in self.parents.pop(node):
                label = p.out.pop(node)
                self.edge_count -= 1
                self.label_tokens -= len(label)
                if self.shared:
                    self.release(label)
                self.dirty.add(p)
            # the updates drop a level only after the level below it, and
            # the cascade only childless nodes
            assert not node.out, node
            self.chain.pop(node, None)
            self.dirty.discard(node)

    def release(self, label: list[str]) -> None:
        """One edge no longer holds ``label``: its count drops, and a list
        left on one edge leaves ``shared``, that edge owning it."""
        key = id(label)
        holders = self.shared.get(key)
        if holders == 2:
            del self.shared[key]
        elif holders is not None:
            self.shared[key] = holders - 1

    def cascade_remove(self, seeds: list[Node]) -> None:
        """Remove childless nodes, cascading to parents left childless."""
        pending = list(seeds)
        while pending:
            node = pending.pop()
            if node not in self.parents:
                continue  # the root, or dropped already
            if node.out:
                continue  # still has children, keep
            ps = list(self.parents[node])
            self._drop_nodes((node,))
            for p in ps:
                if p is not self.root and not p.out:
                    pending.append(p)

    def chain_top(self, node: Node) -> Node:
        """The highest node a hoist from ``node`` climbs unchanged.

        A link X -> P is recorded when X has the single parent P, P is not
        the root, X is P's only child and the label P -> X is ε: an lcp
        hoisted from X would then pass through P as a whole.  Links hold
        while X lives, because a node gains children only in the step that
        removes all its earlier children and gains parents only in the step
        that creates it; hoists land on the chain's top, so the labels
        inside stay ε.  The ε test matters when P has just lost a sibling
        and still carries a label, which must be emitted before X's.  Paths
        are compressed as in union-find.
        """
        path = []
        while True:
            up = self.chain.get(node)
            if up is None:
                ps = self.parents[node]
                if len(ps) != 1:
                    break
                (up,) = ps
                if up is self.root or len(up.out) != 1 or up.out[node]:
                    break
                self.chain[node] = up
            path.append(node)
            node = up
        for n in path[:-1]:
            self.chain[n] = node
        return node

    def reach_of(self, node: Node) -> int:
        """Letters emitted plus the longest label sum from the root to
        ``node``.

        A hoist keeps every root-to-leaf sum, so it only raises the reach of
        the nodes from its chain top down to where it started, all linked
        but the top: the top's ``reach`` takes the change.  A linked node
        shares the reach of the node it links to, the label between them
        being ε, so the first node up the links holds the exact value.
        Emission moves letters from the root labels into the root's reach.
        """
        up = self.chain.get(node)
        while up is not None:
            node = up
            up = self.chain.get(node)
        return node.reach


class Status(enum.Enum):
    RUNNING = "Running"
    REJECTED = "Rejected"
    FINISHED = "Finished"


@dataclass
class EvalState:
    """One evaluation in progress: the run DAG, the machine with its
    ``rule_index``, which ``start`` looks up once so that ``step`` does no
    per-symbol lookup of the machine, and what ``scan`` reports of the input
    read so far.  The current height is ``dag.depth``; ``step`` counts the
    symbols read and keeps the highest depth reached and whether a return
    came at height 0, so that a symbol builds no record of its own."""
    dag: EvalDag
    emitted_len: int
    status: Status
    machine: Vpt
    index: RuleIndex
    factorize: bool = True
    last_symbol: str = ""
    reject_position: Optional[int] = None
    position: int = 0
    max_depth: int = 0
    valid: bool = True

    @property
    def scan(self) -> ScanState:
        """The nested-word scan of the input read so far, built on demand:
        equal to ``nested_words.scan`` of that input."""
        return ScanState(self.position, self.dag.depth, self.max_depth, self.valid)


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
    """Fresh evaluator over ``vpt`` as given, with no reduction.  Dead
    runs, those that can no longer accept, stay candidates: they take part
    in the lcp, so output can wait for them, and in the conflict check, so
    two dead runs that differ only in output raise ``EvalDiagnostic`` on a
    functional machine.  ``reduce(vpt)`` has no dead runs.
    The machine's ``rule_index`` is looked up here, once for every step."""
    if not vpt.initial:
        raise NoInitialStates("machine has no initial state")
    dag = EvalDag()
    for q0 in sorted(vpt.initial):
        node = dag.leaf_level[q0, None] = Node(q0, None, 0)
        dag.add_edge(dag.root, node, [])
    return EvalState(dag=dag, emitted_len=0, status=Status.RUNNING, machine=vpt,
                     index=rule_index(vpt), factorize=factorize)


# ---------------------------------------------------------------------------
# Per-symbol DAG updates

# Each update reads ``rules_from``, the ``rules`` table of the machine's
# ``rule_index``, walks the leaves and their parents in build order, and
# interns its new nodes, inline, into a fresh dict that becomes
# ``dag.leaf_level``; each new node gets a parent in the same step.

def update_call(dag: EvalDag, symbol: str, rules_from: dict) -> EvalDag:
    depth = dag.depth = dag.depth + 1
    level = {}
    orphans = []
    add_edge = dag.add_edge
    for leaf in dag.leaf_level.values():
        rules = rules_from[leaf.state].get(symbol)
        if not rules:
            orphans.append(leaf)
            continue
        for r in rules:
            key = (r.dst, r.push)
            node = level.get(key)
            if node is None:
                node = level[key] = Node(r.dst, r.push, depth)
            add_edge(leaf, node, [*r.out])
    if orphans:
        dag.cascade_remove(orphans)
    dag.leaf_level = level
    return dag


def update_return(dag: EvalDag, symbol: str, rules_from: dict) -> EvalDag:
    """Pop into the level above; ``step`` rejects a return at depth 0."""
    # Collect the replacement level before touching anything: each surviving
    # leaf folds its parent edge, its rule output, and every grandparent edge
    # into one new edge landing beside the grandparent.  The folds take over
    # the labels of the edges they replace, so those edges go first.
    new_edges = []
    last_use = {}
    orphans = []
    leaves = []
    parents_of = dag.parents
    parents: dict[Node, None] = {}
    for leaf in dag.leaf_level.values():
        by_pop = rules_from[leaf.state].get(symbol)
        rules = by_pop and by_pop.get(leaf.symbol)
        if not rules:
            orphans.append(leaf)
            continue
        leaves.append(leaf)
        leaf_parents = parents_of[leaf]
        parents.update(leaf_parents)
        for parent in leaf_parents:
            v0 = parent.out[leaf]
            symbol_above = parent.symbol
            for gp in parents_of[parent]:
                v1 = gp.out[parent]
                for r in rules:
                    new_edges.append((gp, r.dst, symbol_above, v1, v0, r.out))
                last_use[id(v1)] = len(new_edges) - 1
    if orphans:
        dag.cascade_remove(orphans)
    # a dropped leaf marks its parent dirty, and the parent's own drop
    # below clears the mark
    dag._drop_nodes(leaves)
    dag._drop_nodes(parents)
    dag.depth -= 1
    _add_folded(dag, new_edges, last_use)
    return dag


def update_internal(dag: EvalDag, symbol: str, rules_from: dict) -> EvalDag:
    new_edges = []
    last_use = {}
    orphans = []
    leaves = []
    parents_of = dag.parents
    for leaf in dag.leaf_level.values():
        rules = rules_from[leaf.state].get(symbol)
        if not rules:
            orphans.append(leaf)
            continue
        leaves.append(leaf)
        for parent in parents_of[leaf]:
            v0 = parent.out[leaf]
            for r in rules:
                new_edges.append((parent, r.dst, leaf.symbol, v0, (), r.out))
            last_use[id(v0)] = len(new_edges) - 1
    if orphans:
        dag.cascade_remove(orphans)
    dag._drop_nodes(leaves)
    _add_folded(dag, new_edges, last_use)
    return dag


# A fold shares its head only from this length on.  Sharing costs a count in
# ``EvalDag.shared``, a release when an edge goes and a copy when a hoist
# lands on a shared label; a copy of a shorter head costs less.  The deep
# workload's folds carry a few letters each and stay on the copying path (4
# of its 8 074 folds in a round share); fig3_full's fork holds its whole
# pending output, thousands of letters.
SHARE_FLOOR = 32


def _add_folded(dag: EvalDag, new_edges: list, last_use: dict) -> None:
    """Add each ``(src, state, symbol, head, mid, out)`` as src -> the node
    (state, symbol) of a fresh leaf level at ``dag.depth``, labelled head +
    mid + out; every source is the root or a live node.

    ``head`` is the label of an edge the update has removed, and every edge
    that folds it leaves the same source.  ``last_use`` maps each head (by
    ``id``) to the index of its last fold, which takes the list over and
    extends it, so a fold costs the letters it appends, not those it keeps;
    the other folds copy it first.  A fold of a head of ``SHARE_FLOOR``
    letters or more with the last fold's ``mid`` (the same object) and
    ``out`` (equal) would copy the very label that fold builds: the first
    such fold builds it in place instead, every fold alike holds that one
    list, and ``dag.shared`` counts the edges that do; a later fold of the
    head that differs copies the letters the head had.  The old edges are
    off the counters by now, so a reused list is counted once per edge.
    The first alike fold sets the head's ``last_use`` to -1, so that the
    last fold takes the built list rather than extending it again.
    """
    depth = dag.depth
    level = dag.leaf_level = {}
    # id(head) -> [its length before, the last fold's mid and out, the
    # edges holding it] for each head built in place ahead of its last fold
    built = {}
    root, parents_of, add_edge = dag.root, dag.parents, dag.add_edge
    for i, (src, state, symbol, head, mid, out) in enumerate(new_edges):
        assert src is root or src in parents_of  # above a surviving leaf
        key = (state, symbol)
        dst = level.get(key)
        if dst is None:
            dst = level[key] = Node(state, symbol, depth)
        if last_use[id(head)] == i:
            head += mid
            head += out
        elif len(head) < SHARE_FLOOR:
            head = [*head, *mid, *out]
        else:
            entry = built.get(id(head))
            if entry is None:
                _, _, _, _, last_mid, last_out = new_edges[last_use[id(head)]]
                if mid is last_mid and out == last_out:
                    entry = built[id(head)] = [len(head), mid, out, 0]
                    last_use[id(head)] = -1
                    head += mid
                    head += out
            if entry is None:
                head = [*head, *mid, *out]
            elif mid is not entry[1] or out != entry[2]:
                head = [*head[:entry[0]], *mid, *out]
            elif dst not in src.out:  # else add_edge keeps the edge there
                entry[3] += 1
        add_edge(src, dst, head)
    for key, (_, _, _, holders) in built.items():
        if holders > 1:
            dag.shared[key] = holders


# ---------------------------------------------------------------------------
# Factorization and emission

def factorize_and_emit(dag: EvalDag) -> Word:
    """Hoist label lcps bottom-up, then emit and strip the root lcp.

    Each call leaves every live node with a trivial lcp over its out-edge
    labels, so the next call only needs to revisit nodes whose out-edges
    changed since (``dag.dirty``).  Edges run strictly level d -> d+1, so
    visiting the depths that hold such nodes deepest first, through a
    max-heap that also takes the depths of parents a hoist reaches, settles
    all hoisting cascades.  A hoist lands on the in-edges of
    ``dag.chain_top(node)``, the labels it would otherwise have passed
    through level by level being ε.  An only child's label is the lcp
    itself, so it moves up without a comparison and the edge keeps a fresh
    empty list.  A label in ``dag.shared`` is copied before a hoist appends
    to it, and cut once by a strip, every edge that holds it being an
    out-edge of the node stripped.
    """
    root = dag.root
    dirty = dag.dirty
    if not root.out:
        dirty.clear()
        return ()
    parents_of, chain, shared = dag.parents, dag.chain, dag.shared
    # the root's labels can share a prefix again only if its out-edges
    # changed or a hoist reaches them
    emit = root in dirty
    by_depth: dict[int, list[Node]] = {}
    for node in dirty:  # the root and live nodes only: a dropped node leaves it
        if node is not root:
            level = by_depth.get(node.depth)
            if level is None:
                by_depth[node.depth] = [node]
            else:
                level.append(node)
    dirty.clear()
    heap = [-d for d in by_depth]
    if len(heap) > 1:
        heapq.heapify(heap)
    while heap:
        for node in by_depth.pop(-heapq.heappop(heap)):
            out_edges = node.out
            if not out_edges:
                continue
            if len(out_edges) == 1:
                # an only child's label moves up whole; it is never shared,
                # the edges sharing a list all leaving one node
                (child, common), = out_edges.items()
                if not common:
                    continue
                out_edges[child] = []
            else:
                common = lcp(list(out_edges.values()))
                if not common:
                    continue
                for label in _distinct(out_edges.values()) if shared else out_edges.values():
                    del label[:len(common)]
            k = len(common)
            # a node hanging from the root, or with no link and several
            # parents, is its own chain top
            if node in chain or node.depth and len(parents_of[node]) == 1:
                node = dag.chain_top(node)
            top_parents = parents_of[node]
            dag.label_tokens += k * (len(top_parents) - len(out_edges))
            node.reach += k
            for p in top_parents:
                label = p.out[node]
                if shared and id(label) in shared:
                    dag.release(label)
                    label = p.out[node] = [*label]
                # p's labels part at once (see the docstring), so that
                # appending to a label with a letter keeps them parted
                settled = bool(label)
                label += common
                if settled:
                    continue
                if p is root:
                    emit = True
                    continue
                level = by_depth.get(p.depth)
                if level is None:
                    by_depth[p.depth] = [p]
                    heapq.heappush(heap, -p.depth)
                else:
                    level.append(p)
    if not emit:
        return ()
    root_edges = root.out
    emitted = lcp(list(root_edges.values()))
    if emitted:
        k = len(emitted)
        for label in _distinct(root_edges.values()) if shared else root_edges.values():
            del label[:k]
        dag.label_tokens -= k * len(root_edges)
        root.reach += k
    return emitted


def _distinct(labels: Iterable[list[str]]) -> Iterable[list[str]]:
    """``labels`` with each list once, for a strip that cuts a shared
    list for every edge that holds it."""
    return {id(label): label for label in labels}.values()


# ---------------------------------------------------------------------------
# Driver

# Enum members read as module globals: a class attribute lookup on an enum
# costs about 0.1 µs, several times a plain global's.
_RUNNING = Status.RUNNING
_CALL = SymbolKind.CALL
_INTERNAL = SymbolKind.INTERNAL


def step(state: EvalState, symbol: str) -> Word:
    """Consume one symbol and return the fragment emitted for it."""
    if state.status is not _RUNNING:
        raise EvalDiagnostic(f"step() after {state.status.value}")
    kind = state.index.kind.get(symbol)
    if kind is None:
        raise UnknownSymbol(f"symbol {symbol!r} is not in the machine's alphabet")
    state.position += 1
    state.last_symbol = symbol

    dag, rules_from = state.dag, state.index.rules
    if kind is _CALL:
        if dag.depth == state.max_depth:
            state.max_depth += 1
        update_call(dag, symbol, rules_from)
    elif kind is _INTERNAL:
        update_internal(dag, symbol, rules_from)
    elif dag.depth:
        update_return(dag, symbol, rules_from)
    else:
        state.valid = False
        return _reject(state)  # a return with no call pending
    if not dag.root.out:
        return _reject(state)
    if not state.factorize:
        return ()
    fragment = factorize_and_emit(dag)
    state.emitted_len += len(fragment)
    return fragment


def finish(state: EvalState) -> Optional[Word]:
    """End of input: the final fragment on acceptance, None on rejection."""
    if state.status is Status.REJECTED:
        return None
    if state.status is not Status.RUNNING:
        raise EvalDiagnostic("finish() called twice")
    dag = state.dag
    final = state.machine.final
    labels = [] if dag.depth else [label for node, label in dag.root.out.items()
                                   if node.state in final]
    if not labels:
        _reject(state)
        return None
    if any(lab != labels[0] for lab in labels):
        raise EvalDiagnostic(
            "accepting branches disagree on the remaining output; "
            "the machine is not functional")
    state.status = Status.FINISHED
    fragment = tuple(labels[0])
    state.emitted_len += len(fragment)
    return fragment


def _reject(state: EvalState) -> Word:
    """Mark ``state`` rejected at the position read; the empty fragment."""
    state.status = Status.REJECTED
    state.reject_position = state.position
    return ()


def decode(dag: EvalDag) -> set[DConfiguration]:
    """One d-configuration per root-to-leaf branch (the naive run set)."""
    result: set[DConfiguration] = set()
    # explicit stack of (node, stack spelled so far, residual so far): the
    # DAG is as deep as the input is nested
    pending: list[tuple[Node, tuple[str, ...], Word]] = [(dag.root, (), ())]
    while pending:
        node, stack, residual = pending.pop()
        children = node.out
        if not children:
            if node is not dag.root:
                result.add(DConfiguration(node.state, stack, residual))
            continue
        for child in children:
            child_stack = stack + (child.symbol,) if child.symbol else stack
            pending.append((child, child_stack, (*residual, *children[child])))
    return result


def memory_snapshot(state: EvalState) -> MemoryReport:
    """The telemetry record after the last step, exact on every call.

    It reads the DAG's running counters and the reach of each leaf, so it
    costs the width of the leaf level, not the size of the DAG.
    """
    dag = state.dag
    chain = dag.chain
    emitted = reach = dag.root.reach
    for leaf in dag.leaf_level.values():
        # a leaf with no chain link holds its own reach
        leaf_reach = dag.reach_of(leaf) if leaf in chain else leaf.reach
        if leaf_reach > reach:
            reach = leaf_reach
    # in field order: passed by keyword, the fields cost a third more
    return MemoryReport(
        state.position,
        state.last_symbol,
        dag.depth,                # hc
        len(dag.parents),         # node_count
        dag.edge_count,
        dag.label_tokens,         # label_tokens_total
        reach - emitted,          # out_neq
        state.emitted_len,        # emitted_total
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
