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
the chain's top through union-find style links.  An edge label is a list
or a ``Segment``.  A list belongs to one edge and is edited in place: a
hoist appends to the labels at the chain's top, a strip deletes a prefix,
an only child's label moves up whole, and a fold extends the list of the
edge it replaces.  A segment is an immutable concatenation of pieces
(lists, tuples, segments) with its length and first letter cached, which
any number of edges may hold.  A fold that would copy ``SEGMENT_FLOOR``
letters or more makes one segment that references head, mid and output
instead: so a return of fig2_t1, whose held output sits below the first
letter that tells its runs apart, costs its pieces, not the letters held,
and a fork of a long held label, a return or internal whose rules take one
run to several states with one output (one group of ``move_table``), gives
every edge of the fork the same segment.  A dropped edge releases its
reference; a strip of a segment keeps an offset into the same pieces; an
lcp reads the segments' first letters and then only the pieces that hold
the common prefix; and a hoist onto an edge that holds a segment appends
to an open segment, one that edge alone holds, made over it, unless the
fork's other edges are gone and the edge takes back the list the fork
shared.  Below the floor a label stays a list: a copy of a few letters
costs less than an object.
The fragments ``step`` and ``finish`` return and the residuals ``decode``
lists are tuples.

``start`` resolves the machine once, to its ``move_table``, and ``step``
reads each symbol's kind and moves from that table with one lookup.  Every
walk over nodes runs in the order the DAG built them: a level is a dict of
its nodes, and a node's parents are an insertion-ordered dict, each filled
in the order the update that made them ran.  That order is a function of
the input and of the sorted rule buckets of ``rule_index``, which the table
keeps, so a run is reproducible with no sorting.
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
from functools import lru_cache
from sys import getrefcount
from typing import Iterable, Optional

from .delay_algebra import Word, lcp
from .nested_words import ScanState, SymbolKind, UnknownSymbol
from .vpt_core import DConfiguration, Vpt, rule_index


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
        # child -> label: a list that this edge alone holds, which hoists,
        # strips and folds edit in place, or a ``Segment``
        self.out: dict[Node, list[str] | Segment] = {}
        # letters emitted plus the longest label sum from the root (see
        # ``EvalDag.reach_of``)
        self.reach = 0


# A fold or fork that would copy fewer letters than this copies them into a
# list, and a strip that leaves fewer letters of a segment does too; from
# this length on they reference the pieces in a ``Segment``.  A segment
# costs an object and a ``len`` that runs Python code, a copy about 4 ns a
# letter: on fig2_t1 c^n r1^n, whose folds copy up to n letters, a floor of
# 64 ran as fast as copying every label at n <= 128 and faster at n = 256,
# while floors of 4 to 32 ran up to 7 % slower than 64 at n = 32
# (``BENCH_segments.json``, ``floor``).
SEGMENT_FLOOR = 64


class Segment:
    """An immutable label that any number of edges may hold: the letters of
    ``left`` then ``right`` less the first ``skip``, ``n`` letters, the
    first of them ``first``.  A piece is a list or tuple of letters, or a
    segment; a list that is a piece is no edge's label any more, so nothing
    edits it until ``_reclaim`` takes it back from a segment that only one
    edge holds.

    An open segment is held by one edge and is no piece of a segment an
    edge holds: its ``right`` is a list of its own, and a hoist onto the
    edge appends to it in place.  Whatever gives it a second holder closes
    it first; a fold may take it as a piece once its edge is gone.  Every
    walk over the pieces keeps its own stack, as a segment can be as deep
    as the input is long."""
    __slots__ = ("left", "right", "skip", "n", "first", "open")

    def __init__(self, left, right):
        self.left = left
        self.right = right
        self.skip = 0
        self.open = False
        n = right.n if type(right) is Segment else len(right)
        if type(left) is Segment:
            self.n = left.n + n
            self.first = left.first
        elif left:
            self.n = len(left) + n
            self.first = left[0]
        else:
            self.n = n
            self.first = right.first if type(right) is Segment else right[0]

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(_letters(self))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (Segment, list, tuple)):
            return NotImplemented
        return self.n == len(other) and _letters(self) == _letters(other)

    def __repr__(self) -> str:
        return f"Segment({list(self)!r})"

    def cut(self, k: int):
        """The label that remains once a strip cuts the first ``k`` letters,
        0 < k: ``[]`` when none remains and a list when fewer than
        ``SEGMENT_FLOOR`` do, otherwise the same pieces at a larger offset,
        or the open tail itself once the cut reaches it."""
        rest = self.n - k
        if rest < SEGMENT_FLOOR:
            return list(_letters(self, k)) if rest else []
        skip = self.skip + k
        held = len(self.left)
        if self.open and skip >= held:
            tail = self.right
            del tail[:skip - held]
            return tail
        view = Segment.__new__(Segment)
        view.left, view.right, view.skip, view.n = self.left, self.right, skip, rest
        view.open = self.open
        view.first = _letters(view, 0, 1)[0]
        return view


def _letters(label, start: int = 0, stop: Optional[int] = None) -> Word:
    """Letters ``start`` to ``stop`` of a label as a tuple, reading only the
    pieces that hold them."""
    if type(label) is not Segment:
        return tuple(label[start:stop])
    if start or stop is not None:
        return tuple(_slice(label, start, (label.n if stop is None else stop) - start))
    out: list[str] = []
    pending = [label]
    while pending:  # all of it: only a segment cut by a strip skips letters
        piece = pending.pop()
        if type(piece) is not Segment:
            out += piece
        elif piece.skip:
            out += _slice(piece, 0, piece.n)
        else:
            pending.append(piece.right)
            pending.append(piece.left)
    return tuple(out)


def _slice(label: Segment, skip: int, need: int) -> list[str]:
    """The ``need`` letters of ``label`` after its first ``skip``."""
    out: list[str] = []
    pending = [label]
    while need > 0:  # ``skip``: letters of the piece on top to pass over
        piece = pending.pop()
        if type(piece) is Segment:
            skip += piece.skip
            left = piece.left
            held = len(left)
            if skip >= held:
                skip -= held
                pending.append(piece.right)
            else:
                pending.append(piece.right)
                pending.append(left)
        else:
            chunk = piece[skip:skip + need]
            skip = 0
            out += chunk
            need -= len(chunk)
    return out


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
        # segment counts once per edge that holds it
        self.edge_count = 0
        self.label_tokens = 0
        # letters written into label storage since the start: appended to
        # a list or copied into a new one, out of a rule, a label or a
        # segment that a strip cuts; a segment that references pieces
        # writes none.  A plain count, not a ``MemoryReport`` field, so
        # that a snapshot does not carry it.
        self.letters_written = 0

    # -- structure ---------------------------------------------------------

    def add_edge(self, src: Node, dst: Node, label: list[str] | Segment) -> None:
        """Add src -> dst with ``label``, which the edge takes over."""
        out = src.out
        if dst in out:
            if out[dst] != label:
                raise RunConflict(dst.state, dst.symbol, dst.depth, out[dst], label)
            return
        out[dst] = label
        n = len(label)  # once: a segment's ``len`` runs Python code
        self.edge_count += 1
        self.label_tokens += n
        # dst gets all its in-edges in the step that creates it, from
        # parents that outlive it: the max over them stays its longest path
        reach = (self.reach_of(src) if src in self.chain else src.reach) + n
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
                self.dirty.add(p)
            # the updates drop a level only after the level below it, and
            # the cascade only childless nodes
            assert not node.out, node
            self.chain.pop(node, None)
            self.dirty.discard(node)

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
    FAILED = "Failed"  # ended by an ``EvalDiagnostic``


@dataclass
class EvalState:
    """One evaluation in progress: the run DAG, the machine with its
    ``move_table``, which ``start`` looks up once so that ``step`` does no
    per-symbol lookup of the machine, and what ``scan`` reports of the input
    read so far.  The current height is ``dag.depth``; ``step`` counts the
    symbols read and keeps the highest depth reached and whether a return
    came at height 0, so that a symbol builds no record of its own."""
    dag: EvalDag
    emitted_len: int
    status: Status
    machine: Vpt
    table: dict[str, tuple[SymbolKind, dict]]
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
    The machine's ``move_table`` is looked up here, once for every step."""
    if not vpt.initial:
        raise NoInitialStates("machine has no initial state")
    dag = EvalDag()
    for q0 in sorted(vpt.initial):
        node = dag.leaf_level[q0, None] = Node(q0, None, 0)
        dag.add_edge(dag.root, node, [])
    return EvalState(dag=dag, emitted_len=0, status=Status.RUNNING, machine=vpt,
                     table=move_table(vpt), factorize=factorize)


# ---------------------------------------------------------------------------
# Per-symbol DAG updates

def _by_output(bucket) -> tuple[tuple[Word, tuple[str, ...]], ...]:
    """A sorted bucket as (output, targets) pairs, one per output."""
    targets: dict[Word, list[str]] = {}
    for r in bucket:
        targets.setdefault(r.out, []).append(r.dst)
    return tuple((out, tuple(dsts)) for out, dsts in targets.items())


# Cached because one machine is often evaluated many times over (the tests
# start tens of thousands of evaluations on a few hundred machines); 16
# entries, as for ``well_matched``, keep the last few machines.
@lru_cache(maxsize=16)
def move_table(vpt: Vpt) -> dict[str, tuple[SymbolKind, dict]]:
    """symbol -> (its kind, state -> the moves from that state), for every
    symbol of the alphabet, the state map empty when no rule reads it.

    A call's moves are ((target, pushed symbol), output) pairs, the key
    being that of the target node in ``dag.leaf_level``.  An internal's
    moves, and a return's for each popped symbol, are (output, targets)
    groups, one per output, so that a fork of one run into several states
    with one output is one fold.  Each is built from a bucket of
    ``rule_index`` in its sorted order, which the runs keep."""
    index = rule_index(vpt)
    table = {symbol: (kind, {}) for symbol, kind in index.kind.items()}
    for q, buckets in index.rules.items():
        for symbol, bucket in buckets.items():
            kind, moves = table[symbol]
            if kind is SymbolKind.CALL:
                moves[q] = tuple(((r.dst, r.push), r.out) for r in bucket)
            elif kind is SymbolKind.INTERNAL:
                moves[q] = _by_output(bucket)
            else:
                moves[q] = {pop: _by_output(rules) for pop, rules in bucket.items()}
    return table


# Each update reads the state map of its symbol in ``move_table``, once per
# leaf.  It walks the leaves and their parents in build order, and interns
# its new nodes, inline, into a fresh dict that becomes ``dag.leaf_level``;
# each new node gets a parent in the same step.

def update_call(dag: EvalDag, moves_from: dict) -> EvalDag:
    depth = dag.depth = dag.depth + 1
    level = {}
    orphans = []
    add_edge = dag.add_edge
    tokens = dag.label_tokens
    for leaf in dag.leaf_level.values():
        moves = moves_from.get(leaf.state)
        if moves is None:
            orphans.append(leaf)
            continue
        for key, out in moves:
            node = level.get(key)
            if node is None:
                node = level[key] = Node(key[0], key[1], depth)
            add_edge(leaf, node, [*out])
    # every letter the new edges hold was copied from a rule's output
    dag.letters_written += dag.label_tokens - tokens
    if orphans:
        dag.cascade_remove(orphans)
    dag.leaf_level = level
    return dag


def update_return(dag: EvalDag, moves_from: dict) -> EvalDag:
    """Pop into the level above; ``step`` rejects a return at depth 0."""
    # Collect the replacement level before touching anything: each surviving
    # leaf folds its parent edge, its rule output, and every grandparent edge
    # into new edges landing beside the grandparent.  The folds take over
    # the labels of the edges they replace, so those edges go first.
    new_edges = []
    last_use = {}
    orphans = []
    leaves = []
    parents_of = dag.parents
    parents: dict[Node, None] = {}
    for leaf in dag.leaf_level.values():
        by_pop = moves_from.get(leaf.state)
        groups = by_pop and by_pop.get(leaf.symbol)
        if not groups:
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
                for out, targets in groups:
                    new_edges.append((gp, targets, symbol_above, v1, v0, out))
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


def update_internal(dag: EvalDag, moves_from: dict) -> EvalDag:
    new_edges = []
    last_use = {}
    orphans = []
    leaves = []
    parents_of = dag.parents
    for leaf in dag.leaf_level.values():
        groups = moves_from.get(leaf.state)
        if not groups:
            orphans.append(leaf)
            continue
        leaves.append(leaf)
        for parent in parents_of[leaf]:
            v0 = parent.out[leaf]
            for out, targets in groups:
                new_edges.append((parent, targets, leaf.symbol, v0, (), out))
            last_use[id(v0)] = len(new_edges) - 1
    if orphans:
        dag.cascade_remove(orphans)
    dag._drop_nodes(leaves)
    _add_folded(dag, new_edges, last_use)
    return dag


def _add_folded(dag: EvalDag, new_edges: list, last_use: dict) -> None:
    """Add each fold ``(src, targets, symbol, head, mid, out)`` as src -> the
    node (state, symbol) of a fresh leaf level at ``dag.depth`` for each
    state of ``targets``, labelled head + mid + out; every source is the
    root or a live node.

    ``head`` and ``mid`` are labels of edges the update has removed, and
    every fold of a head leaves the same source.  ``last_use`` maps each
    head (by ``id``) to the index of its last fold, which takes a list or
    open segment over and appends mid and out to it, so a fold costs the
    letters it appends, not those it keeps; a fold ahead of it copies the
    head as it was.  Where that would copy ``SEGMENT_FLOOR`` letters or
    more, the fold makes one ``Segment`` that references head, mid and out
    instead, and a head referenced so is taken over by no later fold.  A
    fold's targets, one group of ``move_table``, get one label: from
    ``SEGMENT_FLOOR`` letters on, every edge the fold adds holds one closed
    segment; below, the last target takes the list and the others a copy
    each.  The old edges are off the counters by now, so a reused label is
    counted once per edge; the letters copied or appended go into
    ``dag.letters_written``.
    """
    depth = dag.depth
    level = dag.leaf_level = {}
    root, parents_of, add_edge = dag.root, dag.parents, dag.add_edge
    floor = SEGMENT_FLOOR
    written = 0
    for i, (src, targets, symbol, head, mid, out) in enumerate(new_edges):
        assert src is root or src in parents_of  # above a surviving leaf
        if last_use[id(head)] != i:
            if len(head) + len(mid) < floor:
                label = [*head, *mid, *out]
                written += len(label)
            else:
                label = _join(head, mid, out)
                last_use[id(head)] = -1  # no later fold takes it over
        elif len(mid) >= floor:
            # fig2_t1's returns: a letter before the held output
            label = _join(head, mid, out)
        elif type(head) is list:
            head += mid
            head += out
            label = head
            written += len(mid) + len(out)
        elif head.open:
            tail = head.right
            tail += mid
            tail += out
            k = len(mid) + len(out)
            head.n += k
            label = head
            written += k
        else:
            label = _join(head, mid, out)
        last = targets[-1]
        share = len(targets) > 1 and (type(label) is not list or len(label) >= floor)
        if share:
            if type(label) is list:
                label = Segment(label, ())
            else:
                label.open = False
        for state in targets:
            key = (state, symbol)
            dst = level.get(key)
            if dst is None:
                dst = level[key] = Node(state, symbol, depth)
            if share or state is last:
                add_edge(src, dst, label)
            else:
                add_edge(src, dst, [*label])
                written += len(label)
    dag.letters_written += written


def _join(head, mid, out) -> Segment:
    """head + mid + out, not all empty, as a segment over the pieces."""
    label = Segment(head, mid)
    return Segment(label, out) if out else label


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
    empty list; so do the labels of a node whose out-edges all hold the
    same letters, as a fork of a short label leaves them.  Lists are edited
    in place: a hoist appends to them and a strip deletes their prefix.
    With a segment among the labels, the lcp reads the segments' first
    letters and then only the pieces that hold the common prefix, and a
    strip cuts each label once, keeping an offset into the pieces where
    ``SEGMENT_FLOOR`` letters or more remain.  A hoist onto an edge that
    holds a segment appends to it in place when it is open, to the list it
    was made over when no other edge holds it any more (``_reclaim``), and
    otherwise to a fresh open segment over it.  The letters hoists append, and those a
    cut copies, go into ``dag.letters_written``.
    """
    root = dag.root
    dirty = dag.dirty
    if not root.out:
        dirty.clear()
        return ()
    parents_of, chain = dag.parents, dag.chain
    written = 0
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
                # an only child's label moves up whole
                (child, common), = out_edges.items()
                if not common:
                    continue
                out_edges[child] = []
            else:
                labels = [*out_edges.values()]
                first, last = labels[0], labels[-1]
                if type(first) is not list or type(last) is not list or (
                        len(labels) > 2 and Segment in map(type, labels)):
                    common = _segment_lcp(labels)
                    if not common:
                        continue
                    written += _strip(out_edges, len(common))
                elif not first or not last or first[0] != last[0]:
                    continue  # two of the lists part at once
                elif labels.count(first) == len(labels):
                    # one label on every edge, as a fork of a short label
                    # leaves it: it moves up whole, like an only child's
                    common = first
                    for child in out_edges:
                        out_edges[child] = []
                else:
                    common = lcp(labels)
                    if not common:
                        continue
                    for label in labels:
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
                if type(label) is list:
                    # p's labels part at once (see the docstring), so
                    # that appending to a label with a letter keeps them
                    # parted; a list copies the letters of a segment
                    settled = bool(label)
                    label += common
                    written += k
                    if settled:
                        continue
                else:
                    # a segment holds a letter, so p's labels stay parted
                    if type(common) is Segment:
                        p.out[node] = _append(label, common)
                        continue
                    written += k
                    if label.open:
                        label.right += common
                        label.n += k
                        continue
                    owned = _reclaim(label)
                    if owned is None:
                        p.out[node] = _append(label, common)
                        continue
                    written += len(label.right)  # copied into the list
                    p.out[node] = owned
                    owned += common
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
    dag.letters_written += written
    if not emit:
        return ()
    root_edges = root.out
    labels = [*root_edges.values()]
    first, last = labels[0], labels[-1]
    segmented = type(first) is not list or type(last) is not list or (
        len(labels) > 2 and Segment in map(type, labels))
    if segmented:
        emitted = _segment_lcp(labels)
    elif not first or not last or first[0] != last[0]:
        return ()
    else:
        emitted = lcp(labels)
    if not emitted:
        return ()
    k = len(emitted)
    if segmented:
        dag.letters_written += _strip(root_edges, k)
        emitted = _letters(emitted)
    else:
        for label in labels:
            del label[:k]
    dag.label_tokens -= k * len(root_edges)
    root.reach += k
    return emitted


def _segment_lcp(labels: list) -> Word | Segment:
    """The lcp of one or more labels, a segment among them: the label
    itself when they are all one segment, else a tuple.  A segment gives
    its first letter at once; beyond it, only the pieces that hold the
    common prefix are read, in doubling lengths."""
    first = labels[0]
    if type(first) is Segment:
        head = first.first
    elif first:
        head = first[0]
    else:
        return ()
    same = True
    for label in labels:
        if label is not first:
            same = False
            if type(label) is Segment:
                if label.first != head:
                    return ()
            elif not label or label[0] != head:
                return ()
    if same:
        return first
    n = min(map(len, labels))
    m = 16
    while True:
        m = min(m, n)
        common = lcp([_letters(label, 0, m) for label in labels])
        if len(common) < m or m == n:
            return common
        m *= 2


def _strip(out_edges: dict, k: int) -> int:
    """Cut the first ``k`` letters off every label of ``out_edges``, a
    segment among them, and return the letters the cuts copy: a list loses
    them in place, and a segment gives way to ``Segment.cut``'s label."""
    copied = 0
    for child, label in out_edges.items():
        if type(label) is list:
            del label[:k]
            continue
        label = out_edges[child] = label.cut(k)
        if type(label) is list:
            copied += len(label)
    return copied


def _reclaim(label: Segment) -> Optional[list[str]]:
    """The list that an edge holding the closed segment ``label`` takes
    back, to append to in place, or None.  It does when no other edge
    holds the segment and it is no piece of another (its references are
    the edge's, the caller's, this call's and ``getrefcount``'s), its left
    piece is a list that only it holds and from which it cuts no letter,
    and its right piece is empty or a list that only it holds, whose
    letters the left list takes.  So once a fork's other edges are gone,
    the edge left goes back to the list the fork shared."""
    if getrefcount(label) != 4 or label.skip or type(label.left) is not list:
        return None
    if getrefcount(label.left) != 2:
        return None
    right = label.right
    if right and (type(right) is not list or getrefcount(right) != 3):
        return None
    left = label.left
    left += right
    return left


def _append(label, common) -> list[str] | Segment:
    """The label of an edge that held the segment ``label`` once a hoist
    appends ``common`` that ``label`` does not take in place: a segment
    over both when ``common`` is a segment, else an open segment over
    ``label`` and a copy of the letters."""
    if type(common) is Segment:
        common.open = False  # it may go to several labels
        if not label:
            return common
        if type(label) is Segment:
            label.open = False
        return Segment(label, common)
    label = Segment(label, [*common])
    label.open = True
    return label


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
    entry = state.table.get(symbol)
    if entry is None:
        raise UnknownSymbol(f"symbol {symbol!r} is not in the machine's alphabet")
    kind, moves = entry
    state.position += 1
    state.last_symbol = symbol

    dag = state.dag
    try:
        if kind is _CALL:
            if dag.depth == state.max_depth:
                state.max_depth += 1
            update_call(dag, moves)
        elif kind is _INTERNAL:
            update_internal(dag, moves)
        elif dag.depth:
            update_return(dag, moves)
        else:
            state.valid = False
            return _reject(state)  # a return with no call pending
    except EvalDiagnostic:
        # the update stopped half way, so the DAG is no run set any more
        state.status = Status.FAILED
        raise
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
        raise EvalDiagnostic(f"finish() after {state.status.value}")
    dag = state.dag
    final = state.machine.final
    labels = [] if dag.depth else [label for node, label in dag.root.out.items()
                                   if node.state in final]
    if not labels:
        _reject(state)
        return None
    if any(lab != labels[0] for lab in labels):
        state.status = Status.FAILED
        raise EvalDiagnostic(
            "accepting branches disagree on the remaining output; "
            "the machine is not functional")
    state.status = Status.FINISHED
    fragment = _letters(labels[0])
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
