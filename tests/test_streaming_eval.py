import gc
import itertools
import math
import random

import pytest

from vptstream import (
    EvalDiagnostic,
    ScanState,
    UnknownSymbol,
    decode,
    finish,
    lcp,
    machines,
    memory_snapshot,
    naive_eval,
    parse_vpt,
    reach,
    run_stream,
    scan,
    start,
    step,
)
from vptstream import streaming_eval
from vptstream.streaming_eval import SEGMENT_FLOOR, EvalDag, Segment, Status, _add_folded
from vptstream.vpt_core import (
    initial_dconfigs,
    reduce,
    run_dconfigs,
    update_dconfigs,
)

from helpers import (
    EMITS_THEN_CONFLICTS,
    assert_dag_invariants,
    dag_level,
    level_widths,
    live_prefixes,
    load_gen,
    random_det_vpt,
    random_nondet_vpt,
    snapshot_by_walk,
)


def test_emission_waits_for_the_deciding_return(fig2_t1):
    # outputs ride on the calls (a vs b per push), so nothing can be emitted
    # until the returns disambiguate the pushes bottom-up
    st = start(fig2_t1)
    assert step(st, "c") == ()
    assert step(st, "c") == ()
    assert step(st, "r1") == ()
    assert step(st, "r1") == ("a", "a")
    assert finish(st) == ()


def test_run_stream_totals(fig3_plain):
    assert run_stream(start(fig3_plain), ["c", "r"]) == ("a", "c")
    assert run_stream(start(fig3_plain), ["c", "c", "r", "rp"]) == ("b", "b", "c", "c")
    assert run_stream(start(fig3_plain), ["c", "c"]) is None
    assert run_stream(start(fig3_plain), ["r"]) is None


def test_dag_levels_track_pending_calls(fig2_t1):
    st = start(fig2_t1)
    step(st, "c")
    assert [(n.state, n.symbol) for n in dag_level(st.dag, 1)] == \
        [("q0", "g1"), ("q0", "g2")]
    step(st, "c")
    assert level_widths(st.dag) == [1, 2, 2]
    step(st, "r1")
    # the pop resolves the top push; both first-call choices stay open
    assert st.dag.depth == 1
    assert [(n.state, n.symbol) for n in dag_level(st.dag, 1)] == \
        [("q1", "g1"), ("q1", "g2")]


def test_snapshot_counts(fig2_t1):
    st = start(fig2_t1)
    step(st, "c")
    snap = memory_snapshot(st)
    assert (snap.position, snap.hc) == (1, 1)
    assert snap.node_count == 3          # bottom + one node per push choice
    assert snap.label_tokens_total == 2  # the undecided 'a' and 'b'
    assert snap.out_neq == 1
    assert snap.emitted_total == 0


def test_residual_growth_at_fixed_height(fig4):
    st = start(fig4)
    for k in range(1, 8):
        step(st, "c")
        assert memory_snapshot(st).out_neq == k


def test_emitted_is_lcp_of_reachable_outputs():
    for name in machines.names():
        m = machines.load(name)
        for prefix, _ in live_prefixes(m, 7):
            if not prefix:
                continue
            st = start(m)
            emitted = sum((step(st, sym) for sym in prefix), ())
            assert emitted == lcp(reach(m, prefix)), (name, prefix)


def test_decode_recovers_all_runs():
    for name in machines.names():
        m = machines.load(name)
        for prefix, _ in live_prefixes(m, 6):
            st = start(m)
            emitted = sum((step(st, sym) for sym in prefix), ())
            got = {(dc.state, dc.stack, emitted + dc.residual)
                   for dc in decode(st.dag)}
            want = {(dc.state, dc.stack, dc.residual)
                    for dc in run_dconfigs(m, prefix)}
            assert got == want, (name, prefix)


def test_decode_deep_dag(fig4):
    # 1500 pending calls make the DAG deeper than the default recursion
    # limit; without factorization every residual stays on the edges, so
    # decoding must give back the naive run set exactly
    word = ("c",) * 1500
    st = start(fig4, factorize=False)
    for sym in word:
        step(st, sym)
    assert decode(st.dag) == run_dconfigs(fig4, word)


def test_chain_hoist_keeps_a_dead_siblings_label_first():
    # the second c kills the q2 branch, leaving s0 -> q1 a single-child
    # chain whose label x is still pending when q1 hoists z: x must come
    # out before z
    m = parse_vpt("""
calls: c
returns: r
states: s0 q1 q2 f
initial: s0
final: f
stack: g
trans s0 c x push g q1
trans s0 c y push g q2
trans q1 c z push g q1
trans q1 r - pop g f
trans q2 r - pop g f
trans f r - pop g f
""")
    st = start(m)
    assert step(st, "c") == ()
    assert step(st, "c") == ("x", "z")
    assert_dag_invariants(st)


def _call_heavy_run(m, rng: random.Random, length: int) -> list[str]:
    """The input word of one random run of ``m``, taking calls in bursts of
    up to 15 whenever a call rule applies."""
    state, stack, word, burst = rng.choice(sorted(m.initial)), (), [], 0
    while len(word) < length:
        if not burst and rng.random() < 0.3:
            burst = rng.randint(3, 15)
        moves = [(r.symbol, r.dst, stack + (r.push,))
                 for r in sorted(m.call_rules) if r.src == state]
        if not (burst and moves):
            moves += [(r.symbol, r.dst, stack[:-1])
                      for r in sorted(m.return_rules)
                      if r.src == state and stack[-1:] == (r.pop,)]
            moves += [(r.symbol, r.dst, stack)
                      for r in sorted(m.internal_rules) if r.src == state]
        if not moves:
            break
        symbol, state, stack = rng.choice(moves)
        word.append(symbol)
        burst = max(burst - 1, 0)
    return word


def test_factorized_dag_decodes_like_the_plain_one():
    # after every symbol, the emitted prefix plus each residual left on the
    # factorized DAG is a run of the unfactorized DAG, and vice versa;
    # decoding lists every root-to-leaf path, so it is skipped where the
    # product of the level widths (a bound on the path count) is large
    rng = random.Random(7)
    compared = 0
    for _ in range(200):
        m = random_nondet_vpt(rng)
        fast, plain = start(m), start(m, factorize=False)
        emitted: tuple[str, ...] = ()
        for sym in _call_heavy_run(m, rng, 40):
            try:
                emitted += step(fast, sym)
            except EvalDiagnostic:
                with pytest.raises(EvalDiagnostic):
                    step(plain, sym)
                break
            step(plain, sym)
            assert fast.status is plain.status is Status.RUNNING
            assert_dag_invariants(fast)
            dag = fast.dag
            if math.prod(level_widths(dag)) > 2048:
                continue
            got = {(dc.state, dc.stack, emitted + dc.residual)
                   for dc in decode(dag)}
            want = {(dc.state, dc.stack, dc.residual) for dc in decode(plain.dag)}
            assert got == want, (m, sym)
            compared += 1
    assert compared > 3000  # the corpus is not degenerate


def test_decode_matches_the_run_set_on_random_machines():
    # a leaf with several rules folds the same dying label into several new
    # edges, and only the last of them may take the list over: after every
    # symbol the emitted prefix plus each decoded residual must be exactly
    # the run set, on nondeterministic machines with internal symbols
    rng = random.Random(5)
    compared = 0
    for _ in range(150):
        m = random_nondet_vpt(rng)
        st = start(m)
        runs = initial_dconfigs(m)
        emitted: tuple[str, ...] = ()
        for sym in _call_heavy_run(m, rng, 24):
            try:
                emitted += step(st, sym)
            except EvalDiagnostic:
                break
            runs = update_dconfigs(runs, sym, m)
            if len(runs) > 256:
                break
            got = {(dc.state, dc.stack, emitted + dc.residual)
                   for dc in decode(st.dag)}
            assert got == set(runs), (m, sym)
            compared += 1
    assert compared > 1500  # the corpus is not degenerate


def test_snapshot_counters_match_the_walk():
    # the running counters and leaf reaches against a walk over the whole
    # DAG, after every step: random machines as generated and reduced, on
    # call-heavy runs, with and without factorization
    rng = random.Random(11)
    compared = 0
    for i in range(200):
        m = (random_det_vpt if i % 2 else random_nondet_vpt)(rng)
        for machine in (m, reduce(m)):
            if not machine.initial:
                continue
            word = _call_heavy_run(machine, rng, 40)
            for factorize in (True, False):
                st = start(machine, factorize=factorize)
                for sym in word:
                    try:
                        step(st, sym)
                    except EvalDiagnostic:
                        break
                    assert memory_snapshot(st) == snapshot_by_walk(st), \
                        (machine, word, factorize, st.scan.position)
                    compared += 1
                    if st.status is not Status.RUNNING:
                        break
    assert compared > 15000  # the corpus is not degenerate


def test_snapshot_on_deep_fig2_t1(fig2_t1):
    # after k calls both pushes stay open at every level: out_neq = k;
    # the returns decide the pushes from the top, but the bottom letter,
    # which comes first, only on the last one, so out_neq stays n until
    # everything is emitted
    n = 1500
    rng = random.Random(n)
    word = ["c"] * n + ["r1"] + [rng.choice(["r1", "r2"]) for _ in range(n - 1)]
    st = start(fig2_t1)
    for i, sym in enumerate(word, 1):
        step(st, sym)
        snap = memory_snapshot(st)
        if i <= n:
            assert (snap.hc, snap.node_count, snap.edge_count,
                    snap.label_tokens_total, snap.out_neq) == \
                (i, 2 * i + 1, 4 * i - 1, 4 * i - 2, i), snap
        else:
            assert snap.hc == 2 * n - i
            assert snap.out_neq == (n if i < 2 * n else 0), (i, snap)
        if i % 100 == 0 or i == 2 * n:
            assert snap == snapshot_by_walk(st), i
    assert st.emitted_len == n


def test_deep_fig4_emission_profile(fig4):
    # height 1500: nothing while the calls pile up, everything decided by
    # the first return, then one letter per return
    n = 1500
    st = start(fig4)
    profile = [len(step(st, sym)) for sym in ["c"] * n + ["r"] * n]
    assert profile == [0] * n + [n + 1] + [1] * (n - 1)
    assert finish(st) == ()


def test_deep_fig3_plain_right(fig3_plain):
    n = 1500
    word = ["c"] * n + ["r"] * (n - 1) + ["rp"]
    st = start(fig3_plain)
    assert sum((step(st, sym) for sym in word[:-1]), ()) == ()
    assert step(st, "rp") == ("b",) * n + ("c",) * n
    assert finish(st) == ()


def test_deep_fig2_t1_seeded_returns(fig2_t1):
    # the i-th return from the top names the i-th push from the top (r1:
    # g1 and a, r2: g2 and b); naive_eval lists 2^n runs, so it checks this
    # closed form at small n and the evaluator is held to it at n = 1500
    rng = random.Random(1500)

    def word_and_output(n):
        rets = ["r1"] + [rng.choice(["r1", "r2"]) for _ in range(n - 1)]
        out = tuple("a" if r == "r1" else "b" for r in reversed(rets))
        return ["c"] * n + rets, out

    for n in range(1, 9):
        word, out = word_and_output(n)
        assert naive_eval(fig2_t1, word) == out, word
        assert run_stream(start(fig2_t1), word) == out, word
    word, out = word_and_output(1500)
    assert run_stream(start(fig2_t1), word) == out


def _fig3_full_word(blocks, closing):
    """Blocks c^k r^k, the last one closing on ``closing``, and the output:
    a per c and c per r on the left branch (closing r), b and c on the
    right one (closing rp)."""
    word = [sym for k in blocks for sym in ["c"] * k + ["r"] * k]
    word[-1] = closing
    call_out = "a" if closing == "r" else "b"
    return word, tuple(call_out if sym == "c" else "c" for sym in word)


@pytest.mark.parametrize("closing", ["r", "rp"])
def test_long_flat_fig3_full_holds_everything(fig3_full, closing):
    # about 20 000 symbols at height <= 3 whose branch is decided by the
    # last one: every label keeps growing, nothing leaves before the end
    rng = random.Random(20_000)
    blocks = []
    while sum(blocks) < 10_000:
        blocks.append(rng.choice((1, 2, 3)))
    blocks.append(rng.choice((2, 3)))
    word, out = _fig3_full_word(blocks, closing)
    st = start(fig3_full)
    for i, sym in enumerate(word[:-1], 1):
        assert step(st, sym) == (), i
        if i % 997 == 0:
            assert_dag_invariants(st)  # memory_snapshot against the walk too
    assert step(st, word[-1]) + finish(st) == out
    assert memory_snapshot(st) == snapshot_by_walk(st)


@pytest.mark.parametrize("closing", ["r", "rp"])
def test_fig3_full_pumped_loop_then_the_deciding_block(fig3_full, closing):
    word, out = _fig3_full_word([1] * 5000 + [2], closing)
    assert run_stream(start(fig3_full), word) == out


def test_hoist_appends_to_the_root_label_in_place(fig3_full):
    st = start(fig3_full)
    for sym in ["c", "r", "c", "r"]:
        step(st, sym)
    before = {top: (label, len(label)) for top, label in st.dag.root.out.items()}
    assert step(st, "c") == ()  # at depth 0: each branch hoists its a or b
    assert st.dag.root.out.keys() == before.keys()
    for top, label in st.dag.root.out.items():
        assert label is before[top][0]
        assert len(label) == before[top][1] + 1


def test_a_fork_of_a_long_held_label_shares_one_segment(fig3_full):
    # p2 --r/c--> {p2, p3} folds the held root label into two edges with
    # one output: past SEGMENT_FLOOR letters both edges hold one closed
    # segment, which references the held letters instead of copying them
    word = ["c", "c", "r", "r"] * 21
    st = start(fig3_full)
    for sym in word:
        assert step(st, sym) == ()
    assert_dag_invariants(st)
    labels = {node.state: label for node, label in st.dag.root.out.items()}
    assert labels.keys() == {"p2", "p3", "q2"}
    assert type(labels["p2"]) is Segment and labels["p2"] is labels["p3"]
    assert not labels["p2"].open and len(labels["p2"]) >= SEGMENT_FLOOR
    assert type(labels["q2"]) is list  # no fork on the b branch
    assert finish(st) == ("a", "a", "c", "c") * 21


@pytest.mark.parametrize("blocks", [21, 200])
def test_the_edge_a_fork_leaves_takes_back_the_shared_list(fig3_full, blocks):
    # once p3 dies, p2's edge alone holds the fork's segment, and the next
    # hoist takes back the list it was made over: however many forks the
    # word makes, the label stays the list that held the letters when the
    # label first passed the floor, never copied.  The test keeps no
    # reference to a label between steps, as one would stop the evaluator
    # from taking the list back (it would append to a segment instead)
    st = start(fig3_full)
    shared = None  # id of that list
    for sym in ["c", "c", "r", "r"] * blocks + ["c"]:
        step(st, sym)
        if shared is None:
            label = {n.state: label for n, label in st.dag.root.out.items()}.get("p3")
            if type(label) is Segment:
                assert type(label.left) is list
                shared = id(label.left)
            del label
    labels = {node.state: label for node, label in st.dag.root.out.items()}
    assert labels.keys() == {"p2", "q2"}
    assert type(labels["p2"]) is list and id(labels["p2"]) == shared
    assert len(labels["p2"]) == 4 * blocks + 1
    assert_dag_invariants(st)


# fig3_full with two more ways to go on from its fork p2 --r/c--> {p2, p3}.
# p3 reads a call with an output other than p2's, so each edge sharing the
# held label takes a hoist of its own.  The s states copy the p states
# without the fork; the internal k kills the q branch and appends e to the p
# branch and d to the s branch, so the root emits all of the shared label
# but the e, cutting it once for two edges.  Behind the call o, which is
# never popped, the same happens one level down, below the node j.
FORKS = parse_vpt("""
calls: c o
returns: r rp
internals: k f
states: i j p1 p2 p3 p4 p5 s1 s2 s3 q1 q2 q3
initial: i j
final: p2 p3 p5 s3 q3
stack: g h
trans j o - push h i
trans i c a push g p1
trans p1 c a push g p1
trans p1 r c pop g p2
trans p2 r c pop g p2
trans p2 r c pop g p3
trans p2 c a push g p1
trans p3 c x push h p4
trans p4 rp z pop h p5
trans p2 k e int p2
trans p3 k e int p3
trans i c a push g s1
trans s1 c a push g s1
trans s1 r c pop g s2
trans s2 r c pop g s2
trans s2 c a push g s1
trans s2 k d int s2
trans s2 f - int s3
trans i c b push g q1
trans q1 c b push g q1
trans q1 r c pop g q2
trans q2 r c pop g q2
trans q2 rp c pop g q3
trans q2 c b push g q1
""")


def test_a_shared_segment_takes_a_hoist_per_edge_and_a_cut_per_edge():
    held = ["c", "c", "r", "r"] * 17
    tails = (["c", "rp"], ["c", "r", "c", "c", "r", "r"], ["c", "c", "r", "rp"],
             ["c", "c", "r", "r", "c", "rp"], ["k"], ["k", "f"], ["k", "k", "c", "r"])
    for word in [head + held + tail for head in ([], ["o"]) for tail in tails]:
        st = start(FORKS)
        emitted = ()
        for i, sym in enumerate(word, 1):
            emitted += step(st, sym)
            assert_dag_invariants(st)
            assert emitted == lcp(reach(FORKS, word[:i])), (word, i)
        tail = finish(st)
        assert (None if tail is None else emitted + tail) == naive_eval(FORKS, word), word
    st = start(FORKS)
    for sym in held:
        step(st, sym)
    labels = {node.state: label for node, label in st.dag.root.out.items()}
    shared = labels["p2"]
    assert type(shared) is Segment and labels["p3"] is shared
    assert len(shared) > SEGMENT_FLOOR
    # each edge takes its hoist in an open segment of its own over the
    # shared one, which no hoist edits
    step(st, "c")
    labels = {node.state: label for node, label in st.dag.root.out.items()}
    assert labels["p2"] is not labels["p3"]
    assert labels["p2"].left is shared and labels["p3"].left is shared
    assert labels["p2"].open and labels["p3"].open
    assert list(labels["p2"])[-1] == "a" and list(labels["p3"])[-1] == "x"
    assert len(shared) == len(held)
    # the root emits all of the shared letters but the e: each edge keeps
    # what remains of its own label
    st = start(FORKS)
    for sym in held:
        step(st, sym)
    assert step(st, "k") == ("a", "a", "c", "c") * 17
    assert all(type(label) is list for label in st.dag.root.out.values())
    assert finish(st) == ("e",)


def test_folds_of_a_long_head_reference_it():
    # folds of one long head: the two ahead of the last reference it in
    # segments instead of copying it, so the last cannot take it over and
    # references it too; the fork onto A, B and C finds the edge to A
    # already there, so B and C alone hold its segment.  A fork of a short
    # head gives each target a list of its own, the last target taking the
    # head.
    dag = EvalDag()
    root = dag.root
    head, short = list("h" * SEGMENT_FLOOR), ["s"]
    mid = ["m"]
    folds = [(root, ("A",), None, head, mid, ("x",)),
             (root, ("A", "B", "C"), None, head, mid, ("x",)),
             (root, ("D", "E"), None, short, (), ("y",)),
             (root, ("F",), None, head, ["n"], ("z",))]
    _add_folded(dag, folds, {id(head): 3, id(short): 2})
    labels = {node.state: label for node, label in root.out.items()}
    assert labels["B"] is labels["C"] is not labels["A"]
    assert labels["A"] == labels["B"] == list("h" * SEGMENT_FLOOR + "mx")
    assert labels["F"] == list("h" * SEGMENT_FLOOR + "nz")
    assert head == list("h" * SEGMENT_FLOOR)  # no fold extended it
    for state in "ABF":
        assert type(labels[state]) is Segment
        assert labels[state].left.left is head  # referenced, not copied
    assert labels["E"] is short and labels["D"] == short == ["s", "y"]
    assert dag.edge_count == 6
    assert dag.label_tokens == 4 * (SEGMENT_FLOOR + 2) + 2 * 2
    # the segments write no letter: y onto the short head, and D's copy
    assert dag.letters_written == 1 + 2


def test_a_dropped_state_is_freed_without_the_cycle_collector(fig3_full):
    # nodes refer only to their children, so reference counting frees a DAG
    # with its labels as soon as the state goes
    word = "c r c c r r c r".split()
    run_stream(start(fig3_full), word)  # fills the machine's lazy caches
    gc.collect()
    gc.disable()
    try:
        st = start(fig3_full)
        for sym in word:
            step(st, sym)
        del st
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_public_results_are_tuples(fig4, fig3_full):
    st = start(fig4)
    fragments = [step(st, sym) for sym in ["c", "c", "r", "r"]]
    assert fragments == [(), (), ("a", "a", "c"), ("c",)]
    assert all(type(f) is tuple for f in fragments)
    st = start(fig3_full)
    step(st, "c")
    step(st, "r")
    assert {dc.residual for dc in decode(st.dag)} == {("a", "c"), ("b", "c")}
    assert all(type(dc.residual) is tuple for dc in decode(st.dag))
    tail = finish(st)  # only p2 is final
    assert type(tail) is tuple and tail == ("a", "c")


def test_factorize_toggle_changes_nothing_observable(fig3_full):
    for word in (["c", "r"], ["c", "c", "r", "r"], ["c", "r", "c", "r", "c"]):
        fast, plain = start(fig3_full), start(fig3_full, factorize=False)
        for sym in word:
            assert step(fast, sym) == step(plain, sym)
            assert decode(fast.dag) == decode(plain.dag)


def test_structural_invariants_hold_along_streams():
    for name in machines.names():
        m = machines.load(name)
        for prefix, _ in live_prefixes(m, 6):
            st = start(m)
            for sym in prefix:
                step(st, sym)
                assert_dag_invariants(st)


def test_reject_records_position(fig3_plain):
    st = start(fig3_plain)
    assert run_stream(st, ["c", "c", "r", "r", "r"]) is None
    assert st.reject_position == 5

    st = start(fig3_plain)
    step(st, "rp")  # pop at height zero
    assert st.reject_position == 1


def test_unknown_symbol_raises(fig3_plain):
    st = start(fig3_plain)
    with pytest.raises(UnknownSymbol):
        step(st, "z")


def _assert_scan_along(m, word) -> None:
    """Step ``word`` and compare ``EvalState.scan`` with the nested-word
    scan of the prefix read after every step, up to a rejection."""
    st = start(m)
    for i, symbol in enumerate(word, 1):
        try:
            step(st, symbol)
        except EvalDiagnostic:
            return  # a machine that is not reduced functional; no state after
        assert st.scan == scan(word[:i], m.alphabet), (word[:i], st.scan)
        if st.status is not Status.RUNNING:
            return


def test_scan_view_matches_the_nested_word_scan():
    pool = load_gen().check_pool()
    sample = random.Random(29).sample(pool, 40)
    corpus = [machines.load(name) for name in machines.names()]
    corpus += [parse_vpt(text) for _, text in sample]
    for m in corpus:
        symbols = sorted(m.alphabet.symbols)
        for count, (prefix, _) in enumerate(live_prefixes(m, 5)):
            if count == 60:
                break
            # every one-symbol extension, including those that reject
            for symbol in symbols:
                _assert_scan_along(m, prefix + (symbol,))


@pytest.mark.parametrize("word, expected", [
    # a return at height 0 rejects and makes the scan invalid
    (("rp",), ScanState(1, 0, 0, False)),
    (("c", "r", "r"), ScanState(3, 0, 1, False)),
    # no rule of fig3_plain reads a call after a return: the DAG dies at
    # height 1, and the scan is still valid
    (("c", "c", "r", "c"), ScanState(4, 2, 2, True)),
])
def test_scan_view_at_a_reject(fig3_plain, word, expected):
    st = start(fig3_plain)
    for symbol in word:
        step(st, symbol)
    assert st.scan == expected == scan(word, fig3_plain.alphabet)
    assert st.reject_position == len(word)


def test_unknown_symbol_leaves_the_scan_unchanged(fig3_plain):
    st = start(fig3_plain)
    step(st, "c")
    before = st.scan
    with pytest.raises(UnknownSymbol):
        step(st, "z")
    assert st.scan == before == ScanState(1, 1, 1, True)
    assert st.last_symbol == "c" and st.status is Status.RUNNING


def test_partial_emission_can_precede_a_reject(fig3_plain):
    # b^{n+1}c^{n+1} has flowed in full before the stream turns out to be bad
    st = start(fig3_plain)
    got = [step(st, s) for s in ["c", "c", "r", "rp"]]
    assert sum(got, ()) == ("b", "b", "c", "c")
    assert run_stream(st, ["c"]) is None   # no rule continues past q3


@pytest.mark.parametrize("word", [["a"], ["c", "a"]])
def test_internal_fold_into_two_edges_copies_before_it_reuses(word):
    # both rules of the leaf fold the same dying label: the first new edge
    # must copy it, or the second would inherit x and x would come out
    m = parse_vpt("""
calls: c
returns: r
internals: a
states: s0 s1 s2
initial: s0
final: s1 s2
stack: g
trans s0 c - push g s0
trans s0 a x int s1
trans s0 a y int s2
""")
    st = start(m)
    assert sum((step(st, sym) for sym in word), ()) == ()
    assert {(dc.state, dc.residual) for dc in decode(st.dag)} == {
        ("s1", ("x",)), ("s2", ("y",))}
    assert_dag_invariants(st)


def test_accepting_branch_disagreement_is_diagnosed():
    m = parse_vpt("""
internals: a
states: s0 s1
initial: s0
final: s1
trans s0 a x int s1
trans s0 a y int s1
""")
    st = start(m)
    # two run bundles land on the same node with different outputs: caught
    # the moment the edges collide, not at the end of the stream
    with pytest.raises(EvalDiagnostic):
        step(st, "a")


# On EMITS_THEN_CONFLICTS the call d raises RunConflict; on the second
# machine the two accepting runs of a disagree, and finish says so.
@pytest.mark.parametrize("text, read, fail, then", [
    (EMITS_THEN_CONFLICTS, "c", lambda st: step(st, "d"), "r"),
    ("internals: a\nstates: i p q\ninitial: i\nfinal: p q\n"
     "trans i a x int p\ntrans i a y int q\ntrans p a - int p\n", "a", finish, "a"),
], ids=["conflict", "disagreement"])
def test_an_eval_diagnostic_ends_the_evaluation(text, read, fail, then):
    st = start(parse_vpt(text))
    step(st, read)
    with pytest.raises(EvalDiagnostic):
        fail(st)
    assert st.status is Status.FAILED
    for later in (lambda: step(st, then), lambda: finish(st)):
        with pytest.raises(EvalDiagnostic, match="after Failed"):
            later()
    assert st.reject_position is None


def _assert_generated_document(doc) -> None:
    """Stream ``doc``, checking the fragments against its closed form after
    every symbol (an exact profile, or nothing before the last symbol) and
    ``assert_dag_invariants`` every 64 symbols."""
    st = start(machines.load(doc.machine))
    emitted = ()
    last = len(doc.symbols)
    for i, sym in enumerate(doc.symbols, 1):
        fragment = step(st, sym)
        if doc.profile is not None:
            assert fragment == doc.output[len(emitted):len(emitted) + doc.profile[i - 1]], i
        elif i < last:
            assert fragment == (), i
        emitted += fragment
        if i % 64 == 0:
            assert_dag_invariants(st)
    assert emitted + finish(st) == doc.output


def test_a_generated_flat_document_keeps_the_invariants():
    # labels past SEGMENT_FLOOR letters, shared by fig3_full's fork, through
    # a whole document of the flat workload
    _assert_generated_document(next(load_gen().flat_rounds(1))[0])


def _deep_and_telemetry_documents():
    """The first seed-1 document of the deep workload, fig2_t1 with mixed
    returns at height 920-959, whose lattice holds a segment on most
    edges, and the first fig4_left document of the telemetry workload."""
    gen = load_gen()
    telemetry = next(gen.telemetry_rounds(1))
    return [next(gen.deep_rounds(1))[0],
            next(doc for doc in telemetry if doc.family == "fig4_left")]


@pytest.mark.parametrize("doc", _deep_and_telemetry_documents(),
                         ids=lambda doc: doc.family)
def test_a_generated_deep_document_keeps_the_invariants(doc):
    _assert_generated_document(doc)


@pytest.mark.parametrize("floor", [1, SEGMENT_FLOOR])
def test_every_fig2_t1_return_pattern_decodes_to_the_run_set(fig2_t1, monkeypatch, floor):
    # naive run enumeration holds 2^k runs after c^k, so it is the oracle
    # only at small heights; a floor of one letter puts a segment on every
    # label a fold or a hoist can share
    monkeypatch.setattr(streaming_eval, "SEGMENT_FLOOR", floor)
    for n in range(1, 7):
        for pattern in itertools.product(("r1", "r2"), repeat=n):
            word = ("c",) * n + pattern
            st = start(fig2_t1)
            emitted: tuple[str, ...] = ()
            for i, sym in enumerate(word, 1):
                emitted += step(st, sym)
                got = {(dc.state, dc.stack, emitted + dc.residual)
                       for dc in decode(st.dag)}
                assert got == set(run_dconfigs(fig2_t1, word[:i])), (word, i)
                assert_dag_invariants(st)
                if st.status is not Status.RUNNING:
                    break


def test_segments_everywhere_decode_like_the_run_set(monkeypatch):
    # with a floor of one letter every fold of a nonempty mid or copy, every
    # fork and every strip of a segment goes through segments: after every
    # symbol the emitted prefix plus each decoded residual is the run set
    monkeypatch.setattr(streaming_eval, "SEGMENT_FLOOR", 1)
    rng = random.Random(13)
    compared = 0
    for _ in range(120):
        m = random_nondet_vpt(rng)
        st = start(m)
        runs = initial_dconfigs(m)
        emitted: tuple[str, ...] = ()
        for sym in _call_heavy_run(m, rng, 24):
            try:
                emitted += step(st, sym)
            except EvalDiagnostic:
                break
            runs = update_dconfigs(runs, sym, m)
            if len(runs) > 256:
                break
            assert_dag_invariants(st)
            got = {(dc.state, dc.stack, emitted + dc.residual)
                   for dc in decode(st.dag)}
            assert got == set(runs), (m, sym)
            compared += 1
    assert compared > 1000  # the corpus is not degenerate


@pytest.mark.parametrize("name, word", [
    ("fig4", lambda n: ["c"] * n + ["r"] * n),
    ("fig3_plain", lambda n: ["c"] * n + ["r"] * n),
    ("fig3_full", lambda n: ["c", "c", "r", "r"] * (n // 4)),
    ("fig2_t1", lambda n: ["c"] * n + ["r1"] * n),
], ids=["fig4", "fig3_plain", "fig3_full", "fig2_t1"])
def test_letters_written_per_symbol_do_not_grow_with_the_input(name, word):
    # the shape of ROADMAP aim 1 as a count: the letters written into
    # labels per symbol stay under one constant, whatever the height and
    # whatever the output held
    m = machines.load(name)
    for n in (1_000, 4_000, 16_000):
        symbols = word(n)
        st = start(m)
        for sym in symbols:
            step(st, sym)
        assert finish(st) is not None
        assert st.dag.letters_written <= 8 * len(symbols), (n, st.dag.letters_written)
