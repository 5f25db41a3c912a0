import pytest

from vptstream import (
    EvalDiagnostic,
    UnknownSymbol,
    decode,
    finish,
    lcp,
    machines,
    memory_snapshot,
    parse_vpt,
    reach,
    run_stream,
    start,
    step,
)
from vptstream.vpt_core import live_prefixes, run_dconfigs

from helpers import assert_dag_invariants


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
    assert [(n.state, n.symbol) for n in st.dag.level(1)] == \
        [("q0", "g1"), ("q0", "g2")]
    step(st, "c")
    assert [len(st.dag.level(d)) for d in range(st.dag.depth + 1)] == [1, 2, 2]
    step(st, "r1")
    # the pop resolves the top push; both first-call choices stay open
    assert st.dag.depth == 1
    assert [(n.state, n.symbol) for n in st.dag.level(1)] == \
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


def test_partial_emission_can_precede_a_reject(fig3_plain):
    # b^{n+1}c^{n+1} has flowed in full before the stream turns out to be bad
    st = start(fig3_plain)
    got = [step(st, s) for s in ["c", "c", "r", "rp"]]
    assert sum(got, ()) == ("b", "b", "c", "c")
    assert run_stream(st, ["c"]) is None   # no rule continues past q3


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
