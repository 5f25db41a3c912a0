import dataclasses

import pytest

from vptstream import streamability
from vptstream import (
    Bounded,
    FstMachine,
    FstRule,
    NotFunctionalWitness,
    Outcome,
    SearchBounds,
    StateExplosion,
    Unbounded,
    check_bm,
    check_fst_twinning,
    check_htp,
    check_mtp,
    classify_streamability,
    domain_height_bounded,
    parse_vpt,
    reduce,
    verify_fst_twinning_witness,
    verify_vpt_twinning_witness,
)

FINITE = parse_vpt("""
calls: c
returns: r
internals: a
states: s0 s1 s2 s3
initial: s0
final: s3
stack: g
trans s0 c x push g s1
trans s1 a y int s2
trans s2 r z pop g s3
""")

# two branches that agree on the domain but pace their output differently
PACING = parse_vpt("""
calls: c
returns: r
internals: a
states: s0 p1 q1 sf
initial: s0
final: sf
stack: g
trans s0 c - push g p1
trans s0 c - push g q1
trans p1 a o int p1
trans q1 a oo int q1
trans p1 r - pop g sf
trans q1 r - pop g sf
""")


def fst(rules, initial, final):
    states = {r.src for r in rules} | {r.dst for r in rules}
    return FstMachine(alphabet=tuple(sorted({r.symbol for r in rules})),
                      states=frozenset(states),
                      initial=frozenset(initial), final=frozenset(final),
                      rules=frozenset(rules))


# ---------------------------------------------------------------------------
# Transducer twinning

def test_twinning_holds_on_deterministic_machine():
    m = fst([FstRule("q0", "s", ("x",), "q0"),
             FstRule("q0", "t", (), "q1"),
             FstRule("q1", "s", ("y",), "q1")], ["q0"], ["q1"])
    assert check_fst_twinning(m).outcome is Outcome.HOLDS


def test_twinning_violated_by_diverging_loop():
    # permanent fork: delays double every step, caught on its own path
    m = fst([FstRule("q0", "s", ("x",), "q0"),
             FstRule("q0", "s", ("y",), "q0")], ["q0"], ["q0"])
    v = check_fst_twinning(m)
    assert v.outcome is Outcome.VIOLATED
    assert v.witness.delay_before != v.witness.delay_after
    verify_fst_twinning_witness(m, v.witness)


def test_twinning_violated_by_pacing_loop():
    m = fst([FstRule("q0", "s", ("o",), "q0"),
             FstRule("q0", "s", ("o", "o"), "q1"),
             FstRule("q1", "s", ("o", "o"), "q1")], ["q0"], ["q0", "q1"])
    assert check_fst_twinning(m).outcome is Outcome.VIOLATED


def test_twinning_violated_only_from_second_entry():
    # (q, q) is entered first with delay ε, where the a-loop is silent, and
    # only then with delay (ε, b), where it diverges: a search that marked
    # state pairs instead of (pair, delay) nodes would miss the violation
    m = fst([FstRule("i", "s", ("b",), "q"),
             FstRule("i", "s", (), "q"),
             FstRule("q", "a", ("a",), "q")], ["i"], ["q"])
    v = check_fst_twinning(m)
    assert v.outcome is Outcome.VIOLATED
    assert (v.witness.u1, v.witness.u2) == (("s",), ("a",))
    verify_fst_twinning_witness(m, v.witness)


def test_twinning_tolerates_equal_output_fork():
    m = fst([FstRule("q0", "s", ("x",), "q1"),
             FstRule("q0", "s", ("x",), "q2"),
             FstRule("q1", "s", ("y",), "q0"),
             FstRule("q2", "s", ("y",), "q0")], ["q0"], ["q0"])
    assert check_fst_twinning(m).outcome is Outcome.HOLDS


def test_twinning_node_budget():
    m = fst([FstRule("q0", "s", ("x",), "q1"),
             FstRule("q1", "s", (), "q0")], ["q0"], ["q0"])
    with pytest.raises(StateExplosion):
        check_fst_twinning(m, node_budget=1)


def test_twinning_witness_verifier_rejects_tampering():
    m = fst([FstRule("q0", "s", ("x",), "q0"),
             FstRule("q0", "s", ("y",), "q0")], ["q0"], ["q0"])
    w = check_fst_twinning(m).witness
    with pytest.raises(AssertionError):
        verify_fst_twinning_witness(m, dataclasses.replace(w, w2=("x", "x", "x")))
    with pytest.raises(AssertionError):
        verify_fst_twinning_witness(m, dataclasses.replace(
            w, delay_after=w.delay_before))


# ---------------------------------------------------------------------------
# Domain height

def test_domain_height_bounded_on_finite_machine():
    shape = domain_height_bounded(reduce(FINITE))
    assert isinstance(shape, Bounded)
    assert shape.h_max == 1


def test_domain_height_unbounded_on_counting_machine(fig3_plain):
    shape = domain_height_bounded(reduce(fig3_plain))
    assert isinstance(shape, Unbounded)
    assert shape.cycle


# ---------------------------------------------------------------------------
# Bounded-memory check

def test_bm_holds_on_finite_machine():
    v = check_bm(FINITE)
    assert v.outcome is Outcome.HOLDS
    assert "bounded by 1" in v.diagnostics


def test_bm_violated_by_unbounded_height(fig3_plain):
    v = check_bm(fig3_plain)
    assert v.outcome is Outcome.VIOLATED
    assert isinstance(v.witness, Unbounded)
    # the witness speaks the caller's language, not the reduced machine's
    assert v.witness.state in fig3_plain.states


def test_bm_violated_by_twinning_at_bounded_height():
    v = check_bm(PACING)
    assert v.outcome is Outcome.VIOLATED
    assert "restriction" in v.diagnostics


def test_bm_unknown_when_restriction_explodes():
    v = check_bm(FINITE, config_budget=1)
    assert v.outcome is Outcome.UNKNOWN


# ---------------------------------------------------------------------------
# Horizontal and matched twinning searches

def test_htp_violated_on_fig3_full(fig3_full):
    v = check_htp(fig3_full)
    assert v.outcome is Outcome.VIOLATED
    w = v.witness
    assert len(w.u1) <= 3 and 1 <= len(w.u2) <= 2
    assert w.u3 == () and w.u4 == ()
    verify_vpt_twinning_witness(fig3_full, w)


def test_htp_search_is_bound_monotone(fig3_full):
    small = check_htp(fig3_full, SearchBounds(max_len=2))
    assert small.outcome is Outcome.NO_WITNESS_UP_TO
    assert small.bounds.max_len == 2
    assert check_htp(fig3_full, SearchBounds(max_len=6)).outcome is Outcome.VIOLATED


def test_htp_no_witness_on_fig4(fig4):
    v = check_htp(fig4)
    assert v.outcome is Outcome.NO_WITNESS_UP_TO
    assert v.diagnostics  # explains why nothing of any size can exist


def test_mtp_violated_on_fig3_plain_with_minimal_witness(fig3_plain):
    v = check_mtp(fig3_plain)
    assert v.outcome is Outcome.VIOLATED
    w = v.witness
    assert len(w.u1 + w.u2 + w.u3 + w.u4) == 5
    assert w.u2 and w.u4
    assert w.delay_before != w.delay_after
    verify_vpt_twinning_witness(fig3_plain, w)


def test_mtp_violated_on_fig2_t1(fig2_t1):
    # the deciding letter arrives with the last return, so residuals keep
    # growing while the height shrinks back: a matched loop changes the delay
    v = check_mtp(fig2_t1)
    assert v.outcome is Outcome.VIOLATED
    verify_vpt_twinning_witness(fig2_t1, v.witness)


def test_mtp_no_witness_on_fig4(fig4):
    v = check_mtp(fig4)
    assert v.outcome is Outcome.NO_WITNESS_UP_TO
    assert v.bounds is not None


@pytest.mark.parametrize("search, machine, budget", [(check_htp, "fig3_full", 100),
                                                     (check_mtp, "fig4", 400)])
def test_search_reports_node_budget(search, machine, budget, request, monkeypatch):
    monkeypatch.setattr(streamability, "_NODE_BUDGET", budget)
    v = search(request.getfixturevalue(machine))
    assert v.outcome is Outcome.NO_WITNESS_UP_TO
    n = v.bounds.max_len
    assert 0 < n < 24
    # perfbench/measure.py counts budget hits by this exact text
    assert v.diagnostics == f"node budget exhausted; exhaustive only up to length {n}"


def test_vpt_witness_verifier_rejects_tampering(fig3_plain):
    w = check_mtp(fig3_plain).witness
    with pytest.raises(AssertionError):
        verify_vpt_twinning_witness(
            fig3_plain, dataclasses.replace(w, delay_after=w.delay_before))
    with pytest.raises(AssertionError):
        verify_vpt_twinning_witness(fig3_plain, dataclasses.replace(w, u1=()))


def test_search_verdicts_are_stable_under_renaming(fig3_plain):
    table = {q: f"z{i}" for i, q in enumerate(sorted(fig3_plain.states))}
    renamed = dataclasses.replace(
        fig3_plain,
        states=frozenset(table.values()),
        initial=frozenset(table[q] for q in fig3_plain.initial),
        final=frozenset(table[q] for q in fig3_plain.final),
        call_rules=frozenset(dataclasses.replace(r, src=table[r.src], dst=table[r.dst])
                             for r in fig3_plain.call_rules),
        return_rules=frozenset(dataclasses.replace(r, src=table[r.src], dst=table[r.dst])
                               for r in fig3_plain.return_rules),
        internal_rules=frozenset(dataclasses.replace(r, src=table[r.src], dst=table[r.dst])
                                 for r in fig3_plain.internal_rules))
    v = check_mtp(renamed)
    assert v.outcome is Outcome.VIOLATED
    assert len(v.witness.u1 + v.witness.u2 + v.witness.u3 + v.witness.u4) == 5


def test_search_bounds_validation():
    with pytest.raises(ValueError):
        SearchBounds(max_height=-1)
    with pytest.raises(ValueError):
        SearchBounds(max_len=-2)
    assert SearchBounds() == SearchBounds(max_height=6, max_len=24)


# ---------------------------------------------------------------------------
# Combined classification

def test_classification_ladder():
    finite = classify_streamability(FINITE)
    assert (finite.bm.outcome, finite.hbm.outcome, finite.obm.outcome) == \
        (Outcome.HOLDS, Outcome.NO_WITNESS_UP_TO, Outcome.NO_WITNESS_UP_TO)


def test_classification_fig2_t1(fig2_t1):
    r = classify_streamability(fig2_t1)
    assert r.bm.outcome is Outcome.VIOLATED
    assert r.hbm.outcome is Outcome.NO_WITNESS_UP_TO
    assert r.obm.outcome is Outcome.VIOLATED


def test_classification_fig3_full(fig3_full):
    r = classify_streamability(fig3_full)
    assert r.bm.outcome is Outcome.VIOLATED
    assert r.hbm.outcome is Outcome.VIOLATED
    assert r.obm.outcome is Outcome.VIOLATED
    w = r.obm.witness
    assert len(w.u2) + len(w.u4) >= 1
    assert w.delay_before != w.delay_after


def test_classification_fig4(fig4):
    r = classify_streamability(fig4)
    assert r.bm.outcome is Outcome.VIOLATED      # height is unbounded
    assert r.hbm.outcome is Outcome.NO_WITNESS_UP_TO
    assert r.obm.outcome is Outcome.NO_WITNESS_UP_TO


def test_classification_rejects_nonfunctional_machine():
    m = parse_vpt("""
internals: a
states: s0 s1
initial: s0
final: s1
trans s0 a x int s1
trans s0 a y int s1
""")
    with pytest.raises(NotFunctionalWitness):
        classify_streamability(m)
