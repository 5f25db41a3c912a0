import dataclasses
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from vptstream import streamability, vpt_core
from vptstream.cli import main
from vptstream import (
    Bounded,
    Configuration,
    DelayPair,
    FstMachine,
    FstRule,
    FstTwinWitness,
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
    delta_extend,
    domain_height_bounded,
    fst_of,
    parse_vpt,
    reduce,
    serialize_vpt,
    verify_fst_twinning_witness,
    verify_vpt_twinning_witness,
)

from helpers import SILENT_STEPS, live_prefixes, random_det_vpt, random_nondet_vpt

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


def test_twinning_node_budget(monkeypatch):
    m = fst([FstRule("q0", "s", ("x",), "q1"),
             FstRule("q1", "s", (), "q0")], ["q0"], ["q0"])
    monkeypatch.setattr(streamability, "_CONFIG_BUDGET", 1)
    with pytest.raises(StateExplosion):
        check_fst_twinning(m)


def test_twinning_witness_verifier_rejects_tampering():
    m = fst([FstRule("q0", "s", ("x",), "q0"),
             FstRule("q0", "s", ("y",), "q0")], ["q0"], ["q0"])
    w = check_fst_twinning(m).witness
    with pytest.raises(AssertionError):
        verify_fst_twinning_witness(m, dataclasses.replace(w, w2=("x", "x", "x")))
    with pytest.raises(AssertionError):
        verify_fst_twinning_witness(m, dataclasses.replace(
            w, delay_after=w.delay_before))


def test_twinning_witness_verifier_rejects_an_empty_loop():
    m = fst([FstRule("q0", "s", ("x",), "q0")], ["q0"], ["q0"])
    empty = DelayPair((), ())
    for u1, rules in (((), ()), (("s",), (FstRule("q0", "s", ("x",), "q0"),))):
        w = FstTwinWitness(u1=u1, u2=(), run1_rules=rules, run2_rules=rules,
                           v1=(), v2=(), w1=(), w2=(),
                           delay_before=empty, delay_after=empty)
        with pytest.raises(AssertionError, match="the loop u2 is empty"):
            verify_fst_twinning_witness(m, w)


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


def test_domain_height_is_the_highest_stack_reached():
    # in a reduced machine every live prefix extends to an accepted word,
    # so the highest stack over the short prefixes is a domain height
    rng = random.Random(7)
    seen = set()
    for i in range(1500):
        r = reduce((random_det_vpt if i % 2 == 0 else random_nondet_vpt)(rng))
        shape = domain_height_bounded(r)
        if isinstance(shape, Bounded):
            reached = max((len(dc.stack) for _, configs in live_prefixes(r, 12)
                           for dc in configs), default=0)
            assert shape.h_max == reached, serialize_vpt(r)
            seen.add(reached)
    assert seen == {0, 1, 2, 3}


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


# Deterministic: `c a` reaches (p, g) and `d a` reaches (p|g, ε), and `a`
# outputs x in one and y in the other.  A flattening that named each
# configuration by joining its state and stack would merge the two and
# report two diverging runs that do not exist.
BAR_IN_NAME = parse_vpt("""
calls: c
returns: r
internals: a d e
states: i p p|g f
initial: i
final: f
stack: g
trans i c - push g p
trans p a x int p
trans p r - pop g f
trans i d - int p|g
trans p|g a y int p|g
trans p|g e - int f
""")


def test_bm_replays_its_twinning_witness_on_the_machine(monkeypatch):
    # two made-up loops on `a` at the initial configuration, with outputs x
    # and y, make the flattening untwinned; the witness replays on the
    # flattening but is no run of the machine, so check_bm raises
    real = streamability.fst_of

    def bogus(vpt, k):
        flat = real(vpt, k)
        s0 = Configuration("s0")
        loops = {FstRule(s0, "a", (out,), s0) for out in ("x", "y")}
        return dataclasses.replace(flat, rules=flat.rules | loops)

    monkeypatch.setattr(streamability, "fst_of", bogus)
    with pytest.raises(AssertionError, match="is not a step of the machine"):
        check_bm(FINITE)


def test_bm_keeps_configurations_with_similar_names_apart(tmp_path):
    v = check_bm(BAR_IN_NAME)
    assert v.outcome is Outcome.HOLDS
    assert v.diagnostics == "domain height bounded by 1"
    flat = fst_of(BAR_IN_NAME, 1)
    assert len(flat.states) == 4
    assert {Configuration("p", ("g",)), Configuration("p|g", ())} <= flat.states
    path = tmp_path / "bar.vpt"
    path.write_text(serialize_vpt(BAR_IN_NAME))
    res = CliRunner().invoke(main, ["check", str(path), "--property", "bm"])
    assert res.exit_code == 0
    assert res.output.splitlines()[0] == "bm: Holds"


def test_bm_unknown_when_restriction_explodes(monkeypatch):
    monkeypatch.setattr(vpt_core, "_CONFIG_BUDGET", 1)
    v = check_bm(FINITE)
    assert v.outcome is Outcome.UNKNOWN
    assert v.diagnostics == "height-1 flattening exceeded 1 configurations"


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


def test_mtp_search_keeps_to_its_height_bound(fig2_t1):
    # the shortest witness has u1 = u2 = c and u3 = c r1, which climbs to
    # height 3: a search that lets a stack grow one past max_height finds
    # it at max_height 2
    low = check_mtp(fig2_t1, SearchBounds(max_height=2, max_len=24))
    assert low.outcome is Outcome.NO_WITNESS_UP_TO
    assert low.bounds == SearchBounds(max_height=2, max_len=24)
    v = check_mtp(fig2_t1, SearchBounds(max_height=3, max_len=24))
    assert v.outcome is Outcome.VIOLATED
    w = v.witness
    assert (w.u1, w.u2, w.u3, w.u4) == (("c",), ("c",), ("c", "r1"), ("r1",))


def test_mtp_no_witness_on_fig4(fig4):
    v = check_mtp(fig4)
    assert v.outcome is Outcome.NO_WITNESS_UP_TO
    assert v.bounds is not None


def test_mtp_witness_through_silent_steps(monkeypatch):
    extended = []

    def recording(d, u2, v2):
        extended.append((u2, v2))
        return delta_extend(d, u2, v2)

    monkeypatch.setattr(streamability, "delta_extend", recording)
    v = check_mtp(SILENT_STEPS)
    assert v.outcome is Outcome.VIOLATED
    w = v.witness
    assert (w.u1, w.u2, w.u3, w.u4) == (("c",), ("a", "c"), ("a", "c", "a", "r"), ("r",))
    assert w.outs1 == (("x",), ("x",), ("x", "y"), ("y",))
    assert w.outs2 == (("z",), ("z",), ("z", "y"), ("y",))
    # dA (u1·u3) and dF (u1..u4) both had to skip the silent `a` steps
    assert w.delay_before == DelayPair(("x", "x", "y"), ("z", "z", "y"))
    assert w.delay_after == DelayPair(("x", "x", "x", "y", "y"),
                                      ("z", "z", "z", "y", "y"))
    verify_vpt_twinning_witness(SILENT_STEPS, w)
    # a step with no output on either run leaves both delays as they are
    assert extended and all(u2 or v2 for u2, v2 in extended)


def test_length_bound_is_exact(fig3_plain, fig3_full):
    # the shortest witnesses read 5 (fig3_plain, MTP) and 4 (fig3_full,
    # HTP) symbols: one symbol less of length bound finds nothing
    for search, machine, n in ((check_mtp, fig3_plain, 5), (check_htp, fig3_full, 4)):
        short = search(machine, SearchBounds(max_height=6, max_len=n - 1))
        assert short.outcome is Outcome.NO_WITNESS_UP_TO
        assert short.bounds.max_len == n - 1
        v = search(machine, SearchBounds(max_height=6, max_len=n))
        assert v.outcome is Outcome.VIOLATED
        w = v.witness
        assert len(w.u1 + w.u2 + w.u3 + w.u4) == n


# The first witness of each search at SearchBounds(3, 24), as
# (u1, u2, u3, u4, init1, init2, outs1, outs2); None where there is none.
FIRST_WITNESSES = {
    ("fig2_t1", "htp"): None,
    ("fig2_t1", "mtp"): (("c",), ("c",), ("c", "r1"), ("r1",), "q0", "q0",
                         (("a",), ("a",), ("a",), ()), (("b",), ("a",), ("a",), ())),
    ("fig3_plain", "htp"): None,
    ("fig3_plain", "mtp"): (("c",), ("c",), ("c", "r"), ("r",), "i", "i",
                            (("a",), ("a",), ("a", "c"), ("c",)),
                            (("b",), ("b",), ("b", "c"), ("c",))),
    ("fig3_full", "htp"): (("c", "r"), ("c", "r"), (), (), "i", "i",
                           (("a", "c"), ("a", "c"), (), ()),
                           (("b", "c"), ("b", "c"), (), ())),
    ("fig3_full", "mtp"): ((), (), ("c", "r"), ("c", "r"), "i", "i",
                           ((), (), ("a", "c"), ("a", "c")),
                           ((), (), ("b", "c"), ("b", "c"))),
}


@pytest.mark.parametrize("machine, prop", sorted(FIRST_WITNESSES))
def test_first_witness_is_pinned(machine, prop, request):
    search = {"htp": check_htp, "mtp": check_mtp}[prop]
    v = search(request.getfixturevalue(machine), SearchBounds(max_height=3, max_len=24))
    expected = FIRST_WITNESSES[machine, prop]
    if expected is None:
        assert v.outcome is Outcome.NO_WITNESS_UP_TO
        return
    assert v.outcome is Outcome.VIOLATED
    w = v.witness
    assert (w.u1, w.u2, w.u3, w.u4, w.init1, w.init2, w.outs1, w.outs2) == expected


@pytest.mark.parametrize("machine", ["fig2_t1", "fig3_full"])
def test_search_extends_each_delay_once(machine, request, monkeypatch):
    seen = []

    def counting(d, u2, v2):
        seen.append((d, tuple(u2), tuple(v2)))
        return delta_extend(d, u2, v2)

    monkeypatch.setattr(streamability, "delta_extend", counting)
    check_mtp(request.getfixturevalue(machine), SearchBounds(max_height=3, max_len=24))
    assert seen
    assert len(set(seen)) == len(seen)


# random5 of the benchmark pool: deterministic, so the two runs of every
# joint run are one run and always emit the same output.
SAME_OUTPUTS = parse_vpt("""
calls: c
returns: r s
internals: i
states: q0 q1 q2
initial: q0
final: q1 q2
stack: g
trans q0 c b push g q1
trans q0 i a int q2
trans q1 c b push g q2
trans q1 r a pop g q1
trans q1 s a pop g q2
trans q2 s aa pop g q0
""")


def test_search_skips_runs_whose_delay_never_moves(monkeypatch):
    seen = []

    def counting(d, u2, v2):
        seen.append((d, u2, v2))
        return delta_extend(d, u2, v2)

    monkeypatch.setattr(streamability, "delta_extend", counting)
    bounds = SearchBounds(max_height=3, max_len=24)
    v = check_mtp(SAME_OUTPUTS, bounds)
    assert v.outcome is Outcome.NO_WITNESS_UP_TO
    assert v.bounds == bounds and v.diagnostics == ""
    assert seen == []


# Both runs read `a` by one rule, then the call forks them apart, outputs x
# and y, one level up, and the return joins them again.
FORK_ON_CALL = parse_vpt("""
calls: c
returns: r
internals: a
states: s0 s1 s2 s3 s4
initial: s0
final: s4
stack: g
trans s0 a z int s1
trans s1 c x push g s2
trans s1 c y push g s3
trans s2 r w pop g s4
trans s3 r w pop g s4
""")


def test_still_pairs_are_those_that_cannot_reach_two_outputs():
    # (s0, s0) diverges only through (s1, s1): the backward closure; after
    # the fork only equal outputs are left
    assert streamability._still_pairs(FORK_ON_CALL) == {
        ("s2", "s2"), ("s2", "s3"), ("s3", "s2"), ("s3", "s3"), ("s4", "s4")}
    # heights are ignored, so (s0, s0) is not still, yet at height bound 0
    # the call is never taken and no witness is found
    assert check_mtp(FORK_ON_CALL, SearchBounds(max_height=0, max_len=24)) == \
        streamability.Verdict(Outcome.NO_WITNESS_UP_TO,
                              bounds=SearchBounds(max_height=0, max_len=24))


def test_no_witness_bounds_are_the_bounds_searched(fig4):
    # the early exit: fig4 has no state with a nonempty well-nested loop
    bounds = SearchBounds(max_height=3, max_len=24)
    v = check_htp(fig4, bounds)
    assert v.outcome is Outcome.NO_WITNESS_UP_TO
    assert v.diagnostics.startswith("no state has a nonempty well-nested loop")
    assert v.bounds == bounds
    # a search that runs to the length bound
    bounds = SearchBounds(max_height=2, max_len=9)
    v = check_mtp(fig4, bounds)
    assert v.outcome is Outcome.NO_WITNESS_UP_TO
    assert v.diagnostics == ""
    assert v.bounds == bounds


@pytest.mark.parametrize("search, machine, budget", [(check_htp, "fig3_full", 20),
                                                     (check_mtp, "fig4", 200)])
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


def test_replays_reject_symbols_outside_the_alphabet(fig3_plain, fig3_full):
    w = check_mtp(fig3_plain).witness
    with pytest.raises(AssertionError, match="outside the alphabet"):
        verify_vpt_twinning_witness(fig3_plain, dataclasses.replace(w, u1=("zz",) + w.u1))
    pump = check_bm(fig3_full).witness
    with pytest.raises(AssertionError, match="outside the alphabet"):
        streamability._verify_pump(fig3_full,
                                   dataclasses.replace(pump, cycle=("zz",) + pump.cycle))


# Run in a fresh interpreter under -O, where `assert` statements are compiled
# away: each replay is handed an altered witness and must still reject it.
REPLAYS_UNDER_O = """
import dataclasses, sys
from vptstream import (FstMachine, FstRule, check_bm, check_fst_twinning,
                       check_mtp, machines, verify_fst_twinning_witness,
                       verify_vpt_twinning_witness)
from vptstream.streamability import _verify_pump

def replay(check, *args):
    try:
        check(*args)
    except AssertionError as exc:
        print("rejected:", exc)
    else:
        print("accepted")

print("optimize", sys.flags.optimize)
plain = machines.load("fig3_plain")
w = check_mtp(plain).witness
replay(verify_vpt_twinning_witness, plain,
       dataclasses.replace(w, delay_after=w.delay_before))
replay(verify_vpt_twinning_witness, plain, dataclasses.replace(w, u1=("zz",) + w.u1))
full = machines.load("fig3_full")
pump = check_bm(full).witness
replay(_verify_pump, full, dataclasses.replace(pump, cycle=()))
replay(_verify_pump, full, dataclasses.replace(pump, prefix=("r",) + pump.prefix))
m = FstMachine(alphabet=("s",), states=frozenset({"q0"}),
               initial=frozenset({"q0"}), final=frozenset({"q0"}),
               rules=frozenset({FstRule("q0", "s", ("x",), "q0"),
                                FstRule("q0", "s", ("y",), "q0")}))
w = check_fst_twinning(m).witness
replay(verify_fst_twinning_witness, m, dataclasses.replace(w, w2=("z",)))
"""


def test_replays_reject_altered_witnesses_under_python_O():
    src = str(Path(streamability.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    res = subprocess.run([sys.executable, "-O", "-c", REPLAYS_UNDER_O],
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == [
        "optimize 1",
        "rejected: delay_after is not the delay over u1·u2·u3·u4",
        "rejected: witness reads a symbol outside the alphabet",
        "rejected: pump witness does not ascend",
        "rejected: pump witness replay died",
        "rejected: run output differs from the claimed output",
    ]


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
