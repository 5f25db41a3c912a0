import random

import pytest

from vptstream import (
    Configuration,
    NotFunctionalWitness,
    ParseError,
    ValidationError,
    co_accessible,
    enumerate_domain,
    fst_of,
    machines,
    metrics,
    naive_eval,
    naive_outputs,
    parse_vpt,
    reduce,
    reduce_with_map,
    serialize_vpt,
    step_runs,
    trim_fst,
)
from vptstream.vpt_core import live_prefixes, well_matched

from helpers import accessible_configs, random_nondet_vpt


# ---------------------------------------------------------------------------
# Text format

def test_parse_serialize_round_trip():
    for name in machines.names():
        m = machines.load(name)
        assert parse_vpt(serialize_vpt(m)) == m


def test_parse_error_carries_line_number():
    with pytest.raises(ParseError) as exc:
        parse_vpt("calls: c\njunk\n")
    assert exc.value.line == 2


def test_parse_rejects_bad_rule_shape():
    with pytest.raises(ParseError):
        parse_vpt("calls: c\ntrans s0 c -\n")


def test_validation_collects_all_errors():
    bad = """
calls: c
returns: r
states: s0 s1
initial: s0 sX
final: s1
stack: g
trans s0 c - push g s9
trans s0 r - pop h s1
"""
    with pytest.raises(ValidationError) as exc:
        parse_vpt(bad)
    text = "\n".join(exc.value.errors)
    assert "sX" in text and "s9" in text and "'h'" in text


def test_validation_rejects_overlapping_classes():
    with pytest.raises(ValidationError):
        parse_vpt("calls: c\nreturns: c\n")


def test_empty_header_is_an_error_but_absent_header_is_not():
    with pytest.raises(ValidationError):
        parse_vpt("calls:\n")
    m = parse_vpt("internals: a\nstates: s\ninitial: s\nfinal: s\n"
                  "trans s a - int s")
    assert not m.alphabet.calls and not m.stack_alphabet


# ---------------------------------------------------------------------------
# Run enumeration

def test_naive_eval_figure_truths(fig3_plain):
    assert naive_eval(fig3_plain, ["c", "r"]) == ("a", "c")
    assert naive_eval(fig3_plain, ["c", "c", "r", "r"]) == ("a", "a", "c", "c")
    assert naive_eval(fig3_plain, ["c", "c", "r", "rp"]) == ("b", "b", "c", "c")
    assert naive_eval(fig3_plain, ["c", "c"]) is None
    assert naive_eval(fig3_plain, []) is None


def test_naive_eval_raises_on_two_outputs():
    m = parse_vpt("""
internals: a
states: s0 s1
initial: s0
final: s1
trans s0 a x int s1
trans s0 a y int s1
""")
    assert naive_outputs(m, ["a"]) == {("x",), ("y",)}
    with pytest.raises(NotFunctionalWitness):
        naive_eval(m, ["a"])


def test_enumerate_domain_is_lexicographic(fig3_plain):
    dom = enumerate_domain(fig3_plain, 6)
    assert dom == [
        (("c", "c", "c", "r", "r", "r"), ("a", "a", "a", "c", "c", "c")),
        (("c", "c", "c", "r", "r", "rp"), ("b", "b", "b", "c", "c", "c")),
        (("c", "c", "r", "r"), ("a", "a", "c", "c")),
        (("c", "c", "r", "rp"), ("b", "b", "c", "c")),
        (("c", "r"), ("a", "c")),
    ]


def test_step_runs_branches(fig3_plain):
    (init,) = [q for q in fig3_plain.initial]
    ends = step_runs(fig3_plain, Configuration(init, ()), ["c", "c"])
    states = {cfg.state for cfg, _ in ends}
    assert states == {"p1", "q1"}
    outs = {out for _, out in ends}
    assert outs == {("a", "a"), ("b", "b")}


# ---------------------------------------------------------------------------
# Reachability summaries

def test_well_matched_summary(fig3_plain):
    wm = well_matched(fig3_plain).witnesses
    assert ("i", "i") in wm                      # empty word
    assert ("i", "p2") in wm                     # c r
    assert ("i", "q3") in wm                     # c c r rp
    assert ("p1", "p2") in wm
    assert ("p2", "q1") not in wm


def test_co_accessible_is_ordered_by_stack():
    m = parse_vpt("""
calls: c
returns: r
states: s0 s1 s2 s3 s4
initial: s0
final: s4
stack: g1 g2
trans s0 c - push g1 s1
trans s1 c - push g2 s2
trans s2 r - pop g2 s3
trans s3 r - pop g1 s4
""")
    # the g2 on top must be popped first, then g1
    assert co_accessible(m, Configuration("s2", ("g1", "g2")))
    assert not co_accessible(m, Configuration("s2", ("g2", "g1")))
    assert not co_accessible(m, Configuration("s2", ("g1", "g1")))
    assert co_accessible(m, Configuration("s4", ()))
    assert not co_accessible(m, Configuration("s2", ()))


def test_bundled_machines_reduced_status():
    # fig2_t1 ships reduced; the others can strand their second-family final
    # state with calls still pending (reachable but stuck), which reduce()
    # repairs.
    for name in machines.names():
        m = machines.load(name)
        stuck = [c for c in accessible_configs(m, 3)
                 if not co_accessible(m, c)]
        if name == "fig2_t1":
            assert not stuck
        else:
            assert stuck, name
        r = reduce(m)
        for cfg in accessible_configs(r, 3):
            assert co_accessible(r, cfg), (name, cfg)


# ---------------------------------------------------------------------------
# Reduction

def test_reduce_preserves_outputs(fig3_plain):
    r = reduce(fig3_plain)
    assert enumerate_domain(r, 7) == enumerate_domain(fig3_plain, 7)


def test_reduce_with_map_projects_to_original(fig3_plain):
    r, state_map, sym_map = reduce_with_map(fig3_plain)
    assert set(state_map) == set(r.states)
    assert set(state_map.values()) <= set(fig3_plain.states)
    assert set(sym_map) == set(r.stack_alphabet)
    assert set(sym_map.values()) <= set(fig3_plain.stack_alphabet)


def test_reduce_drops_dead_branches():
    m = parse_vpt("""
calls: c
returns: r
internals: a
states: s0 s1 dead
initial: s0
final: s1
stack: g
trans s0 a x int s1
trans s0 c - push g dead
""")
    r = reduce(m)
    # the call into `dead` can never be completed, so it disappears
    assert not r.call_rules
    assert naive_eval(r, ["a"]) == ("x",)


def test_reduce_differential_on_random_machines():
    rng = random.Random(7)
    for _ in range(25):
        m = random_nondet_vpt(rng)
        r = reduce(m)
        for prefix, dconfigs in live_prefixes(m, 6):
            want = frozenset(dc.residual for dc in dconfigs
                             if not dc.stack and dc.state in m.final)
            assert naive_outputs(r, prefix) == want, prefix
        if r.states:
            for cfg in accessible_configs(r, 3):
                assert co_accessible(r, cfg), cfg


# ---------------------------------------------------------------------------
# Height-bounded restriction to a transducer

def test_fst_of_preserves_bounded_language(fig3_plain):
    fst = trim_fst(fst_of(fig3_plain, 2))
    # runs of the restriction on c c r r reproduce the machine's output
    frontier = {(q, ()) for q in fst.initial}
    for sym in ["c", "c", "r", "r"]:
        frontier = {(r.dst, out + r.out)
                    for (q, out) in frontier
                    for r in fst.rules if r.src == q and r.symbol == sym}
    accepted = {out for q, out in frontier if q in fst.final}
    assert accepted == {("a", "a", "c", "c")}


def test_fst_of_height_zero_keeps_only_internal_behaviour():
    m = parse_vpt("""
calls: c
returns: r
internals: a
states: s0 s1
initial: s0
final: s1
stack: g
trans s0 a x int s1
trans s0 c - push g s0
trans s0 r - pop g s1
""")
    fst = trim_fst(fst_of(m, 0))
    assert {r.symbol for r in fst.rules} == {"a"}


def test_metrics(fig3_plain):
    m = metrics(fig3_plain)
    assert m.n == 7
    assert m.M == 1
    assert m.gamma == 1
