import dataclasses
import random
from collections import deque

import pytest

from vptstream import (
    CallRule,
    Configuration,
    CounterExample,
    FunctionalUpTo,
    NotFunctionalWitness,
    ParseError,
    SearchBounds,
    StateExplosion,
    ValidationError,
    check_bm,
    check_functional_bounded,
    check_htp,
    check_mtp,
    co_accessible,
    enumerate_domain,
    fst_of,
    machines,
    naive_eval,
    naive_outputs,
    parse_vpt,
    reduce,
    reduce_with_map,
    serialize_vpt,
    step_runs,
    trim_fst,
)
from vptstream import streamability, vpt_core
from vptstream.vpt_core import ConfigGraph, FstMachine, well_matched

from helpers import (access_words, accessible_configs, functional_by_scan, live_prefixes,
                     load_gen, random_det_vpt, random_nondet_vpt, random_untrimmed_fst,
                     well_matched_by_rounds)


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


def _probe_corpus():
    """Seeded det and nondet machines, each also in a call-heavy variant with
    one more call rule from every state, so runs climb as fast as they read."""
    rng = random.Random(31)
    for k in range(40):
        m = (random_det_vpt if k % 2 else random_nondet_vpt)(rng)
        yield m
        extra = {CallRule(q, "c", rng.choice([(), ("x",)]),
                          rng.choice(sorted(m.stack_alphabet)),
                          rng.choice(sorted(m.states)))
                 for q in sorted(m.states)}
        yield dataclasses.replace(m, call_rules=m.call_rules | extra)


# Two pool machines (perfbench/gen.py check_pool, mutant785 and mutant71)
# in the shape of fig4: the first call forks an a-run and a b-run whose
# residuals diverge at once and stay apart while the calls go on.
MUTANT785 = """calls: c
returns: r rp
internals: a b
states: i p1 p2 p3 q1 q2 q3
initial: i
final: p2 p3 q3
stack: g
trans i c a push g p1
trans i c b push g q1
trans p1 c a push g p1
trans p1 r c pop g p2
trans p2 c a push g p1
trans p2 r c pop g p2
trans p2 r c pop g p3
trans q1 c b push g q1
trans q1 r c pop g q2
trans q1 rp a pop g i
trans q2 c b push g q1
trans q2 r c pop g q2
trans q2 rp c pop g q3
"""
MUTANT71 = """calls: c
returns: r rp
internals: a b
states: i p1 p2 p3 q1 q2 q3
initial: i
final: p2 p3 q3
stack: g
trans i c a push g p1
trans i c b push g q1
trans p1 c a push g p1
trans p1 r c pop g p2
trans p1 rp b pop g q2
trans p2 c a push g p1
trans p2 r c pop g p2
trans p2 r c pop g p3
trans q1 c b push g q1
trans q1 r c pop g q2
trans q2 c b push g q1
trans q2 r c pop g q2
trans q2 rp c pop g q3
"""

# Two runs that print the same letters until the last return, so every
# conflict's outputs share a nonempty prefix (x y^k): the probe must report
# them in full, not what is left after the common prefix.
SHARED_PREFIX_CONFLICT = """calls: c
returns: r
internals: a
states: s0 s1 s2 f
initial: s0
final: f
stack: g
trans s0 c x push g s1
trans s0 c x push g s2
trans s1 a y int s1
trans s2 a y int s2
trans s1 r u pop g f
trans s2 r v pop g f
"""


def test_functional_probe_matches_unpruned_scan():
    conflicts = 0
    # random141, mutant220 and mutant404 each hold two prefixes of equal
    # length and memo key, the larger pushed first: marking a key when its
    # prefix is pushed, not popped, reports a conflict that is not first
    pool = dict(load_gen().check_pool())
    extra = [parse_vpt(t) for t in (MUTANT785, MUTANT71, SHARED_PREFIX_CONFLICT)]
    extra += [parse_vpt(pool[name]) for name in ("random141", "mutant220", "mutant404")]
    for m in [*_probe_corpus(), *extra]:
        for n in range(11):
            got = check_functional_bounded(m, n)
            assert got == functional_by_scan(m, n), (m, n)
            conflicts += isinstance(got, CounterExample)
    assert conflicts  # the corpus exercises both outcomes


def test_functional_probe_agrees_with_enumerate_domain():
    for m in _probe_corpus():
        for n in range(9):
            got = check_functional_bounded(m, n)
            if isinstance(got, CounterExample):
                with pytest.raises(NotFunctionalWitness) as exc:
                    enumerate_domain(m, n)
                assert (exc.value.word, exc.value.out1, exc.value.out2) == (
                    got.word, got.out1, got.out2), (m, n)
            else:
                assert got == FunctionalUpTo(n)
                enumerate_domain(m, n)


def _counting_steps(monkeypatch) -> list:
    """Record (graph, id) for every ``ConfigGraph.steps`` call that computes
    a table: one that returns another object than ``succ`` held, None on
    the first call.  A call that returns the filled table is not counted."""
    seen = []
    steps = ConfigGraph.steps

    def counting(graph, i):
        held = graph.succ[i]
        table = steps(graph, i)
        if table is not held:
            seen.append((id(graph), i))
        return table

    monkeypatch.setattr(ConfigGraph, "steps", counting)
    return seen


@pytest.mark.parametrize("machine", ["fig2_t1", "fig3_full", "mutant785"])
def test_functional_probe_steps_each_configuration_once(machine, monkeypatch):
    # the probe, both twinning searches, the flattening and BM's pump
    # replay or flattening all walk the machine's one cached ConfigGraph,
    # which computes each configuration's successors at most once across
    # them all; a small flattening budget makes a flattening that ignores
    # its height bound fail rather than run on
    m = parse_vpt(MUTANT785) if machine == "mutant785" else machines.load(machine)
    shared = vpt_core.config_graph
    shared.cache_clear()
    seen = _counting_steps(monkeypatch)
    used: dict[str, set[int]] = {}
    walking = []

    def recording(vpt):
        graph = shared(vpt)
        used.setdefault(walking[-1], set()).add(id(graph))
        return graph

    monkeypatch.setattr(vpt_core, "config_graph", recording)
    monkeypatch.setattr(streamability, "config_graph", recording)
    monkeypatch.setattr(vpt_core, "_CONFIG_BUDGET", 1000)
    bounds = SearchBounds(max_height=3, max_len=24)
    walks = {"reduced fst_of": lambda: fst_of(reduce(m), 3),
             "fst_of": lambda: fst_of(m, 3),
             "probe": lambda: check_functional_bounded(m, 10),
             "mtp": lambda: check_mtp(m, bounds),
             "htp": lambda: check_htp(m, bounds),
             "bm": lambda: check_bm(m)}
    for name, walk in walks.items():
        walking.append(name)
        walk()
    assert seen
    assert len(set(seen)) == len(seen)
    graph = {id(shared(m))}
    assert used["reduced fst_of"] == {id(shared(reduce(m)))}
    assert (used["reduced fst_of"] == graph) == (reduce(m) == m)  # fig2_t1 is its own
    assert used["fst_of"] == used["probe"] == used["mtp"] == used["bm"] == graph
    assert used.get("htp", graph) == graph
    assert {g for g, _ in seen} == graph | used["reduced fst_of"]  # no graph of its own


# Pool machine random282: deterministic, two states, one stack symbol.
RANDOM282 = """calls: c d
returns: r
internals: i
states: q0 q1
initial: q0
final: q1
stack: g
trans q0 c ab push g q1
trans q0 d - push g q1
trans q0 r b pop g q0
trans q1 d ba push g q1
trans q1 i - int q1
trans q1 r bb pop g q1
"""


def test_functional_probe_steps_are_bounded_by_configurations(monkeypatch):
    # a run of height h after k of 10 symbols has h <= k and h <= 10 - k,
    # so only configurations of height <= 5 are ever stepped: at most 7
    # steps, one per configuration, where a walk that steps every live
    # prefix takes 22 876
    m = parse_vpt(RANDOM282)
    bound = len(accessible_configs(m, 5))
    vpt_core.config_graph.cache_clear()  # an earlier walk may have stepped them
    seen = _counting_steps(monkeypatch)
    assert check_functional_bounded(m, 10) == FunctionalUpTo(10)
    assert 0 < len(seen) <= bound


def test_enumerate_domain_matches_unpruned_walk():
    for m in _probe_corpus():
        try:
            got = enumerate_domain(m, 8)
        except NotFunctionalWitness:
            continue
        want = []
        for prefix, configs in live_prefixes(m, 8):
            outs = {dc.residual for dc in configs
                    if not dc.stack and dc.state in m.final}
            want += [(prefix, out) for out in outs]
        assert got == want, m


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_functional_probe_keeps_prefix_at_height_equal_to_symbols_left(k):
    # the only conflict is c^k r^k: after c^k the runs hold k symbols with k
    # symbols left, the one prefix height where pruning must not happen
    lines = [f"trans p{i} c - push g p{i + 1}" for i in range(k)]
    lines += [f"trans p{k} r x pop g a", f"trans p{k} r y pop g b",
              "trans a r x pop g a", "trans b r y pop g b",
              "trans p0 d - int p0"]
    m = parse_vpt("calls: c\nreturns: r\ninternals: d\n"
                  f"states: {' '.join(f'p{i}' for i in range(k + 1))} a b\n"
                  "initial: p0\nfinal: a b\nstack: g\n" + "\n".join(lines) + "\n")
    word = ("c",) * k + ("r",) * k
    want = CounterExample(word, ("x",) * k, ("y",) * k)
    assert check_functional_bounded(m, 2 * k) == want
    assert check_functional_bounded(m, 2 * k - 1) == FunctionalUpTo(2 * k - 1)
    assert check_functional_bounded(m, 2 * k + 3) == want
    for n in (2 * k - 1, 2 * k):
        assert check_functional_bounded(m, n) == functional_by_scan(m, n)


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
    # repairs.  The reduction has one state per live (state, finisher set)
    # node, and a return only from a node whose finisher set is that of
    # the popped symbol's set with the symbol pushed
    sizes = {"fig2_t1": (2, 5), "fig3_full": (9, 18), "fig3_plain": (8, 12), "fig4": (8, 12)}
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
        rules = len(r.call_rules) + len(r.return_rules) + len(r.internal_rules)
        assert (len(r.states), rules) == sizes[name]


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


def test_reduction_reaches_every_state():
    # the reduction's states are the nodes of the live walk, with no trim
    # after it, so each one must be reachable from an initial state
    rng = random.Random(11)
    corpus = [machines.load(name) for name in machines.names()]
    corpus += [(random_det_vpt if i % 2 == 0 else random_nondet_vpt)(rng)
               for i in range(400)]
    for m in corpus:
        r = reduce(m)
        assert set(access_words(r, well_matched_by_rounds(r))) == r.states, serialize_vpt(m)


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


@pytest.mark.parametrize("name", machines.names())
def test_fst_of_state_budget_counts_configurations(name, monkeypatch):
    # the budget admits exactly the reachable configurations: n of them
    # fit in a budget of n, and a budget of n-1 raises
    m = reduce(machines.load(name))
    checked = 0
    for k, flat in enumerate([fst_of(m, k) for k in range(4)]):
        n = len(flat.states)
        if n <= 1:
            continue
        monkeypatch.setattr(vpt_core, "_CONFIG_BUDGET", n)
        assert fst_of(m, k) == flat
        monkeypatch.setattr(vpt_core, "_CONFIG_BUDGET", n - 1)
        with pytest.raises(StateExplosion) as exc:
            fst_of(m, k)
        assert str(exc.value) == f"height-{k} flattening exceeded {n - 1} configurations"
        checked += 1
    assert checked


def _trim_by_search(m: FstMachine) -> FstMachine:
    """Oracle for ``trim_fst``, one state at a time: a state stays when a
    breadth-first search from some initial state meets it and one from it
    meets a final state."""
    succ: dict[str, set[str]] = {}
    for r in m.rules:
        succ.setdefault(r.src, set()).add(r.dst)

    def reached(q: str) -> set[str]:
        seen, queue = {q}, deque([q])
        while queue:
            for nxt in succ.get(queue.popleft(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    keep = frozenset(q for q in m.states
                     if any(q in reached(i) for i in m.initial)
                     and reached(q) & m.final)
    return FstMachine(alphabet=m.alphabet, states=keep, initial=m.initial & keep,
                      final=m.final & keep,
                      rules=frozenset(r for r in m.rules
                                      if r.src in keep and r.dst in keep))


def test_trim_fst_matches_per_state_search():
    rng = random.Random(5)
    corpus = [random_untrimmed_fst(rng) for _ in range(300)]
    corpus += [fst_of(random_nondet_vpt(rng), 2) for _ in range(100)]
    trimmed = 0
    for m in corpus:
        t = trim_fst(m)
        assert t == _trim_by_search(m), m
        trimmed += t != m
    assert trimmed >= 100, trimmed
