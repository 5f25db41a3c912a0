"""Checker verdicts on a fixed sample of the benchmark's machine pool.

`perfbench/check_pool.json` records the (bm, htp, mtp) verdict letters, or
``NF`` for a machine that is not functional, of every pool machine at
``SearchBounds(3, 24)``.  The four builtins and a seeded sample of the rest
must reproduce them exactly: a verdict that weakens, strengthens or flips
is a change of behaviour that needs a reason.  The sample is drawn by the
seed alone, never by cost.  On the same machines, every twinning witness is
pumped through the evaluator, which must show the unbounded memory the
witness claims.  The same machines guard the two shortcuts of the twinning
searches: skipping joint runs whose delay can never move, and taking the
horizontal verdict from an exhausted matched search.  With seeded helper
machines, they also guard what the checkers rest on: the live configuration
graph, searching and flattening the caller's machine in place of its
reduction, the domain height of machines that are not reduced, and the
indexed well-matched fixpoint.
"""

import importlib.util
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from vptstream import (Bounded, Configuration, NotFunctionalWitness, Outcome, SearchBounds,
                       Unbounded, check_bm, check_fst_twinning, check_htp, check_mtp,
                       classify_streamability, co_accessible, domain_height_bounded, fst_of,
                       machines, parse_vpt, reduce, reduce_with_map, serialize_vpt,
                       step_runs, streamability, trim_fst, verify_fst_twinning_witness,
                       well_matched_witnesses)
from vptstream import vpt_core
from vptstream.streaming_eval import Status, memory_snapshot, start, step
from vptstream.vpt_core import ConfigGraph

from helpers import (SILENT_STEPS, domain_height_of_reduction, moves, random_vpts,
                     well_matched_by_rounds)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SAMPLE_SEED = 9
SAMPLE_SIZE = 60
BOUNDS = SearchBounds(max_height=3, max_len=24)
PUMPS = (0, 2, 4, 8)


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=None)
def _sample():
    """(gen module, [(label, digest, verdict, text)]): the builtins, then
    SAMPLE_SIZE other pool machines drawn by SAMPLE_SEED."""
    gen = _load_gen()
    recorded = json.loads((PERFBENCH / "check_pool.json").read_text())
    assert recorded["bounds"] == {"max_height": BOUNDS.max_height,
                                  "max_len": BOUNDS.max_len}
    texts = dict(gen.check_pool())
    rows = recorded["machines"]
    builtins = [row for row in rows if row[0].startswith("builtin:")]
    rest = [row for row in rows if not row[0].startswith("builtin:")]
    assert len(builtins) == 4
    sample = builtins + random.Random(SAMPLE_SEED).sample(rest, SAMPLE_SIZE)
    return gen, [(label, digest, verdict, texts[label])
                 for label, digest, verdict, _cost_ms in sample]


@lru_cache(maxsize=None)
def _report(text: str):
    """The classification of one machine text, or None if not functional."""
    try:
        return classify_streamability(parse_vpt(text), BOUNDS)
    except NotFunctionalWitness:
        return None


def _verdict_code(text: str) -> str:
    report = _report(text)
    if report is None:
        return "NF"
    return "".join(v.outcome.value[0] for v in (report.bm, report.hbm, report.obm))


def test_pool_sample_reproduces_recorded_verdicts():
    gen, sample = _sample()
    changed = {}
    for label, digest, verdict, text in sample:
        assert gen.text_digest(text) == digest, f"{label}: the pool generator changed"
        got = _verdict_code(text)
        if got != verdict:
            changed[label] = f"recorded {verdict}, now {got}"
    assert not changed, changed


def _pumped_memory(evaluator_vpt, w, k: int) -> tuple[int, int]:
    """(hc, out_neq) after streaming u1·u2^k·u3·u4^k, which stays alive."""
    state = start(evaluator_vpt)
    for symbol in w.u1 + w.u2 * k + w.u3 + w.u4 * k:
        step(state, symbol)
    assert state.status is Status.RUNNING
    report = memory_snapshot(state)
    return report.hc, report.out_neq


def test_twinning_witnesses_pump_the_evaluator_memory():
    # u2·u4 changes the delay between two runs that stay alive, so pumping
    # it returns to one height while the output held back keeps growing
    _, sample = _sample()
    pumped = 0
    disagree = {}
    for label, _digest, _verdict, text in sample:
        report = _report(text)
        if report is None:
            continue
        vpt = parse_vpt(text)
        reduced = reduce(vpt)
        for name, verdict in (("htp", report.hbm), ("mtp", report.obm)):
            if verdict.witness is None:
                continue
            memory = [_pumped_memory(reduced, verdict.witness, k) for k in PUMPS]
            pumped += 1
            heights = {hc for hc, _ in memory}
            held = [out_neq for _, out_neq in memory]
            if len(heights) != 1 or any(a >= b for a, b in zip(held, held[1:])):
                disagree[label, name] = memory
    assert pumped
    assert not disagree, disagree


def _reaches_as_far(pruned, unpruned) -> bool:
    """The pruned search's verdict is the unpruned one's, or, where the
    latter ran out of nodes, a replayed witness or a longer exhaustive run."""
    if unpruned.diagnostics.startswith("node budget"):
        return (pruned.outcome is Outcome.VIOLATED
                or pruned.bounds.max_len >= unpruned.bounds.max_len)
    return pruned == unpruned


@pytest.mark.parametrize("bounds", [BOUNDS, SearchBounds(max_height=2, max_len=5)])
def test_pruned_searches_match_the_unpruned_ones(bounds, monkeypatch):
    # with no pair counted as still, the search enqueues every node
    _, sample = _sample()
    machines = [(label, parse_vpt(text)) for label, _, _, text in sample]
    machines.append(("SILENT_STEPS", SILENT_STEPS))

    def verdicts():
        return {(label, search.__name__): search(vpt, bounds)
                for label, vpt in machines for search in (check_htp, check_mtp)}

    pruned = verdicts()
    monkeypatch.setattr(streamability, "_still_pairs", lambda *args: set())
    unpruned = verdicts()
    differ = {key: (pruned[key], unpruned[key]) for key in pruned
              if not _reaches_as_far(pruned[key], unpruned[key])}
    assert not differ, differ
    assert sum(v.outcome is Outcome.VIOLATED for v in pruned.values()) > 10


def _htp_verdicts():
    """(labels whose classification's HTP verdict differs from check_htp's,
    number of classifications whose matched search ran out of nodes)."""
    _, sample = _sample()
    differ, ran_out = [], 0
    for label, _digest, _verdict, text in sample:
        vpt = parse_vpt(text)
        try:
            report = classify_streamability(vpt, BOUNDS)
        except NotFunctionalWitness:
            continue
        ran_out += report.obm.bounds is not None and report.obm.bounds != BOUNDS
        if report.hbm != check_htp(vpt, BOUNDS):
            differ.append(label)
    return differ, ran_out


def test_classification_htp_verdict_is_check_htp():
    assert _htp_verdicts() == ([], 0)


def test_htp_is_searched_when_the_matched_search_runs_out(monkeypatch):
    # at 400 nodes many matched searches stop early: their NoWitnessUpTo
    # covers shorter words than the horizontal search may still reach
    monkeypatch.setattr(streamability, "_NODE_BUDGET", 400)
    differ, ran_out = _htp_verdicts()
    assert differ == []
    assert ran_out > 0


def _pool_machines() -> list:
    _, sample = _sample()
    return [parse_vpt(text) for _label, _digest, _verdict, text in sample]


def test_config_graph_keeps_exactly_the_live_successors():
    # every configuration met from each state's empty stack, dead ones
    # included, within height 3: its live flag is co_accessible, and its
    # steps are the moves within the cap that lead to a live configuration
    corpus = [machines.load(name) for name in machines.names()]
    corpus += _pool_machines() + random_vpts(7, 200)
    dead = 0
    for m in corpus:
        graph = ConfigGraph(m, 3)
        for q in sorted(m.states):
            graph.id(Configuration(q, ()))
        for i, cfg in enumerate(graph.configs):  # grows as steps meet more
            assert graph.live[i] == co_accessible(m, cfg), (serialize_vpt(m), cfg)
            dead += not graph.live[i]
            want = {}
            for symbol in sorted(m.alphabet.symbols):
                kept = [(graph.id(c), out) for c, out in moves(m, cfg, symbol)
                        if len(c.stack) <= 3 and co_accessible(m, c)]
                if kept:
                    want[symbol] = kept
            assert graph.steps(i) == want, (serialize_vpt(m), cfg)
    assert dead > 100, dead


class _ReductionGraph:
    """Oracle for the twinning searches' ``ConfigGraph``: the graph of the
    machine's reduction, every configuration read in the machine's names
    through ``state_map`` and ``sym_map``.  A search over it is a search of
    the reduction whose loop gates compare the machine's states, and its
    witness is in the machine's names."""

    def __init__(self, vpt, cap: int):
        reduced, self.state_map, self.sym_map = reduce_with_map(vpt)
        self.inner = ConfigGraph(reduced, cap)
        self.idx, self.height = self.inner.idx, self.inner.height
        self.live, self.succ = self.inner.live, self.inner.succ
        self.configs: list = []
        self.state: list = []

    def _read_new(self) -> None:
        for cfg in self.inner.configs[len(self.configs):]:
            self.configs.append(Configuration(self.state_map.get(cfg.state, cfg.state),
                                              tuple(self.sym_map[g] for g in cfg.stack)))
            self.state.append(self.configs[-1].state)

    def id(self, cfg) -> int:
        # called on the roots: an initial state q is named q in the
        # reduction, and one that cannot finish is no state of it
        i = self.inner.id(cfg)
        self._read_new()
        return i

    def steps(self, i: int) -> dict:
        table = self.inner.steps(i)
        self._read_new()
        return table


def _outline(verdict) -> tuple:
    w = verdict.witness
    return (verdict.outcome, verdict.bounds,
            None if w is None else len(w.u1 + w.u2 + w.u3 + w.u4))


@pytest.mark.parametrize("bounds", [SearchBounds(max_height=3, max_len=12),
                                    SearchBounds(max_height=2, max_len=5)])
def test_searches_of_the_machine_match_those_of_its_reduction(bounds, monkeypatch):
    # the live joint runs of the machine are the projections of its
    # reduction's, so both searches reach one verdict, a witness of one
    # length, except where the reduction's search runs out of nodes.  Each
    # node of the machine's search projects one of the reduction's in the
    # same layer, so the machine's search runs out no earlier; a smaller
    # budget keeps the reduction's slowest searches short
    monkeypatch.setattr(streamability, "_NODE_BUDGET", 20_000)
    corpus = _pool_machines() + random_vpts(8, 500)

    def verdicts():
        return [search(m, bounds) for m in corpus for search in (check_htp, check_mtp)]

    got = verdicts()
    monkeypatch.setattr(streamability, "ConfigGraph", _ReductionGraph)
    want = verdicts()
    differ = [(g, w) for g, w in zip(got, want) if _outline(g) != _outline(w)
              and not (w.diagnostics.startswith("node budget")
                       and _reaches_as_far(g, w))]
    assert not differ, differ
    assert sum(v.outcome is Outcome.VIOLATED for v in got) > 100
    assert sum(w.diagnostics.startswith("node budget") for w in want) > 0


def test_indexed_fixpoint_matches_the_rescanning_one():
    pool = _pool_machines()
    corpus = pool + [reduce(m) for m in pool] + random_vpts(9, 2000)
    for m in corpus:
        assert list(well_matched_witnesses(m).items()) == \
            list(well_matched_by_rounds(m).items()), serialize_vpt(m)


def test_domain_height_is_that_of_the_reduction():
    # the live (state, finishers) walk finds the domain height that the
    # ascent search on the reduction finds, and its pump, found on the
    # machine itself, replays there
    corpus = _pool_machines() + random_vpts(8, 1500) + random_vpts(11, 1500)
    pumps = 0
    for m in corpus:
        shape = domain_height_bounded(m)
        want = domain_height_of_reduction(m)
        assert type(shape) is type(want), serialize_vpt(m)
        if isinstance(shape, Bounded):
            assert shape.h_max == want.h_max, serialize_vpt(m)
        else:
            streamability._verify_pump(m, shape)
            pumps += 1
    assert pumps > 100, pumps


def test_matched_search_builds_no_reduction(monkeypatch):
    # the walk meets the states of the reachable live configurations, which
    # are the projections of the reduction's states, so HTP's loop states
    # are those the reduction keeps; and no stage of a classification
    # reduces the machine
    corpus = _pool_machines() + random_vpts(8, 1500)
    for m in corpus:
        reduced, state_map, _ = reduce_with_map(m)
        walked = {q for q, _ in streamability._live_walk(m)[0]}
        assert walked == set(state_map.values()), serialize_vpt(m)
        assert streamability._wn_loop_states(m) & walked == \
            {state_map[q] for q in streamability._wn_loop_states(reduced)}, serialize_vpt(m)

    def refuse(vpt):
        raise AssertionError("a checker reduced the machine")

    monkeypatch.setattr(vpt_core, "reduce_with_map", refuse)
    monkeypatch.setattr(streamability, "reduce_with_map", refuse)
    reports = []
    for m in _pool_machines():
        try:
            reports.append(classify_streamability(m, BOUNDS))
        except NotFunctionalWitness:
            continue
    assert sum(r.obm.outcome is Outcome.VIOLATED for r in reports) > 10
    assert sum(r.bm.outcome is Outcome.VIOLATED for r in reports) > 10


def test_bm_of_a_reduction_replays_its_pump():
    # the reduction of pool machine random488 splits its states by pop
    # obligation; BM finds its pump on it without reducing it again
    gen, _ = _sample()
    m = reduce(parse_vpt(dict(gen.check_pool())["random488"]))
    verdict = check_bm(m)
    assert verdict.outcome is Outcome.VIOLATED
    assert isinstance(verdict.witness, Unbounded)
    streamability._verify_pump(m, verdict.witness)


def _replay_on_machine(m, w) -> None:
    """An FST witness of BM, replayed on the machine itself: each run starts
    in an initial configuration, every rule is one step of the machine with
    its output, and the loop's configuration can still accept."""
    k = len(w.u1)
    for rules in (w.run1_rules, w.run2_rules):
        assert rules[0].src.state in m.initial and rules[0].src.stack == ()
        for r in rules:
            assert (r.dst, r.out) in step_runs(m, r.src, (r.symbol,)), r
        assert co_accessible(m, rules[k - 1].dst if k else rules[0].src)


def test_bm_flattens_the_callers_machine():
    # the flattenings of a machine and of its reduction, within the domain
    # height, are twinned alike, and BM's witness loops in the former and
    # replays on the machine's own configurations
    corpus = _pool_machines() + random_vpts(8, 1500) + random_vpts(11, 1500)
    outcomes = []
    for m in corpus:
        shape = domain_height_bounded(m)
        if not isinstance(shape, Bounded):
            continue
        flat = fst_of(m, shape.h_max)
        got = check_fst_twinning(flat)
        want = check_fst_twinning(fst_of(reduce(m), shape.h_max))
        assert got.outcome is want.outcome, serialize_vpt(m)
        verdict = check_bm(m)
        assert verdict.outcome is got.outcome, serialize_vpt(m)
        if verdict.outcome is Outcome.VIOLATED:
            verify_fst_twinning_witness(trim_fst(flat), verdict.witness)
            _replay_on_machine(m, verdict.witness)
        outcomes.append(verdict.outcome)
    assert outcomes.count(Outcome.VIOLATED) > 30, outcomes.count(Outcome.VIOLATED)
    assert outcomes.count(Outcome.HOLDS) > 30, outcomes.count(Outcome.HOLDS)
