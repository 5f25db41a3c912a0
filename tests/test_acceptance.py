"""End-to-end acceptance gate.

One test per criterion; each prints an `ACCEPTANCE <nn> <label>: PASS|FAIL`
line (shown with -s, or in the captured output of a failure) and enforces its
time budget.  The random corpora live in helpers.py with fixed seeds.
"""

import random
import time
from contextlib import contextmanager

from vptstream import (
    Outcome,
    Unbounded,
    check_bm,
    check_fst_twinning,
    check_htp,
    check_mtp,
    co_accessible,
    delay_mismatch,
    delta,
    delta_extend,
    enumerate_domain,
    lcp,
    machines,
    memory_snapshot,
    reach,
    reduce,
    run_stream,
    start,
    step,
    verify_vpt_twinning_witness,
)
from vptstream.vpt_core import (
    initial_dconfigs,
    update_dconfigs,
)

from helpers import (
    accessible_configs,
    assert_dag_invariants,
    fst_twinning_violated,
    live_prefixes,
    random_det_vpt,
    random_fst,
    random_nondet_vpt,
)


@contextmanager
def criterion(num, label, budget=None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"time budget {budget}s exceeded ({elapsed:.1f}s)")
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        status = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {num:02d} {label}: {status} ({elapsed:.1f}s)")


def test_criterion_01_figure_exactness(fig3_plain):
    with criterion(1, "figure exactness", budget=1.0):
        for n in range(1, 65):
            got = run_stream(start(fig3_plain), ["c"] * n + ["r"] * n)
            assert got == ("a",) * n + ("c",) * n, n
            got = run_stream(start(fig3_plain),
                             ["c"] + ["c"] * n + ["r"] * n + ["rp"])
            assert got == ("b",) * (n + 1) + ("c",) * (n + 1), n


def test_criterion_02_streaming_equals_run_enumeration():
    with criterion(2, "streaming equals run enumeration", budget=60.0):
        # naive run enumeration on the machine as given, streaming on its
        # reduced form: the comparison crosses the reduction for free
        corpus = [machines.load(name) for name in machines.names()]
        rng = random.Random(20240811)
        corpus += [random_det_vpt(rng) for _ in range(200)]
        words = 0
        for m in corpus:
            r = reduce(m)
            if not r.states:
                continue
            for word, out in enumerate_domain(m, 12):
                assert run_stream(start(r), word) == out, word
                words += 1
        assert words > 10_000  # the corpus is not degenerate


def test_criterion_03_earliest_emission():
    with criterion(3, "earliest emission", budget=30.0):
        for name in machines.names():
            m = machines.load(name)
            for prefix, _ in live_prefixes(m, 10):
                st = start(m)
                emitted = sum((step(st, sym) for sym in prefix), ())
                assert emitted == lcp(reach(m, prefix)), (name, prefix)


def test_criterion_04_dag_structural_bounds():
    # the same helper also runs inside the scaling streams of 05 and 06
    with criterion(4, "dag structural bounds"):
        for name in machines.names():
            m = machines.load(name)
            for prefix, _ in live_prefixes(m, 8):
                st = start(m)
                for sym in prefix:
                    step(st, sym)
                    assert_dag_invariants(st)
        for name, word in [("fig4", ["c"] * 60 + ["r"] * 60),
                           ("fig3_plain", ["c"] * 60 + ["r"] * 60),
                           ("fig3_full", ["c", "r"] * 60)]:
            m = machines.load(name)
            st = start(m)
            for sym in word:
                step(st, sym)
                assert_dag_invariants(st)


def test_criterion_05_memory_collapse_at_returns(fig4):
    with criterion(5, "memory collapse at returns", budget=5.0):
        n = 500
        st = start(fig4)
        for k in range(1, n + 1):
            step(st, "c")
            snap = memory_snapshot(st)
            assert snap.out_neq == k, (k, snap.out_neq)
        assert_dag_invariants(st)
        for j in range(n):
            step(st, "r")
            snap = memory_snapshot(st)
            # one surviving branch: no divergent output mass left behind
            assert snap.label_tokens_total <= 2, (j, snap.label_tokens_total)
            assert snap.out_neq == 0, (j, snap.out_neq)
            assert_dag_invariants(st)
        assert snap.emitted_total == 2 * n


def test_criterion_06_unbounded_memory_at_bounded_height(fig3_full):
    with criterion(6, "unbounded memory at bounded height", budget=5.0):
        st = start(fig3_full)
        for k in range(1, 201):
            step(st, "c")
            assert memory_snapshot(st).hc <= 1
            step(st, "r")
            snap = memory_snapshot(st)
            assert snap.hc == 0
            assert snap.out_neq >= 2 * k - 2, (k, snap.out_neq)
            assert_dag_invariants(st)
        # the measured prefixes extend to accepted words
        assert run_stream(st, ["c", "c", "r", "r"]) is not None


def test_criterion_07_height_bound_conformance():
    with criterion(7, "height bound conformance"):
        for name in ("fig4", "fig2_t1"):
            m = machines.load(name)
            q = len(m.states)
            big_m = max((len(r.out) for r in
                         m.call_rules | m.return_rules | m.internal_rules),
                        default=0)
            for prefix, _ in live_prefixes(m, 12):
                st = start(m)
                for sym in prefix:
                    step(st, sym)
                snap = memory_snapshot(st)
                h = st.scan.h
                bound = 3 * (h + 1) ** 2 * q ** (2 * (h + 1)) * max(big_m, 1)
                assert snap.out_neq <= bound, (name, prefix, snap.out_neq)


def test_criterion_08_checker_verdicts(fig3_full, fig3_plain, fig4, fig2_t1):
    with criterion(8, "checker verdicts"):
        t0 = time.perf_counter()
        v = check_htp(fig3_full)
        assert time.perf_counter() - t0 < 10
        assert v.outcome is Outcome.VIOLATED
        assert len(v.witness.u1) <= 3 and len(v.witness.u2) <= 2
        verify_vpt_twinning_witness(fig3_full, v.witness)

        t0 = time.perf_counter()
        v = check_mtp(fig3_plain)
        assert time.perf_counter() - t0 < 10
        assert v.outcome is Outcome.VIOLATED
        w = v.witness
        assert len(w.u1 + w.u2 + w.u3 + w.u4) <= 5
        verify_vpt_twinning_witness(fig3_plain, w)

        t0 = time.perf_counter()
        v = check_bm(fig3_plain)
        assert time.perf_counter() - t0 < 10
        assert v.outcome is Outcome.VIOLATED
        assert isinstance(v.witness, Unbounded)

        for m in (fig4, fig2_t1):
            t0 = time.perf_counter()
            assert check_htp(m).outcome is Outcome.NO_WITNESS_UP_TO
            assert time.perf_counter() - t0 < 10

        t0 = time.perf_counter()
        assert check_mtp(fig4).outcome is Outcome.NO_WITNESS_UP_TO
        assert time.perf_counter() - t0 < 10

        t0 = time.perf_counter()
        v = check_mtp(fig2_t1)
        assert time.perf_counter() - t0 < 10
        assert v.outcome is Outcome.VIOLATED
        w = v.witness
        assert len(w.u1 + w.u2 + w.u3 + w.u4) <= 5
        verify_vpt_twinning_witness(fig2_t1, w)
        # independent of the checker: pumping the matched loops u2/u4 keeps
        # the current height fixed while the evaluator's residual grows
        heights, residuals = set(), []
        for k in (0, 4, 16):
            st = start(fig2_t1)
            for s in w.u1 + w.u2 * k + w.u3 + w.u4 * k:
                step(st, s)
            heights.add(st.scan.hc)
            residuals.append(memory_snapshot(st).out_neq)
        assert len(heights) == 1
        assert residuals[0] < residuals[1] < residuals[2], residuals


def test_criterion_09_fst_twinning_agreement():
    with criterion(9, "fst twinning agreement", budget=60.0):
        rng = random.Random(20240812)
        violated = 0
        for i in range(100):
            m = random_fst(rng)
            got = check_fst_twinning(m).outcome is Outcome.VIOLATED
            want = fst_twinning_violated(m, max_len=10)
            assert got == want, (i, got, want)
            violated += got
        assert 20 <= violated <= 80  # both verdicts genuinely exercised


def test_criterion_10_delay_algebra():
    with criterion(10, "delay algebra", budget=5.0):
        rng = random.Random(20240810)

        def word(n=None):
            if n is None:
                n = rng.randint(0, 6)
            return tuple(rng.choice("xy") for _ in range(n))

        for _ in range(10_000):
            u1, v1, u2, v2 = word(), word(), word(), word()
            assert delta_extend(delta(u1, v1), u2, v2) == delta(u1 + u2, v1 + v2)
        for _ in range(10_000):
            b, d = word(), word()
            k = rng.randint(0, 4)   # |A|-|B| = |C|-|D| = k, the premise
            a, c = b + word(k), d + word(k)
            assert delay_mismatch(a, b, c, d) == (delta(a, b) != delta(c, d))


def test_criterion_11_reduction():
    with criterion(11, "reduction"):
        rng = random.Random(20240813)
        for _ in range(100):
            m = random_nondet_vpt(rng)
            r = reduce(m)
            # runs[i] is r's run set on the current prefix's first i symbols;
            # live_prefixes walks depth-first, so each prefix extends the
            # run set of its parent instead of replaying from the start
            runs = [initial_dconfigs(r)]
            for prefix, dconfigs in live_prefixes(m, 8):
                n = len(prefix)
                if n:
                    runs[n:] = [update_dconfigs(runs[n - 1], prefix[-1], r)]
                want = frozenset(dc.residual for dc in dconfigs
                                 if not dc.stack and dc.state in m.final)
                got = frozenset(dc.residual for dc in runs[n]
                                if not dc.stack and dc.state in r.final)
                assert got == want, prefix
            if r.states:
                for cfg in accessible_configs(r, 4):
                    assert co_accessible(r, cfg), cfg
