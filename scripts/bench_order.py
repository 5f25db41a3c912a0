"""Compare the evaluator and the checkers of two checkouts, and time them.

    python3 scripts/bench_order.py equiv PARENT CHANGE --out BENCH_order.json \
        [--section equivalence]
    python3 scripts/bench_order.py pairs PARENT CHANGE --out BENCH_order.json \
        [--pairs 3] [--seconds 20] [--first-seed 21]
    python3 scripts/bench_order.py scaling PARENT CHANGE --out BENCH_order.json \
        [--rounds 5]
    python3 scripts/bench_order.py loc PARENT CHANGE --out BENCH_order.json

``equiv`` runs one child process per checkout (``dump``), each importing
the package from that checkout's ``src`` and the machine helpers from its
``tests``, and compares what they recorded:

- eval: the four builtins and the 804 ``gen.check_pool()`` machines, the
  first 400 prefixes of ``helpers.live_prefixes(m, 6)`` of each, with
  factorize on and off; after every step the fragment, ``memory_snapshot``
  and ``decode`` set, then the ``finish`` result and the reject position.
  An ``EvalDiagnostic`` is recorded as its step and text;
- schedules: one round of each eval schedule of ``perfbench/gen.py``, seed
  1, on the machine as given, as the workloads run it: SHA-1 over the
  fragment and the ``memory_snapshot`` (the telemetry row) after every
  step and the ``finish`` result, or the diagnostic text.  These documents
  hold thousands of pending letters, which the short prefixes above never
  reach;
- cli: the stdout, stderr and exit code of ``eval`` and ``bench`` on the
  builtins, and of ``check --property bm|htp|mtp|all`` on the builtins and
  on the machines of ``CLI_MACHINES``, which ``eval`` also reads;
- classify: SHA-1 over ``repr(classify_streamability(m, bounds))``, or the
  ``NotFunctionalWitness``, over the pool plus ``random_vpts(8, 1500)`` and
  ``random_vpts(11, 1500)``, at four bounds;
- reduce: the states and rules of ``reduce(m)`` over the builtins and the
  pool, and SHA-1 over ``enumerate_domain(reduce(m), 7)``.

``pairs`` runs ``perfbench/run.py`` on every workload, parent and change
alternating which goes first, pair i on seed ``--first-seed`` + i, and
records the last line of each run and a summary of each end-to-end metric
(``summarize_pairs``): the medians and quartiles, the pairs the change
wins, whether a gain would count, whether ``BENCHMARK.json``'s bound
holds and whether the parent's spread lets the runs resolve the bound.
``scaling`` times the library step loop, in µs per symbol, on each
builtin at n = 500 and 2 000, on fig2_t1's c^n r1^n up to n = 16 000 and
the first fig2_t1 document of ``gen.deep_rounds(1)``, and on fig3_full's
(c c r r)^m up to 32 000 symbols (``_scaling_cases``), one child process
per checkout and round, alternating which goes first, and keeps each
case's minimum over the rounds and the median over the rounds of the
change's time over the parent's.  Next to the times it records the
letters each tree writes into labels per symbol (``EvalDag.letters_written``;
None where a tree does not count them): an exact count, which reads a
change in shape where the timings of a loaded host cannot.
``loc`` counts the code lines of each checkout's ``src/vptstream``, per
module and in total: every ``.py`` but ``machines/__init__.py``, each line
that holds a token other than a comment or a docstring (``code_lines``).
All four merge their section into the JSON file at ``--out``; ``equiv``
writes ``--section``, so that one file can hold several comparisons.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import io
import json
import pickle
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

PREFIXES = 400
PREFIX_LEN = 6
CLASSIFY_BOUNDS = ((3, 24), (2, 5), (3, 9), (1, 14))
WORKLOADS = ("deep", "flat", "check", "telemetry")
SCALING_REPEATS = 3
CLI_MACHINES = {
    # on `c r` the two calls emit x and y and both runs accept
    "not_functional": ("calls: c\nreturns: r\nstates: i p f\ninitial: i\nfinal: f\n"
                       "stack: g\ntrans i c x push g p\ntrans i c y push g p\n"
                       "trans p r - pop g f\n"),
    # an initial state, but no word is accepted
    "empty_domain": ("calls: c\nreturns: r\nstates: i p\ninitial: i\nfinal: p\n"
                     "stack: g\ntrans i c x push g p\n"),
}


def _digest(value) -> str:
    return hashlib.sha1(repr(value).encode()).hexdigest()


# ---------------------------------------------------------------------------
# One checkout's record (runs in a child process)

def _corpus(tree: Path):
    sys.path[:0] = [str(tree / "src"), str(tree / "tests")]
    from vptstream import machines, parse_vpt
    import helpers
    builtins = [(f"builtin:{name}", machines.load(name)) for name in machines.names()]
    pool = [(label, parse_vpt(text)) for label, text in helpers.load_gen().check_pool()]
    return helpers, builtins, pool


def _eval_runs(helpers, corpus) -> dict:
    from vptstream.streaming_eval import (EvalDiagnostic, Status, decode, finish,
                                          memory_snapshot, start, step)
    runs = {}
    for label, m in corpus:
        prefixes = []
        for prefix, _ in helpers.live_prefixes(m, PREFIX_LEN):
            prefixes.append(prefix)
            if len(prefixes) == PREFIXES:
                break
        for factorize in (True, False):
            for prefix in prefixes:
                record = []
                try:
                    state = start(m, factorize=factorize)
                    for symbol in prefix:
                        fragment = step(state, symbol)
                        record.append((fragment, memory_snapshot(state),
                                       sorted(decode(state.dag))))
                        if state.status is not Status.RUNNING:
                            break
                    else:
                        record.append(("finish", finish(state)))
                    outcome = ("ok", state.reject_position, _digest(record))
                except EvalDiagnostic as exc:
                    outcome = ("diagnostic", len(record), str(exc))
                runs[label, factorize, prefix] = outcome
    return runs


def _schedule_runs(helpers) -> dict:
    from vptstream import machines
    from vptstream.streaming_eval import (EvalDiagnostic, Status, finish,
                                          memory_snapshot, start, step)
    gen = helpers.load_gen()
    runs = {}
    for workload, rounds in sorted(gen.SCHEDULES.items()):
        for i, doc in enumerate(next(rounds(1))):
            sha = hashlib.sha1()
            steps = 0
            try:
                state = start(machines.load(doc.machine))
                for symbol in doc.symbols:
                    sha.update(repr((step(state, symbol), memory_snapshot(state))).encode())
                    steps += 1
                    if state.status is not Status.RUNNING:
                        break
                else:
                    sha.update(repr(("finish", finish(state))).encode())
                outcome = ("ok", state.reject_position, sha.hexdigest())
            except EvalDiagnostic as exc:
                outcome = ("diagnostic", steps, str(exc))
            runs[workload, i, doc.family, len(doc.symbols)] = outcome
    return runs


def _cli_outputs(builtins, scratch: Path) -> dict:
    from click.testing import CliRunner
    from vptstream import enumerate_domain
    from vptstream.cli import main
    runner = CliRunner()
    out = {}
    extra = []
    for name, text in CLI_MACHINES.items():
        path = scratch / f"{name}.vpt"
        path.write_text(text)
        extra.append(str(path))
    for label in [label for label, _ in builtins] + extra:
        for prop in ("bm", "htp", "mtp", "all"):
            res = runner.invoke(main, ["check", label, "--property", prop])
            out["check", Path(label).stem, prop] = (res.exit_code, res.stdout, res.stderr)
    for path in extra:
        for word in ("", "c", "c r", "c c r r", "r"):
            res = runner.invoke(main, ["eval", path], input=word + "\n")
            out["eval", Path(path).stem, (), word] = (res.exit_code, res.stdout, res.stderr)
    for label, m in builtins:
        words = [" ".join(w) for w, _ in enumerate_domain(m, 6)]
        words += [w + " " + s for w in words[:5] for s in sorted(m.alphabet.symbols)]
        words += ["z", "c z r", ""]
        for word in words:
            for flags in ([], ["--no-factorize"], ["--unsafe"]):
                res = runner.invoke(main, ["eval", label, *flags], input=word + "\n")
                out["eval", label, tuple(flags), word] = (res.exit_code, res.stdout, res.stderr)
            res = runner.invoke(main, ["bench", label, "--family", "custom"], input=word + "\n")
            out["bench custom", label, word] = (res.exit_code, res.stdout, res.stderr)
        for family in ("cnrn", "ccnrnrp"):
            for n in (1, 3, 8):
                res = runner.invoke(main, ["bench", label, "--family", family, "--n-max", str(n)])
                out["bench", label, family, n] = (res.exit_code, res.stdout, res.stderr)
    return out


def _classify(helpers, pool) -> dict:
    from vptstream import NotFunctionalWitness, SearchBounds, classify_streamability
    corpus = [m for _, m in pool] + helpers.random_vpts(8, 1500) + helpers.random_vpts(11, 1500)
    shas = {}
    for h, n in CLASSIFY_BOUNDS:
        sha = hashlib.sha1()
        for m in corpus:
            try:
                sha.update(repr(classify_streamability(m, SearchBounds(h, n))).encode())
            except NotFunctionalWitness as exc:
                sha.update(repr((exc.word, exc.out1, exc.out2)).encode())
        shas[f"({h}, {n})"] = sha.hexdigest()
    return shas


def _reduce(corpus) -> dict:
    from vptstream import NotFunctionalWitness, enumerate_domain, reduce
    states = returns = rules = 0
    sha = hashlib.sha1()
    for _, m in corpus:
        r = reduce(m)
        states += len(r.states)
        returns += len(r.return_rules)
        rules += len(r.call_rules) + len(r.return_rules) + len(r.internal_rules)
        try:
            sha.update(repr(enumerate_domain(r, 7)).encode())
        except NotFunctionalWitness as exc:
            sha.update(repr((exc.word, exc.out1, exc.out2)).encode())
    return {"machines": len(corpus), "states": states, "rules": rules,
            "return_rules": returns, "enumerate_domain_7_sha1": sha.hexdigest()}


def dump(tree: Path, out: Path) -> None:
    helpers, builtins, pool = _corpus(tree)
    record = {}
    for name, work in (("eval", lambda: _eval_runs(helpers, builtins + pool)),
                       ("schedules", lambda: _schedule_runs(helpers)),
                       ("cli", lambda: _cli_outputs(builtins, out.parent)),
                       ("classify", lambda: _classify(helpers, pool)),
                       ("reduce", lambda: _reduce(builtins + pool))):
        t0 = time.perf_counter()
        record[name] = work()
        record[name + "_s"] = round(time.perf_counter() - t0, 1)
    out.write_bytes(pickle.dumps(record))


def _scaling_cases(gen):
    """(machine, family, n, word): each builtin at n = 500 and 2 000, fig2_t1
    ``c^n r1^n`` up to 16 000, whose held output is the whole height, the
    fig2_t1 document with mixed returns that ``gen.deep_rounds(1)`` draws
    first, and fig3_full's blocks of height 2, whose pending output grows
    by four letters a block, at 2 000 to 32 000 symbols."""
    for n in (500, 2000):
        yield "fig4", "c^n r^n", n, ["c"] * n + ["r"] * n
        yield "fig3_plain", "c^n r^n", n, ["c"] * n + ["r"] * n
        yield "fig3_full", "(c r)^n", n, ["c", "r"] * n
        yield "fig2_t1", "c^n r1^n", n, ["c"] * n + ["r1"] * n
    for n in (8000, 16000):
        yield "fig2_t1", "c^n r1^n", n, ["c"] * n + ["r1"] * n
    doc = next(gen.deep_rounds(1))[0]
    yield doc.machine, "deep_rounds(1) first", len(doc.symbols) // 2, list(doc.symbols)
    for n in (2000, 8000, 32000):
        yield "fig3_full", "(c c r r)^(n/4)", n, ["c", "c", "r", "r"] * (n // 4)


def scale(tree: Path, out: Path) -> None:
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import gen
    from vptstream import machines
    from vptstream.streaming_eval import finish, start, step
    us, letters = {}, {}
    for machine, family, n, word in _scaling_cases(gen):
        m = machines.load(machine)
        best = float("inf")
        for _ in range(SCALING_REPEATS):
            t0 = time.perf_counter()
            state = start(m)
            for symbol in word:
                step(state, symbol)
            assert finish(state) is not None
            best = min(best, time.perf_counter() - t0)
        case = f"{machine} {family} n={n}"
        us[case] = round(best / len(word) * 1e6, 2)
        # letters written into labels per symbol, where the tree counts them
        written = getattr(state.dag, "letters_written", None)
        letters[case] = None if written is None else round(written / len(word), 3)
    out.write_text(json.dumps({"us": us, "letters": letters}))


# ---------------------------------------------------------------------------
# Comparison

def _compare_eval(parent: dict, change: dict) -> dict:
    assert parent.keys() == change.keys()
    result = {"runs": len(parent), "runs_identical": 0, "ok_runs": 0, "ok_runs_differ": 0,
              "diagnostic_runs": 0, "diagnostic_step_differs": 0,
              "diagnostic_text_differs": 0, "outcome_kind_differs": 0}
    for key, a in parent.items():
        b = change[key]
        result["runs_identical"] += a == b
        if a[0] != b[0]:
            result["outcome_kind_differs"] += 1
        elif a[0] == "ok":
            result["ok_runs"] += 1
            result["ok_runs_differ"] += a != b
        else:
            result["diagnostic_runs"] += 1
            result["diagnostic_step_differs"] += a[1] != b[1]
            result["diagnostic_text_differs"] += a[2] != b[2]
    random604 = [(key, parent[key][2], change[key][2]) for key in parent
                 if key[0] == "random604" and parent[key][0] == "diagnostic"]
    result["random604_diagnostic_runs"] = len(random604)
    result["random604_text_unchanged"] = all(a == b for _, a, b in random604)
    if random604:
        result["random604_text"] = random604[0][2]
    return result


def equiv(parent_tree: Path, change_tree: Path) -> dict:
    records = {}
    with tempfile.TemporaryDirectory() as scratch:
        for side, tree in (("parent", parent_tree), ("change", change_tree)):
            out = Path(scratch) / f"{side}.pkl"
            subprocess.run([sys.executable, __file__, "dump", str(tree), str(out)], check=True)
            records[side] = pickle.loads(out.read_bytes())
    parent, change = records["parent"], records["change"]
    differ = [k for k in parent["cli"] if parent["cli"][k] != change["cli"].get(k)]
    by_command: dict[str, int] = {}
    for key in differ:
        name = f"{key[0]} {key[1]}"
        by_command[name] = by_command.get(name, 0) + 1
    schedules = parent["schedules"]
    assert schedules.keys() == change["schedules"].keys()
    return {
        "eval": _compare_eval(parent["eval"], change["eval"]),
        "schedules": {"documents": len(schedules),
                      "symbols": sum(key[3] for key in schedules),
                      "identical": sum(a == change["schedules"][key]
                                       for key, a in schedules.items()),
                      "differ": sorted(" ".join(map(str, key)) for key, a in schedules.items()
                                       if a != change["schedules"][key]),
                      "parent": {" ".join(map(str, key)): list(a)
                                 for key, a in schedules.items()}},
        "cli": {"invocations": len(parent["cli"]), "differ_by_command": by_command,
                # same exit code and stderr, and stdout only gained a line end
                "differ_by_a_line_end_only": sum(
                    (b[0], b[1], b[2]) == (a[0], a[1] + "\n", a[2])
                    for a, b in ((parent["cli"][k], change["cli"][k]) for k in differ)),
                "differ": sorted(repr(k) for k in differ)},
        "classify_sha1": {side: records[side]["classify"] for side in records},
        "classify_identical": parent["classify"] == change["classify"],
        "reduce": {side: records[side]["reduce"] for side in records},
        "seconds": {side: {k: v for k, v in records[side].items() if k.endswith("_s")}
                    for side in records},
    }


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize_pairs(runs: dict, metrics: list[dict]) -> dict:
    """For each workload and end-to-end metric of ``BENCHMARK.json``: each
    side's median and quartiles, the pairs the change wins, whether a gain
    would count (the change wins at least 9 in 10 pairs, and its median is
    better than the parent's by more than the parent's interquartile range)
    and whether the median stays within the metric's bound of the parent's.
    A metric is ``resolved`` unless the parent's runs spread wider than the
    bound (their interquartile range over their median, ``parent_spread``)
    and some parent run is as good as some change run: the medians of an
    unresolved metric cannot tell a move within the bound from the noise,
    so its ``bound_holds`` says little."""
    summary = {}
    for workload, pair_list in runs.items():
        rows = {"failed": {side: sum(p[side]["failed"] for p in pair_list)
                           for side in ("parent", "change")}}
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            if any(name not in p[side]["metrics"] for p in pair_list for side in p):
                continue
            values = {side: [p[side]["metrics"][name]["value"] for p in pair_list]
                      for side in ("parent", "change")}
            sign = 1 if higher else -1
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            q = {side: _quartiles(values[side]) for side in values}
            parent_median, change_median = q["parent"][1], q["change"][1]
            gain = sign * (change_median - parent_median)
            relative = (change_median - parent_median) / parent_median if parent_median else 0.0
            spread = (q["parent"][2] - q["parent"][0]) / abs(parent_median) if parent_median else 0.0
            worst_change = min(sign * c for c in values["change"])
            separated = worst_change > max(sign * p for p in values["parent"])
            rows[name] = {
                **{side: {"q1": q[side][0], "median": q[side][1], "q3": q[side][2]}
                   for side in q},
                "change_wins": f"{wins} of {len(pair_list)}",
                "gain_rule_holds": (wins * 10 >= 9 * len(pair_list)
                                    and gain > q["parent"][2] - q["parent"][0]),
                "relative_change": round(relative, 4),
                "bound": metric["bound"],
                "bound_holds": -sign * relative <= metric["bound"],
                "parent_spread": round(spread, 4),
                "resolved": spread <= metric["bound"] or separated,
            }
        summary[workload] = rows
    return summary


def pairs(parent_tree: Path, change_tree: Path, n: int, seconds: int,
          first_seed: int) -> dict:
    runs = {w: [] for w in WORKLOADS}
    for i in range(n):
        for workload in WORKLOADS:
            order = [("parent", parent_tree), ("change", change_tree)]
            if i % 2:
                order.reverse()
            pair = {}
            for side, tree in order:
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", str(first_seed + i), "--seconds", str(seconds),
                     "--trace", "0"],
                    cwd=tree, capture_output=True, text=True, check=True)
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                pair[side] = {"correct": last["correct"], "attempted": last["attempted"],
                              "failed": last["failed"], "metrics": last["metrics"]}
            runs[workload].append(pair)
    metrics = json.loads((change_tree / "BENCHMARK.json").read_text())["end_to_end"]
    summary = summarize_pairs(runs, metrics)
    for workload, rows in summary.items():
        for name, row in rows.items():
            if name != "failed":
                print(f"{workload:10} {name:17} {row['parent']['median']:12.4g}"
                      f" {row['change']['median']:12.4g} {row['change_wins']:>9}"
                      f" gain={row['gain_rule_holds']!s:5} bound={row['bound_holds']!s:5}"
                      f" resolved={row['resolved']}")
    return {"seconds": seconds, "pairs_per_workload": n,
            "seeds": list(range(first_seed, first_seed + n)),
            "summary": summary, "runs": runs}


def scaling(parent_tree: Path, change_tree: Path, rounds: int) -> dict:
    runs: dict[str, list] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as scratch:
        for i in range(rounds):
            order = [("parent", parent_tree), ("change", change_tree)]
            if i % 2:
                order.reverse()
            for side, tree in order:
                out = Path(scratch) / f"{side}.json"
                subprocess.run([sys.executable, __file__, "scale", str(tree), str(out)],
                               check=True)
                runs[side].append(json.loads(out.read_text()))
    # the letter counts are exact, the same in every round
    letters = {side: runs[side][0]["letters"] for side in runs}
    runs = {side: [r["us"] for r in runs[side]] for side in runs}
    best = {side: {case: min(r[case] for r in runs[side]) for case in runs[side][0]}
            for side in runs}
    # the two sides of one round ran back to back, so their ratio is less
    # exposed to the host's drift than the two minima
    ratio = {case: round(statistics.median(c[case] / p[case] for p, c
                                           in zip(runs["parent"], runs["change"])), 3)
             for case in best["parent"]}
    for case in best["parent"]:
        print(f"{case:40} {best['parent'][case]:8.2f} {best['change'][case]:8.2f}"
              f" {ratio[case]:7.3f}   letters/symbol {letters['parent'][case]}"
              f" {letters['change'][case]}")
    return {"unit": f"µs/symbol: library step loop, best of {SCALING_REPEATS} passes, "
                    "then the minimum over the rounds",
            "rounds": rounds, "min": best,
            "change_over_parent_median_of_rounds": ratio,
            "letters_per_symbol": letters, "runs": runs}


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The lines of a module that hold a token other than a comment or a
    docstring: the module's, a class's or a function's first statement when
    it is a string."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def loc_counts(tree: Path) -> dict:
    """Module -> code lines under ``tree``'s ``src/vptstream``, plus the total."""
    package = tree / "src" / "vptstream"
    counts = {}
    for path in sorted(package.rglob("*.py")):
        name = path.relative_to(package).as_posix()
        if name != "machines/__init__.py":  # the builtin machines' texts
            counts[name] = code_lines(path.read_text(encoding="utf-8"))
    counts["total"] = sum(counts.values())
    return counts


def loc(parent_tree: Path, change_tree: Path) -> dict:
    sides = {"parent": loc_counts(parent_tree), "change": loc_counts(change_tree)}
    names = sorted(set(sides["parent"]) | set(sides["change"]), key=lambda n: (n == "total", n))
    delta = {n: sides["change"].get(n, 0) - sides["parent"].get(n, 0) for n in names}
    for n in names:
        print(f"{n:20} {sides['parent'].get(n, 0):6} {sides['change'].get(n, 0):6}"
              f" {delta[n]:+6}")
    return {"how": "every .py under src/vptstream but machines/__init__.py; lines "
                   "holding a token other than a comment or a docstring",
            **sides, "delta": delta}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("dump", "scale"):
        d = sub.add_parser(name)
        d.add_argument("tree", type=Path)
        d.add_argument("out", type=Path)
    for name in ("equiv", "pairs", "scaling", "loc"):
        p = sub.add_parser(name)
        p.add_argument("parent", type=Path)
        p.add_argument("change", type=Path)
        p.add_argument("--out", type=Path, required=True)
        if name == "equiv":
            p.add_argument("--section", default="equivalence")
        if name == "pairs":
            p.add_argument("--pairs", type=int, default=3)
            p.add_argument("--seconds", type=int, default=20)
            p.add_argument("--first-seed", type=int, default=21)
        if name == "scaling":
            p.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()
    if args.command in ("dump", "scale"):
        (dump if args.command == "dump" else scale)(args.tree.resolve(), args.out)
        return
    parent, change = args.parent.resolve(), args.change.resolve()
    result = json.loads(args.out.read_text()) if args.out.exists() else {}
    if args.command == "equiv":
        result[args.section] = equiv(parent, change)
    elif args.command == "scaling":
        result["scaling"] = scaling(parent, change, args.rounds)
    elif args.command == "loc":
        result["loc"] = loc(parent, change)
    else:
        result["perfbench_pairs"] = pairs(parent, change, args.pairs, args.seconds,
                                          args.first_seed)
    args.out.write_text(json.dumps(result, indent=1, ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main()
