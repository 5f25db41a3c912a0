"""Benchmark of `vptstream`: seeded workloads through the CLI's call paths.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table

Workloads (see perfbench/README.md for why each exists): `deep`, `flat` and
`telemetry` stream generated documents the way `vptstream eval` does
(`telemetry` as `eval --telemetry`); `check` classifies a corpus of small
machines the way `vptstream check --property all` does.  The load is a
closed loop in this one process: the next document or machine starts when
the previous one is done.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs an untimed
counting pass, an untraced run and a traced run, and prints the per-layer
metrics.  Every output is checked; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("deep", "flat", "check", "telemetry")
EVAL_MACHINES = {"deep": ("fig4", "fig3_plain", "fig2_t1"),
                 "flat": ("fig3_full",),
                 "telemetry": ("fig2_t1", "fig4")}
SETUP_REPEATS = 9

END_TO_END = (
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

# Self time in seconds over the traced run for each `_s` name; calls for
# `_calls`; the streaming_eval counts come from the counting pass.
PER_LAYER = (
    ("streaming_eval.factorize_and_emit_s", "s"),
    ("streaming_eval.sweep_levels", "count"),
    ("streaming_eval.dirty_nodes", "count"),
    ("streaming_eval.update_return_s", "s"),
    ("streaming_eval.peak_label_tokens", "count"),
    ("streaming_eval.update_call_s", "s"),
    ("streaming_eval.step_self_s", "s"),
    ("streaming_eval.finish_s", "s"),
    ("streaming_eval.factorize_calls", "count"),
    ("streaming_eval.emit_ratio", "ratio"),
    ("streaming_eval.peak_nodes", "count"),
    ("streaming_eval.peak_out_neq", "count"),
    ("streaming_eval.peak_height", "count"),
    ("streaming_eval.memory_snapshot_s", "s"),
    ("cli.telemetry_row_s", "s"),
    ("cli.tokenize_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.flush_calls", "count"),
    ("vpt_core.parse_vpt_s", "s"),
    ("vpt_core.check_functional_bounded_s", "s"),
    ("vpt_core.reduce_with_map_s", "s"),
    ("vpt_core.well_matched_witnesses_s", "s"),
    ("vpt_core.well_matched_witnesses_calls", "count"),
    ("vpt_core.co_accessible_s", "s"),
    ("vpt_core.co_accessible_calls", "count"),
    ("vpt_core.step_runs_s", "s"),
    ("vpt_core.fst_of_s", "s"),
    ("streamability.check_mtp_s", "s"),
    ("streamability.check_htp_s", "s"),
    ("streamability.check_bm_s", "s"),
    ("streamability.check_fst_twinning_s", "s"),
    ("streamability.domain_height_bounded_s", "s"),
    ("streamability.verify_vpt_twinning_witness_s", "s"),
    ("streamability.classify_streamability_s", "s"),
    ("streamability.verdicts_holds", "count"),
    ("streamability.verdicts_violated", "count"),
    ("streamability.verdicts_no_witness", "count"),
    ("streamability.verdicts_unknown", "count"),
    ("streamability.not_functional", "count"),
    ("streamability.budget_hits", "count"),
    ("streamability.decided_ratio", "ratio"),
    ("delay_algebra.delta_extend_s", "s"),
    ("delay_algebra.delta_extend_calls", "count"),
    ("delay_algebra.lcp_s", "s"),
    ("delay_algebra.lcp_calls", "count"),
    ("trace.throughput_untraced_per_s", "1/s"),
    ("trace.throughput_traced_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


def declared_problems() -> list[str]:
    """BENCHMARK.json must list exactly the metrics this script prints."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [f"BENCHMARK.json {key} differs from the metrics run.py prints"
            for key, printed in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER))
            if [(m["name"], m["unit"]) for m in declared[key]] != list(printed)]


def import_package() -> None:
    """Put the checkout's own `src` first on the path; refuse any other copy."""
    init = SRC / "vptstream" / "__init__.py"
    if not init.is_file():
        sys.exit(f"benchmark: no package source at {init}")
    sys.path.insert(0, str(SRC))
    import vptstream
    if Path(vptstream.__file__).resolve() != init.resolve():
        sys.exit(f"benchmark: imported vptstream from {vptstream.__file__}")


def measure_setup(builtins, texts) -> float:
    """Median calibrated set-up time over fresh interpreters (after one
    warm-up that compiles bytecode), so that import cost counts every time."""
    job = json.dumps({"src": str(SRC), "builtins": list(builtins), "texts": texts})
    times = []
    for attempt in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, str(HERE / "setup_child.py")],
                              input=job, capture_output=True, text=True,
                              timeout=120, check=True)
        if attempt:
            times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class RunResult:
    """What one invocation attempted, what failed, and the metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, float] = {}
        self.report: list[tuple[str, float, str]] = []  # the ROADMAP-named lines printed before the JSON

    def add(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(problems)
        self.problems += problems


def load_eval_machines(names, outcome: RunResult):
    """`cli._load` plus the pre-check `vptstream eval` runs first."""
    from vptstream import cli
    vpts = {}
    problems = []
    for name in names:
        vpts[name] = cli._load("builtin:" + name)
        probe = cli.check_functional_bounded(vpts[name], cli._FUNCTIONAL_PROBE_LEN)
        if isinstance(probe, cli.CounterExample):
            problems.append(f"{name}: failed the functional pre-check")
    outcome.add(len(names), problems)
    return vpts


def eval_targets():
    from vptstream import cli, machines, streaming_eval
    return [
        (cli, "step", "streaming_eval.step"),
        (cli, "finish", "streaming_eval.finish"),
        (cli, "memory_snapshot", "streaming_eval.memory_snapshot"),
        (streaming_eval, "update_call", "streaming_eval.update_call"),
        (streaming_eval, "update_return", "streaming_eval.update_return"),
        (streaming_eval, "update_internal", "streaming_eval.update_internal"),
        (streaming_eval, "factorize_and_emit", "streaming_eval.factorize_and_emit"),
        (streaming_eval, "lcp", "delay_algebra.lcp"),
        (cli._Emitter, "emit", "cli.emit"),
        (machines, "parse_vpt", "vpt_core.parse_vpt"),
        (cli, "check_functional_bounded", "vpt_core.check_functional_bounded"),
    ]


def check_targets():
    from vptstream import cli, streamability, vpt_core
    st = streamability
    return [
        (cli, "classify_streamability", "streamability.classify_streamability"),
        (cli, "parse_vpt", "vpt_core.parse_vpt"),
        (st, "check_functional_bounded", "vpt_core.check_functional_bounded"),
        (st, "check_bm", "streamability.check_bm"),
        (st, "check_htp", "streamability.check_htp"),
        (st, "check_mtp", "streamability.check_mtp"),
        (st, "check_fst_twinning", "streamability.check_fst_twinning"),
        (st, "domain_height_bounded", "streamability.domain_height_bounded"),
        (st, "verify_vpt_twinning_witness",
         "streamability.verify_vpt_twinning_witness"),
        (st, "reduce_with_map", "vpt_core.reduce_with_map"),
        (st, "well_matched_witnesses", "vpt_core.well_matched_witnesses"),
        (vpt_core, "well_matched_witnesses", "vpt_core.well_matched_witnesses"),
        (st, "co_accessible", "vpt_core.co_accessible"),
        (st, "step_runs", "vpt_core.step_runs"),
        (st, "fst_of", "vpt_core.fst_of"),
        (st, "delta_extend", "delay_algebra.delta_extend"),
    ]


def layer_metrics(tracer) -> dict[str, float]:
    """Self seconds for `_s` names and calls for `_calls` names."""
    values = {}
    for name, unit in PER_LAYER:
        span = name.rsplit("_", 1)[0]
        if name == "streaming_eval.step_self_s":
            span = "streaming_eval.step"
        if unit == "s":
            values[name] = tracer.self_s(span)
        elif name.endswith("_calls"):
            values[name] = tracer.count(span)
    return values


def run_eval(workload: str, seed: int, seconds: float, trace: bool,
             work_dir: Path, outcome: RunResult) -> None:
    import gen
    import measure
    from spans import Tracer

    telemetry = workload == "telemetry"
    rounds = gen.SCHEDULES[workload]
    vpts = load_eval_machines(EVAL_MACHINES[workload], outcome)
    if not trace:
        setup_s = measure_setup(EVAL_MACHINES[workload], [])
        run = measure.run_rounds(rounds(seed), vpts, work_dir, telemetry,
                                 seconds=seconds)
        outcome.add(run.attempted, run.problems)
        rate, p50, p99 = run.median(0), run.median(1), run.median(2)
        outcome.metrics.update(throughput_per_s=rate, latency_p50_ms=p50,
                               latency_tail_ms=p99, peak_rss_mb=peak_rss_mb(),
                               setup_s=setup_s)
        outcome.report += [
            ("eval_symbols_per_s", rate, "symbols/s"),
            ("eval_symbols_per_s_raw", run.median(3), "symbols/s"),
            ("step_p50_us", p50 * 1000, "us"),
            ("step_p99_us", p99 * 1000, "us"),
            ("step_samples", run.samples, "count"),
            ("rounds", len(run.rounds), "count"),
        ]
        return

    counted, counts = measure.counting_pass(rounds(seed), vpts, work_dir)
    outcome.add(counted.attempted, counted.problems)
    plain = measure.run_rounds(rounds(seed), vpts, work_dir, telemetry,
                               seconds=seconds)
    outcome.add(plain.attempted, plain.problems)
    tracer = Tracer()
    with tracer.installed(eval_targets()):
        traced_vpts = load_eval_machines(EVAL_MACHINES[workload], outcome)
        traced = measure.run_rounds(rounds(seed), traced_vpts, work_dir,
                                    telemetry, seconds=seconds, tracer=tracer)
    outcome.add(traced.attempted, traced.problems)
    values = layer_metrics(tracer)
    values.update({f"streaming_eval.{k}": v for k, v in counts.items()})
    values["cli.flush_calls"] = traced.flushes
    values["trace.throughput_untraced_per_s"] = plain.median(0)
    values["trace.throughput_traced_per_s"] = traced.median(0)
    values["trace.overhead_ratio"] = plain.median(0) / traced.median(0)
    values["trace.spans"] = tracer.spans_seen
    outcome.metrics.update(values)
    tracer.write(OUT / f"trace-{workload}-seed{seed}.tsv")


def load_pool():
    """The recorded pool: (texts, recorded entries), checked against the
    generated candidates."""
    import gen
    record = json.loads((HERE / "check_pool.json").read_text(encoding="utf-8"))
    candidates = dict(gen.check_pool())
    entries = [dict(zip(record["fields"], row)) for row in record["machines"]]
    if any(e["label"] not in candidates
           or gen.text_digest(candidates[e["label"]]) != e["digest"] for e in entries):
        sys.exit("benchmark: generated check pool differs from check_pool.json")
    return [candidates[e["label"]] for e in entries], entries


def run_check(seed: int, seconds: float, trace: bool, outcome: RunResult) -> None:
    import gen
    import measure
    from spans import Tracer
    from vptstream import cli

    texts, entries = load_pool()

    def rounds():
        return gen.check_rounds([e["cost_ms"] for e in entries], seed,
                                measure.CHECK_BLOCKS)

    class Verifier:
        """Checks each result against the record and tallies verdicts."""

        def __init__(self):
            self.problems: list[str] = []
            self.codes: list[str] = []
            self.budget_hits = 0

        def __call__(self, index, result):
            problem = measure.verify_check(vpts[index], result, entries[index]["verdict"])
            if problem:
                self.problems.append(f"{entries[index]['label']}: {problem}")
            self.codes.append(measure.verdict_code(result))
            self.budget_hits += measure.budget_hit(result)

    def rate(checked):
        return len(checked) / (sum(c.elapsed_ns for c in checked) / 1e9)

    if not trace:
        setup_s = measure_setup([], texts)
        vpts = [cli.parse_vpt(text) for text in texts]
        verify = Verifier()
        checked = measure.check_machines(vpts, rounds(), seconds, verify)
        outcome.add(len(checked), verify.problems)
        ms = [c.elapsed_ns / 1e6 for c in checked]
        p50 = measure.quantile(ms, 50, 100)
        p90 = measure.quantile(ms, 9, 10)
        outcome.metrics.update(throughput_per_s=rate(checked), latency_p50_ms=p50,
                               latency_tail_ms=p90, peak_rss_mb=peak_rss_mb(),
                               setup_s=setup_s)
        raw_rate = len(checked) / (sum(c.raw_ns for c in checked) / 1e9)
        outcome.report += [
            ("check_machines_per_s", rate(checked), "machines/s"),
            ("check_machines_per_s_raw", raw_rate, "machines/s"),
            ("verdict_p50_ms", p50, "ms"),
            ("verdict_p90_ms", p90, "ms"),
            ("verdict_samples", len(ms), "count"),
        ]
        return

    vpts = [cli.parse_vpt(text) for text in texts]
    verify = Verifier()
    plain = measure.check_machines(vpts, rounds(), seconds, verify)
    outcome.add(len(plain), verify.problems)
    tracer = Tracer()
    deferred = []
    with tracer.installed(check_targets()):
        vpts = [cli.parse_vpt(text) for text in texts]
        traced = measure.check_machines(vpts, rounds(), seconds,
                                        lambda *job: deferred.append(job), tracer)
    verify = Verifier()
    for job in deferred:  # replays call into the package: keep them untraced
        verify(*job)
    outcome.add(len(traced), verify.problems)
    values = layer_metrics(tracer)
    codes = verify.codes
    letters = "".join(c for c in codes if len(c) == 3)
    decided = letters.count("H") + letters.count("V")
    values.update({
        "streamability.verdicts_holds": letters.count("H"),
        "streamability.verdicts_violated": letters.count("V"),
        "streamability.verdicts_no_witness": letters.count("N"),
        "streamability.verdicts_unknown": letters.count("U"),
        "streamability.not_functional": codes.count("NF"),
        "streamability.budget_hits": verify.budget_hits,
        "streamability.decided_ratio": decided / len(letters) if letters else 0.0,
        "trace.throughput_untraced_per_s": rate(plain),
        "trace.throughput_traced_per_s": rate(traced),
        "trace.overhead_ratio": rate(plain) / rate(traced),
        "trace.spans": tracer.spans_seen,
    })
    outcome.metrics.update(values)
    tracer.write(OUT / f"trace-check-seed{seed}.tsv")


def run_one(args) -> int:
    import selftest

    outcome = RunResult()
    problems = declared_problems() + selftest.problems()
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "check":
            run_check(args.seed, args.seconds, bool(args.trace), outcome)
        else:
            run_eval(args.workload, args.seed, args.seconds, bool(args.trace),
                     work_dir, outcome)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    metrics = {name: {"value": outcome.metrics.get(name, 0), "unit": unit}
               for name, unit in units.items()}
    if args.trace:
        report = [(name, m["value"], m["unit"]) for name, m in metrics.items()]
    else:
        report = outcome.report + [
            ("peak_rss_mb", outcome.metrics["peak_rss_mb"], "MB"),
            ("setup_s", outcome.metrics["setup_s"], "s"),
            ("failed_ratio", outcome.failed / max(outcome.attempted, 1), "ratio"),
        ]
    for problem in problems + outcome.problems[:20]:
        print(f"{args.workload} FAILED {problem}")
    for name, value, unit in report:
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({"correct": outcome.failed == 0 and not problems,
                      "attempted": max(outcome.attempted, 1),
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    import_package()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
