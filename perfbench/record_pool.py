"""Write perfbench/check_pool.json: the `check` pool with each machine's
verdict and cost at the recording commit.

    python3 perfbench/record_pool.py

The verdicts are the baseline the `check` workload compares against: a
later verdict may be stronger (with a replayed witness or a certificate) but
not weaker, and must not flip.  The costs order the pool into the blocks
that `gen.check_rounds` draws from.  Candidates slower than
`measure.POOL_COST_CAP_MS` are left out and listed.  Run this only when the
benchmark itself is redefined; it refuses to record when a search hits its
node budget or a witness does not replay.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

import run

FIELDS = ("label", "digest", "verdict", "cost_ms")


def main() -> int:
    run.import_package()
    import gen
    import measure
    from vptstream import cli

    rows = []
    excluded = []
    problems = []
    for label, text in gen.check_pool():
        vpt = cli.parse_vpt(text)
        began = perf_counter_ns()
        result = measure.check_machine(vpt)
        cost_ms = (perf_counter_ns() - began) / 1e6
        code = measure.verdict_code(result)
        problem = measure.verify_check(vpt, result, code)
        if code == "ERR" or problem or measure.budget_hit(result):
            problems.append(f"{label}: {code} {problem or 'node budget hit'}")
        if cost_ms > measure.POOL_COST_CAP_MS and not label.startswith("builtin:"):
            excluded.append([label, code, round(cost_ms, 1)])
        else:
            rows.append([label, gen.text_digest(text), code, round(cost_ms, 3)])
    for problem in problems:
        print(problem)
    if problems:
        return 1
    bounds = measure.CHECK_BOUNDS
    head = {"bounds": {"max_height": bounds.max_height, "max_len": bounds.max_len},
            "pool_seed": gen.POOL_SEED, "cost_cap_ms": measure.POOL_COST_CAP_MS,
            "excluded": excluded, "fields": FIELDS}
    lines = json.dumps(head)[:-1] + ', "machines": [\n'
    lines += ",\n".join(json.dumps(row) for row in rows) + "\n]}\n"
    (run.HERE / "check_pool.json").write_text(lines, encoding="utf-8")
    codes = [row[2] for row in rows]
    for code in sorted(set(codes)):
        print(code, codes.count(code))
    print(f"{len(rows)} machines, {sum(r[3] for r in rows) / 1000:.2f} s; "
          f"{len(excluded)} left out: {excluded}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
