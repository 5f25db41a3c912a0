"""Checker verdicts on a fixed sample of the benchmark's machine pool.

`perfbench/check_pool.json` records the (bm, htp, mtp) verdict letters, or
``NF`` for a machine that is not functional, of every pool machine at
``SearchBounds(3, 24)``.  The four builtins and a seeded sample of the rest
must reproduce them exactly: a verdict that weakens, strengthens or flips
is a change of behaviour that needs a reason.  The sample is drawn by the
seed alone, never by cost.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

from vptstream import NotFunctionalWitness, SearchBounds, classify_streamability, parse_vpt

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SAMPLE_SEED = 9
SAMPLE_SIZE = 60
BOUNDS = SearchBounds(max_height=3, max_len=24)


def _load_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _verdict_code(text: str) -> str:
    try:
        report = classify_streamability(parse_vpt(text), BOUNDS)
    except NotFunctionalWitness:
        return "NF"
    return "".join(v.outcome.value[0] for v in (report.bm, report.hbm, report.obm))


def test_pool_sample_reproduces_recorded_verdicts():
    gen = _load_gen()
    recorded = json.loads((PERFBENCH / "check_pool.json").read_text())
    assert recorded["bounds"] == {"max_height": BOUNDS.max_height,
                                  "max_len": BOUNDS.max_len}
    texts = dict(gen.check_pool())
    rows = recorded["machines"]
    builtins = [row for row in rows if row[0].startswith("builtin:")]
    rest = [row for row in rows if not row[0].startswith("builtin:")]
    sample = builtins + random.Random(SAMPLE_SEED).sample(rest, SAMPLE_SIZE)
    assert len(builtins) == 4
    changed = {}
    for label, digest, verdict, _cost_ms in sample:
        text = texts[label]
        assert gen.text_digest(text) == digest, f"{label}: the pool generator changed"
        got = _verdict_code(text)
        if got != verdict:
            changed[label] = f"recorded {verdict}, now {got}"
    assert not changed, changed
