"""The benchmark's own checks on its references, run before every run.

The closed-form outputs in `gen` are compared with the naive
run-enumeration semantics (`naive_eval`), and their emission-timing rules
with the longest common prefix of all runs' outputs after each prefix
(`reach`), at small sizes.  Neither involves the streaming evaluator.
"""

from __future__ import annotations

import itertools
import os

from vptstream import machines, vpt_core

import gen


def small_documents():
    for n in range(1, 7):
        yield gen.fig4_left(n)
        yield gen.fig3_plain_left(n)
        if n >= 2:
            yield gen.fig4_right(n)
            yield gen.fig3_plain_right(n)
    for n in range(1, 6):
        for tail in itertools.product(("r1", "r2"), repeat=n - 1):
            yield gen.fig2_t1(("r1",) + tail)
    for count in range(1, 4):
        for blocks in itertools.product((1, 2, 3), repeat=count):
            if blocks[-1] >= 2:
                yield gen.fig3_full(blocks, "r")
                yield gen.fig3_full(blocks, "rp")


def emitted_after(vpt, prefix) -> int:
    """Length of the output every run over `prefix` agrees on."""
    return len(os.path.commonprefix(sorted(vpt_core.reach(vpt, prefix))))


def problems() -> list[str]:
    found = []
    for name in gen.BUILTINS:
        if vpt_core.parse_vpt(gen.machine_text(*gen.TEMPLATES[name])) \
                != machines.load(name):
            found.append(f"the pool's copy of {name} differs from the package's")
    vpts = {name: machines.load(name) for name in gen.BUILTINS}
    for doc in small_documents():
        vpt = vpts[doc.machine]
        if vpt_core.naive_eval(vpt, doc.symbols) != doc.output:
            found.append(f"{doc.family} {' '.join(doc.symbols)}: closed form "
                         "differs from naive_eval")
            continue
        settled = [emitted_after(vpt, doc.symbols[:i])
                   for i in range(1, len(doc.symbols) + 1)]
        if doc.timing == gen.EXACT:
            expected = list(itertools.accumulate(doc.profile))
        else:
            expected = [0] * (len(doc.symbols) - 1) + settled[-1:]
        if settled != expected:
            found.append(f"{doc.family} {' '.join(doc.symbols)}: emission rule "
                         f"differs from the runs' common prefix {settled}")
    for workload, rounds in gen.SCHEDULES.items():
        first = [next(rounds(5)) for _ in range(2)]
        if first[0] != first[1] or first[0] == next(rounds(6)):
            found.append(f"{workload}: documents are not a function of the seed")
    return found

