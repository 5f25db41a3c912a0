"""Seeded inputs for the benchmark and their expected results.

Every eval document comes with its output in closed form and a rule for
when that output may appear, both derived by hand from the machine files,
never from the evaluator.  `selftest.py` cross-checks the closed forms
against the naive run-enumeration semantics at small sizes.

The check corpus is a fixed pool of small machines (the four builtins,
seeded mutants of them and seeded random machines).  The pool is fixed so
that each machine's verdict at the commit that defined the benchmark can be
recorded in `check_pool.json`; a run's seed chooses the order in which the
pool is visited.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Iterator, Optional

# Expected emission timing.  EXACT: the fragment length of every step is
# given.  HELD: every step before the last emits nothing, because the first
# output token depends on the last input symbol; the last step plus `finish`
# release the whole output.
EXACT = "exact"
HELD = "held"


@dataclass(frozen=True)
class Document:
    machine: str            # builtin machine name
    family: str             # short label used in reports
    symbols: tuple[str, ...]
    output: tuple[str, ...]
    timing: str             # EXACT or HELD
    profile: Optional[tuple[int, ...]] = None  # per-step lengths for EXACT

    @property
    def text(self) -> str:
        """The document as `vptstream eval` reads it: 32 tokens a line."""
        lines = (" ".join(self.symbols[i:i + 32])
                 for i in range(0, len(self.symbols), 32))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Closed-form families

def fig4_left(n: int) -> Document:
    """c^n r^n -> a^n c^n.  The first return settles the branch, so it
    releases a^n c; every later return releases its own c."""
    return Document("fig4", "fig4_left", ("c",) * n + ("r",) * n,
                    ("a",) * n + ("c",) * n, EXACT,
                    (0,) * n + (n + 1,) + (1,) * (n - 1))


def fig4_right(n: int) -> Document:
    """c^n rp r^(n-2) rp -> b^n c^n (n >= 2), released like fig4_left."""
    assert n >= 2
    return Document("fig4", "fig4_right",
                    ("c",) * n + ("rp",) + ("r",) * (n - 2) + ("rp",),
                    ("b",) * n + ("c",) * n, EXACT,
                    (0,) * n + (n + 1,) + (1,) * (n - 1))


def fig3_plain_left(n: int) -> Document:
    """c^n r^n -> a^n c^n; the a/b choice waits for the last return."""
    return Document("fig3_plain", "fig3_plain_left", ("c",) * n + ("r",) * n,
                    ("a",) * n + ("c",) * n, HELD)


def fig3_plain_right(n: int) -> Document:
    """c^n r^(n-1) rp -> b^n c^n (n >= 2)."""
    assert n >= 2
    return Document("fig3_plain", "fig3_plain_right",
                    ("c",) * n + ("r",) * (n - 1) + ("rp",),
                    ("b",) * n + ("c",) * n, HELD)


def fig2_t1(returns: tuple[str, ...]) -> Document:
    """c^n then n returns over {r1, r2}, the first one r1.  Call i is matched
    by return n+1-i and emits a if that return is r1, b if r2; returns emit
    nothing.  Call 1 is settled only by the last return."""
    assert returns and returns[0] == "r1"
    assert set(returns) <= {"r1", "r2"}
    n = len(returns)
    out = tuple("a" if returns[n - 1 - i] == "r1" else "b" for i in range(n))
    return Document("fig2_t1", "fig2_t1", ("c",) * n + returns, out, HELD)


def fig3_full(blocks: tuple[int, ...], closing: str) -> Document:
    """Blocks c^k r^k; the last block (k >= 2) ends on `closing`.  All-r
    documents take the left branch (c -> a, r -> c); a final rp takes the
    right one (c -> b, r and rp -> c)."""
    assert blocks and blocks[-1] >= 2 and closing in ("r", "rp")
    symbols: list[str] = []
    for k in blocks:
        symbols += ["c"] * k + ["r"] * k
    symbols[-1] = closing
    call_out = "a" if closing == "r" else "b"
    out = tuple(call_out if s == "c" else "c" for s in symbols)
    return Document("fig3_full", "fig3_full", tuple(symbols), out, HELD)


# ---------------------------------------------------------------------------
# Workload schedules
#
# A schedule is an endless series of rounds; every round of a workload has
# the same make-up (families and size bands) with fresh seeded draws inside
# the bands, so per-round figures are comparable and a run reports their
# median.  This keeps a run's figures steady on a shared machine whose speed
# drifts by ten percent over a few seconds.

def _fig2_returns(rng: random.Random, n: int) -> tuple[str, ...]:
    return ("r1",) + tuple(rng.choice(("r1", "r2")) for _ in range(n - 1))


def deep_rounds(seed: int) -> Iterator[list[Document]]:
    """One document per family, each height drawn from a band 40 wide; the
    bands put fig2_t1 (two branches per level, cheap) at 920-959 and the
    families whose steps sweep the whole stack lower, so that a round takes
    about three seconds."""
    rng = random.Random(seed * 7919 + 1)
    while True:
        yield [fig2_t1(_fig2_returns(rng, 920 + rng.randrange(40))),
               fig4_left(740 + rng.randrange(40)),
               fig3_plain_left(540 + rng.randrange(40)),
               fig4_right(340 + rng.randrange(40)),
               fig3_plain_right(240 + rng.randrange(40))]


def flat_rounds(seed: int) -> Iterator[list[Document]]:
    """Three long fig3_full documents of short blocks (k = 1-3, so height
    <= 3) of 6000-6399, 12000-12399 and 18000-18399 symbols; the seed draws
    the blocks, the exact lengths and each closing symbol."""
    rng = random.Random(seed * 7919 + 2)
    while True:
        docs = []
        for target in (6000, 12000, 18000):
            target += rng.randrange(400)
            blocks: list[int] = []
            length = 0
            while length < target:
                k = rng.choice((1, 2, 3))
                blocks.append(k)
                length += 2 * k
            blocks.append(rng.choice((2, 3)))
            docs.append(fig3_full(tuple(blocks), rng.choice(("r", "rp"))))
        yield docs


def telemetry_rounds(seed: int) -> Iterator[list[Document]]:
    """fig2_t1 at heights 180-219 and 330-369; fig4's left branch at
    330-369 and its right branch at 180-219."""
    rng = random.Random(seed * 7919 + 3)
    while True:
        yield [fig2_t1(_fig2_returns(rng, 180 + rng.randrange(40))),
               fig4_right(180 + rng.randrange(40)),
               fig2_t1(_fig2_returns(rng, 330 + rng.randrange(40))),
               fig4_left(330 + rng.randrange(40))]


SCHEDULES = {
    "deep": deep_rounds,
    "flat": flat_rounds,
    "telemetry": telemetry_rounds,
}


# ---------------------------------------------------------------------------
# Check corpus

BUILTINS = ("fig2_t1", "fig3_full", "fig3_plain", "fig4")

# Rule lists of the four builtins, kept here so that the pool does not move
# if a machine file of the package is edited.  Shape: (states, calls,
# returns, internals, initial, final, rules); a rule is (src, symbol, out,
# op, stack, dst) with op "push" or "pop".  `selftest.py` checks that they
# still equal the package's machines.
_FIG3_PLAIN_RULES = (
    ("i", "c", "a", "push", "g", "p1"), ("p1", "c", "a", "push", "g", "p1"),
    ("p1", "r", "c", "pop", "g", "p2"), ("p2", "r", "c", "pop", "g", "p2"),
    ("p2", "r", "c", "pop", "g", "p3"),
    ("i", "c", "b", "push", "g", "q1"), ("q1", "c", "b", "push", "g", "q1"),
    ("q1", "r", "c", "pop", "g", "q2"), ("q2", "r", "c", "pop", "g", "q2"),
    ("q2", "rp", "c", "pop", "g", "q3"),
)
_FIG3_STATES = ("i", "p1", "p2", "p3", "q1", "q2", "q3")
TEMPLATES = {
    "fig2_t1": (("q0", "q1"), ("c",), ("r1", "r2"), (), ("q0",), ("q1",), (
        ("q0", "c", "a", "push", "g1", "q0"), ("q0", "c", "b", "push", "g2", "q0"),
        ("q0", "r1", "-", "pop", "g1", "q1"), ("q1", "r1", "-", "pop", "g1", "q1"),
        ("q1", "r2", "-", "pop", "g2", "q1"))),
    "fig3_plain": (_FIG3_STATES, ("c",), ("r", "rp"), ("a", "b"), ("i",),
                   ("p2", "p3", "q3"), _FIG3_PLAIN_RULES),
    "fig3_full": (_FIG3_STATES, ("c",), ("r", "rp"), ("a", "b"), ("i",),
                  ("p2", "p3", "q3"), _FIG3_PLAIN_RULES + (
                      ("p2", "c", "a", "push", "g", "p1"),
                      ("q2", "c", "b", "push", "g", "q1"))),
    "fig4": (_FIG3_STATES, ("c",), ("r", "rp"), (), ("i",), ("p2", "p3", "q3"),
             _FIG3_PLAIN_RULES[:7] + (
                 ("q1", "rp", "c", "pop", "g", "q2"),
                 ("q2", "r", "c", "pop", "g", "q2"),
                 ("q2", "rp", "c", "pop", "g", "q3"))),
}


def machine_text(states, calls, returns, internals, initial, final, rules) -> str:
    lines = [f"calls: {' '.join(calls)}", f"returns: {' '.join(returns)}"]
    if internals:
        lines.append(f"internals: {' '.join(internals)}")
    stack = sorted({r[4] for r in rules if r[3] != "int"}) or ["g"]
    lines += [f"states: {' '.join(states)}", f"initial: {' '.join(initial)}",
              f"final: {' '.join(final)}", f"stack: {' '.join(stack)}", ""]
    for src, sym, out, op, gamma, dst in sorted(set(rules)):
        if op == "int":
            lines.append(f"trans {src} {sym} {out} int {dst}")
        else:
            lines.append(f"trans {src} {sym} {out} {op} {gamma} {dst}")
    return "\n".join(lines) + "\n"


def _out(rng: random.Random, letters: str) -> str:
    return "".join(rng.choice(letters) for _ in range(rng.choice((0, 1, 1, 2)))) or "-"


def mutant_machine(rng: random.Random) -> str:
    """A builtin with one or two edits: a changed output, an added rule or a
    dropped rule."""
    name = rng.choice(sorted(TEMPLATES))
    states, calls, returns, internals, initial, final, rules = TEMPLATES[name]
    stack = sorted({r[4] for r in rules})
    rules = [list(r) for r in rules]
    for _ in range(rng.choice((1, 1, 2))):
        op = rng.choice(("out", "out", "add", "drop"))
        if op == "out":
            rng.choice(rules)[2] = _out(rng, "abc")
        elif op == "drop" and len(rules) > 3:
            rules.pop(rng.randrange(len(rules)))
        elif rng.random() < 0.5:
            rules.append([rng.choice(states), rng.choice(calls), _out(rng, "abc"),
                          "push", rng.choice(stack), rng.choice(states)])
        else:
            rules.append([rng.choice(states), rng.choice(returns), _out(rng, "abc"),
                          "pop", rng.choice(stack), rng.choice(states)])
    return machine_text(states, calls, returns, internals, initial, final,
                        [tuple(r) for r in rules])


def random_machine(rng: random.Random) -> str:
    """2-4 states, 1-2 stack symbols, deterministic or not, with a built-in
    accepting run on `c r` so the domain is never empty."""
    nq = rng.choice((2, 3, 3, 4))
    states = tuple(f"q{i}" for i in range(nq))
    stack = ("g", "h")[:rng.choice((1, 2))]
    det = rng.random() < 0.5
    calls = ("c", "d")[:rng.choice((1, 2))]
    returns = ("r", "s")[:rng.choice((1, 2))]
    internals = ("i",) if rng.random() < 0.3 else ()
    final = {"q1"} | {q for q in states if rng.random() < 0.3}
    rules = {("q0", "c", _out(rng, "ab"), "push", "g", "q1"),
             ("q1", "r", _out(rng, "ab"), "pop", "g", "q1")}
    most = 1 if det else 2
    density = rng.choice((0.4, 0.6, 0.8))

    def count() -> int:
        return rng.randint(0, most) if rng.random() < density else 0

    for q in states:
        for a in calls:
            if det and (q, a) == ("q0", "c"):
                continue
            for _ in range(count()):
                rules.add((q, a, _out(rng, "ab"), "push", rng.choice(stack),
                           rng.choice(states)))
        for a in returns:
            for g in stack:
                if det and (q, a, g) == ("q1", "r", "g"):
                    continue
                for _ in range(count()):
                    rules.add((q, a, _out(rng, "ab"), "pop", g, rng.choice(states)))
        for a in internals:
            for _ in range(count()):
                rules.add((q, a, _out(rng, "ab"), "int", "", rng.choice(states)))
    initial = ("q0",) if det or rng.random() < 0.5 else ("q0", states[-1])
    return machine_text(states, calls, returns, internals, initial,
                        sorted(final), rules)


POOL_SEED = 1707
POOL_SIZE = 800


def check_pool() -> list[tuple[str, str]]:
    """(label, machine text) for every pool candidate: the four builtins,
    then POOL_SIZE seeded machines, half mutants and half random.  The
    workload uses the candidates listed in `check_pool.json`."""
    pool = [(f"builtin:{name}", machine_text(*TEMPLATES[name])) for name in BUILTINS]
    rng = random.Random(POOL_SEED)
    for k in range(POOL_SIZE):
        if rng.random() < 0.5:
            pool.append((f"mutant{k}", mutant_machine(rng)))
        else:
            pool.append((f"random{k}", random_machine(rng)))
    return pool


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def check_rounds(costs_ms: list[float], seed: int, blocks: int) -> Iterator[list[int]]:
    """Endless rounds of pool indices.  The pool is sorted by recorded cost
    and cut into `blocks` blocks of (nearly) equal size.  One pass shuffles
    every block by the seed; its round j takes the j-th machine of every
    block, so any whole number of rounds holds the same cost mix.  Each pass
    visits every machine once; the builtins open every pass."""
    rng = random.Random(seed * 7919 + 4)
    ranked = sorted(range(len(BUILTINS), len(costs_ms)),
                    key=lambda i: (costs_ms[i], i))
    cut = [ranked[b * len(ranked) // blocks:(b + 1) * len(ranked) // blocks]
           for b in range(blocks)]
    while True:
        for block in cut:
            rng.shuffle(block)
        for j in range(max(len(block) for block in cut)):
            row = [block[j] for block in cut if j < len(block)]
            rng.shuffle(row)
            yield (list(range(len(BUILTINS))) if j == 0 else []) + row
