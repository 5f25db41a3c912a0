"""One set-up, in a fresh interpreter, as a `vptstream` command pays it.

Reads {"src", "builtins", "texts"} as JSON on stdin, then times: importing
`vptstream.cli`, loading each builtin through `cli._load` and running the
functional pre-check `eval` runs before its first symbol, and parsing each
machine text.  Prints {"setup_s": seconds}, calibrated (see probe.py).
"""

import json
import sys
from time import perf_counter

from probe import Slowness


def main() -> None:
    job = json.load(sys.stdin)
    slowness = Slowness()
    began = perf_counter()
    sys.path.insert(0, job["src"])
    from vptstream import cli
    for name in job["builtins"]:
        vpt = cli._load("builtin:" + name)
        verdict = cli.check_functional_bounded(vpt, cli._FUNCTIONAL_PROBE_LEN)
        if isinstance(verdict, cli.CounterExample):
            sys.exit(f"builtin {name} failed the functional pre-check")
    for text in job["texts"]:
        cli.parse_vpt(text)
    elapsed = perf_counter() - began
    print(json.dumps({"setup_s": elapsed / slowness.after_segment()}))


if __name__ == "__main__":
    main()
