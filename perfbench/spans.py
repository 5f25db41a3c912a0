"""Spans around calls into the package, recorded from outside it.

A span is opened by a wrapper that the benchmark installs on the module
attribute through which the caller looks the function up (for example
`streaming_eval.factorize_and_emit`, which `step` calls).  Nothing in the
package changes.  Spans are kept in memory and written when the run ends;
per-name call counts, total time and self time (duration minus the time its
direct children cover) are kept for every span, including those past the
storage cap.
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from pathlib import Path
from time import perf_counter_ns

SPAN_CAP = 200_000  # spans stored for the trace file; later ones are only counted


@contextlib.contextmanager
def swapped(owner, attr, make):
    """Replace `owner.attr` by `make(original)` for the duration."""
    original = getattr(owner, attr)
    setattr(owner, attr, make(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """Spans of one traced run, kept in flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total_ns: list[int] = []
        self.self_ns: list[int] = []
        self.doc = 0  # id shared by the spans of one document or machine
        # open spans: [name id, start, time covered by children, stored index]
        self._open: list[list[int]] = []
        self._name = array("i")
        self._doc = array("i")
        self._parent = array("i")
        self._start = array("q")
        self._end = array("q")

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total_ns.append(0)
            self.self_ns.append(0)
        return nid

    def open(self, nid: int) -> None:
        index = -1
        if len(self._name) < SPAN_CAP:
            index = len(self._name)
            self._name.append(nid)
            self._doc.append(self.doc)
            self._parent.append(self._open[-1][3] if self._open else -1)
            self._end.append(0)
            self._start.append(0)
        start = perf_counter_ns()
        if index >= 0:
            self._start[index] = start
        self._open.append([nid, start, 0, index])

    def close(self) -> None:
        end = perf_counter_ns()
        nid, start, covered, index = self._open.pop()
        duration = end - start
        self.calls[nid] += 1
        self.total_ns[nid] += duration
        self.self_ns[nid] += duration - covered
        if self._open:
            self._open[-1][2] += duration
        if index >= 0:
            self._end[index] = end

    @contextlib.contextmanager
    def span(self, name: str):
        self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return traced

    def iterate(self, name: str, iterable):
        """Yield from `iterable`, one span per item produced."""
        nid = self.name_id(name)
        it = iter(iterable)
        while True:
            self.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close()
            yield item

    @contextlib.contextmanager
    def installed(self, targets):
        """Wrap each (owner, attribute, span name) for the duration."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name in targets:
                stack.enter_context(swapped(
                    owner, attr, functools.partial(self.wrap, name)))
            yield self

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return self.self_ns[nid] / 1e9 if nid is not None else 0.0

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return self.calls[nid] if nid is not None else 0

    @property
    def spans_seen(self) -> int:
        return sum(self.calls)

    def write(self, path: Path) -> None:
        """One line per stored span (tab-separated), then one per name with
        its call count, total and self nanoseconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span\tparent\tdoc\tname\tstart_ns\tend_ns\n")
            for i in range(len(self._name)):
                handle.write(f"{i}\t{self._parent[i]}\t{self._doc[i]}\t"
                             f"{self.names[self._name[i]]}\t{self._start[i]}\t"
                             f"{self._end[i]}\n")
            handle.write("#name\tcalls\ttotal_ns\tself_ns\n")
            for nid, name in enumerate(self.names):
                handle.write(f"#{name}\t{self.calls[nid]}\t{self.total_ns[nid]}\t"
                             f"{self.self_ns[nid]}\n")


class NoTracer:
    """The untraced stand-in: the same calls, no bookkeeping."""

    doc = 0

    @staticmethod
    def iterate(name, iterable):
        return iterable

    @staticmethod
    def span(name):
        return contextlib.nullcontext()
