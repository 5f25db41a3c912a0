"""Calibration against a shared machine whose speed drifts.

The machine this benchmark was written on drifts in speed by up to forty
percent within seconds, for all code alike.  So the timed work is cut into
segments of about PROBE_INTERVAL_NS, each segment is bracketed by probes of
a fixed pure-Python loop, and its times are divided by the probes' mean
over CALIBRATION_REFERENCE_S: the metrics are in seconds of a machine
running at reference speed.  The probe shares no code with the package, so
only the machine's speed cancels.  Probe time is left out of every measured
interval.  This module imports nothing from the package, so that a set-up
can be timed before the package is imported.
"""

from time import perf_counter_ns

CALIBRATION_REFERENCE_S = 0.0012  # the probe on the defining machine, quiet
PROBE_INTERVAL_NS = 100_000_000


def calibrate() -> float:
    """Seconds for a fixed loop of dict updates and tuple slicing: the
    fastest of five tries, so a single interruption does not count."""
    best = None
    for _ in range(5):
        began = perf_counter_ns()
        table: dict = {}
        window: tuple = ()
        for i in range(2000):
            key = (i % 97, i % 13)
            table[key] = table.get(key, ()) + (i,) if i % 7 else ()
            window = window[-50:] + (i,)
        elapsed = perf_counter_ns() - began
        best = elapsed if best is None else min(best, elapsed)
    return best / 1e9


class Slowness:
    """The machine's slowness relative to the reference around each segment
    of work: the mean of the probes taken just before and just after it."""

    def __init__(self) -> None:
        self.last = calibrate()

    def after_segment(self) -> float:
        before, self.last = self.last, calibrate()
        return (before + self.last) / 2 / CALIBRATION_REFERENCE_S
