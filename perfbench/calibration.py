"""Timing against a fixed interpreter loop.

The host this benchmark was built on is shared: its speed drifts by up to a
factor of two within seconds, and a fixed 0.5 ms loop timed back to back
varies by a fifth. Raw op times therefore spread by 10-15% between identical
passes. Timing each op against the calibration loop run just before and
just after it cancels the drift: reported times are in reference units, in
which one calibration loop counts as REFERENCE_NS.

The loop builds small frozensets and tuples and stores them in a dict:
allocation and hashing, as in the package's own work. On the build host it
tracked the drift better than a loop of int comparisons did: between
identical passes, p50 and p90 spread 4-6% instead of 10-15%. It touches no
Fraction, so the tracer's wrappers (which patch Fraction) never slow it.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_NS = 500_000  # what one calibration loop counts as
EVERY_NS = 5_000_000  # ops run between two calibration loops at most this long
_KEYS = [(i * 7919) % 1009 for i in range(40)]


def loop_ns() -> int:
    """Duration of one calibration loop."""
    clock = time.perf_counter_ns
    start = clock()
    table = {}
    for a in _KEYS:
        for b in _KEYS[:22]:
            key = frozenset((a, b, a ^ b))
            table[key] = (a, b)
            table.get(key)
    return clock() - start


def scale(before_ns: float, after_ns: float) -> float:
    """Reference nanoseconds per raw nanosecond between two loops."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)


class Meter:
    """Reference time of a long stretch of work that calls tick() often.
    Whenever EVERY_NS of raw time has passed since the last calibration loop,
    tick() runs another one and scales the segment since the last loop by the
    loops on either side of it, so drift during the stretch cancels too. The
    loops themselves are not counted."""

    def __init__(self) -> None:
        self.reference_ns = 0.0
        self._before = statistics.median(loop_ns() for _ in range(5))
        self._since = time.perf_counter_ns()

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter_ns()
        if force or now - self._since >= EVERY_NS:
            after = loop_ns()
            self.reference_ns += (now - self._since) * scale(self._before, after)
            self._before, self._since = after, time.perf_counter_ns()

    def seconds(self) -> float:
        """Reference seconds so far, closing the open segment."""
        self.tick(force=True)
        return self.reference_ns / 1e9


def timed(func, *args):
    """(result, reference seconds) of one call, bracketed by five loops on
    each side."""
    before = statistics.median(loop_ns() for _ in range(5))
    t0 = time.perf_counter_ns()
    result = func(*args)
    elapsed = time.perf_counter_ns() - t0
    after = statistics.median(loop_ns() for _ in range(5))
    return result, elapsed * scale(before, after) / 1e9
