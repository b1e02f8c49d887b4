"""The box's momentary speed, from a fixed reference task timed while the run goes.

The benchmark runs on shared machines whose speed changes by up to a factor
of two with other tenants' load, from one tenth of a second to the next and
for minutes at a time; a slow stretch that covers a whole run cannot be
averaged away inside it.  So every timing the benchmark reports is
corrected for the box's speed.  While a run goes, a timer signal interrupts
it every :data:`INTERVAL_S` seconds and times one call of
:func:`reference`, a fixed pure-Python task that uses none of the program's
code.  A measured stretch is timed on :func:`now`, a clock that stops while
the reference runs, and its seconds are scaled by :data:`NOMINAL_S` over
the time of the samples taken during it or within :data:`HALO_S` of it
(their median for a stretch shorter than ``HALO_S``, else their mean).  The result is the time the stretch would have taken on a box that
runs the reference in ``NOMINAL_S``.  A change to the program moves the
corrected time as much as the raw one; the box's speed moves the reference
and the program together, and cancels.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import statistics
import time

#: Seconds one sample of :func:`reference` takes, between the program's steps, on
#: a 2-CPU cloud VM (Python 3.11) at its usual speed; corrected timings are
#: in those seconds.
NOMINAL_S = 0.0014
#: Wall seconds between two samples.
INTERVAL_S = 0.05
#: Samples up to this many seconds before or after a stretch count for it
#: too, so that a stretch shorter than :data:`INTERVAL_S` has samples.
HALO_S = 0.2

_RNG = random.Random(20_131)
_RECORDS = [
    (_RNG.randrange(1000), _RNG.random(), f"o{_RNG.randrange(10**6)}") for _ in range(3000)
]


class _Row:
    __slots__ = ("key", "count", "total", "labels")

    def __init__(self, key: int, count: int, total: float, labels: tuple) -> None:
        self.key = key
        self.count = count
        self.total = total
        self.labels = labels


def reference() -> int:
    """Fixed work of the kind the program does: group, sort, build small objects."""
    groups: dict[int, list] = {}
    for key, value, label in _RECORDS:
        groups.setdefault(key % 97, []).append((value, label))
    rows = []
    for key in sorted(groups):
        members = sorted(groups[key])
        total = sum(value for value, _ in members)
        rows.append(_Row(key, len(members), total, tuple(label for _, label in members)))
    return sum(row.count for row in rows if row.total >= 0.0)


class _Meter:
    """Samples of the reference's time, stamped on the clock :func:`now` reads."""

    def __init__(self) -> None:
        self.probing_s = 0.0
        self.stamps: list[float] = []
        self.seconds: list[float] = []
        self.busy = False

    def now(self) -> float:
        return time.perf_counter() - self.probing_s

    def sample(self, *_signal_args) -> None:
        if self.busy:  # the timer fired while a sample was being taken
            return
        self.busy = True
        enabled = gc.isenabled()
        gc.disable()
        started = time.perf_counter()
        reference()
        ended = time.perf_counter()
        if enabled:
            gc.enable()
        self.stamps.append(started - self.probing_s)
        self.seconds.append(ended - started)
        self.probing_s += time.perf_counter() - started
        self.busy = False

    def factor(self, start: float, end: float) -> float:
        low = bisect.bisect_left(self.stamps, start - HALO_S)
        high = bisect.bisect_right(self.stamps, end + HALO_S)
        if low == high:
            # No sample near it (no timer running): measure the speed now.
            self.sample()
            low, high = len(self.stamps) - 1, len(self.stamps)
        around = self.seconds[low:high]
        if end - start < HALO_S:
            # A short stretch runs in one of the box's states; the median of
            # the samples around it says which, unswayed by one odd sample.
            return NOMINAL_S / statistics.median(around)
        # A long stretch spans several states; its time follows their mean.
        return NOMINAL_S * len(around) / sum(around)


_METER = _Meter()


def now() -> float:
    """Seconds on a clock that does not run while the reference is being timed."""
    return _METER.now()


def corrected(start: float, end: float) -> float:
    """The seconds from ``start`` to ``end`` (both read from :func:`now`),
    corrected for the box's speed around that stretch."""
    return (end - start) * _METER.factor(start, end)


class sampling:
    """Context manager: take samples every :data:`INTERVAL_S` while inside.

    The samples come from ``SIGALRM`` on the main thread, so the benchmark
    must run there and nothing else in the process may use that signal.
    """

    def __enter__(self) -> "sampling":
        self.previous = signal.signal(signal.SIGALRM, _METER.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
