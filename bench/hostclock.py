"""Host-speed normalisation of item times.

The benchmark runs on shared machines whose CPU speed, as one process sees
it, swings by 20-40% within seconds and drifts over minutes, while CPU time
stays equal to wall time (nothing waits; the core simply runs slower).  Raw
wall times of the same work then spread far more between runs than any
change worth measuring.

HostClock samples the host's current speed while the program runs: a
SIGALRM timer interrupts the main thread every PERIOD_S seconds and times a
fixed probe of the same kind of work the program does (exact rational
arithmetic, dict and list operations).  An item's time is its wall time
minus the probes that ran inside it, scaled by REFERENCE_PROBE_S over the
probe time measured around the item.  The result is the time the item would
take on the reference host: the probe's median time on an idle 2-vCPU
machine under CPython 3.11.  The probe is fixed benchmark code, so a change
to the program moves these times exactly as it moves wall times.
"""

from __future__ import annotations

import bisect
import gc
import signal
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.01
NEAREST = 5  # probes that describe an item too short to hold as many
REFERENCE_PROBE_S = 2.0e-4


def probe() -> None:
    total = Fraction(0)
    table: dict[int, Fraction] = {}
    keys = []
    for i in range(1, 40):
        total += Fraction(1, i % 97 + 1)
        table[i % 31] = total
        keys.append((i * 7919) % 1009)
    keys.sort()


class HostClock:
    """Context manager that samples host speed for as long as it is open."""

    def __init__(self):
        self.ends: list[float] = []  # probe end times, increasing
        self.durations: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        # The probe must not trigger a collection of the program's heap.
        enabled = gc.isenabled()
        gc.disable()
        start = perf_counter()
        probe()
        end = perf_counter()
        if enabled:
            gc.enable()
        self.ends.append(end)
        self.durations.append(end - start)

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, start: float, end: float) -> float:
        """Reference-host seconds for the work done between start and end.

        The host's speed changes within a fraction of a second, so an item
        is scaled by the probes that ran inside it or, if fewer than
        NEAREST ran there, by the NEAREST probes closest to it in time."""
        lo = bisect.bisect_left(self.ends, start)
        hi = bisect.bisect_right(self.ends, end)
        work = (end - start) - sum(self.durations[lo:hi])
        if hi - lo >= NEAREST:
            used = self.durations[lo:hi]
        else:
            near = range(max(0, lo - NEAREST), min(len(self.ends), hi + NEAREST))
            by_distance = sorted(near, key=lambda i: max(start - self.ends[i], self.ends[i] - end, 0.0))
            used = [self.durations[i] for i in by_distance[:NEAREST]]
        if not used:
            raise RuntimeError("no host-speed sample near the item")
        return work * sum(REFERENCE_PROBE_S / d for d in used) / len(used)
