"""Host-speed-corrected wall clock.

The host this benchmark runs on shares its cores, and its speed drifts
by a quarter within seconds, so a raw ``perf_counter`` interval does not
repeat.  :class:`HostClock` runs a fixed pure-Python *reference pass*
(about 0.5 ms) from a ``SIGALRM`` handler every ``PERIOD_S`` seconds, in
the measured process itself.  Each reference pass times the host's
speed at that moment; the work done between two passes is then scaled
by ``NOMINAL_REFERENCE_S / reference duration``.  A corrected second is
therefore "a second on a host where the reference pass takes exactly
``NOMINAL_REFERENCE_S``".

The correction is applied after the fact: the clock only records the
``(begin, end)`` of every reference pass, and :class:`Correction` maps
any raw ``perf_counter`` reading onto the corrected time line.  Span
recorders can therefore keep cheap raw timestamps.  Time spent inside
reference passes is excluded from corrected time.
"""

from __future__ import annotations

import bisect
import signal
import time
from typing import List, Sequence, Tuple

#: Timer period between reference passes, in seconds.
PERIOD_S = 0.02

#: Loop trips of one reference pass (about 0.5 ms on the reference host).
REFERENCE_TRIPS = 3600

#: The duration a reference pass is defined to take: corrected time is
#: raw time rescaled to a host where the pass takes exactly this long.
NOMINAL_REFERENCE_S = 0.0005


def reference_pass() -> int:
    """A fixed interpreter workload: dict updates, arithmetic, a loop."""
    table = {}
    acc = 0
    for i in range(REFERENCE_TRIPS):
        key = i & 63
        table[key] = table.get(key, 0) + i
        acc = (acc * 31 + key) & 0xFFFF
    return acc


class HostClock:
    """Samples host speed with a reference pass on a ``SIGALRM`` timer.

    Only the main thread may start it (a Python signal-handler rule).
    The timer is one-shot and re-armed at the end of every pass, so
    passes never overlap and each work interval is about ``PERIOD_S``
    long.
    """

    def __init__(self):
        #: ``(begin, end)`` raw ``perf_counter`` readings of every pass.
        self.samples: List[Tuple[float, float]] = []
        self._running = False

    def _tick(self, _signum, _frame) -> None:
        begin = time.perf_counter()
        reference_pass()
        end = time.perf_counter()
        self.samples.append((begin, end))
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self) -> None:
        """Warm the reference pass up, take a first sample, arm the timer."""
        for _ in range(20):
            reference_pass()
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        self._tick(signal.SIGALRM, None)

    def stop(self) -> None:
        """Disarm the timer and take a closing sample."""
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick(signal.SIGALRM, None)

    def correction(self) -> "Correction":
        return Correction(self.samples)


class Correction:
    """Maps raw ``perf_counter`` readings onto corrected time.

    The work interval between pass ``k - 1`` and pass ``k`` runs at the
    speed that the median of passes ``k - 1``, ``k`` and ``k + 1``
    measured: one pass that was preempted mid-way then cannot stretch
    or shrink its interval on its own.  Time before the first pass and
    after the last runs at the nearest pass's speed; time inside a pass
    counts zero.
    """

    def __init__(self, samples: Sequence[Tuple[float, float]]):
        if not samples:
            raise ValueError("no reference samples: was the clock started?")
        self.begins = [begin for begin, _ in samples]
        self.ends = [end for _, end in samples]
        durations = [end - begin for begin, end in samples]
        last = len(durations) - 1
        #: Host speed (1.0 = nominal) of the work interval before pass k.
        self.speeds: List[float] = []
        for k in range(len(durations)):
            window = sorted(durations[max(0, k - 1):min(last, k + 1) + 1])
            self.speeds.append(NOMINAL_REFERENCE_S / window[len(window) // 2])
        #: Corrected time at the begin of pass k (the clock's origin is
        #: the begin of pass 0).
        self.at_begin = [0.0]
        for k in range(1, len(samples)):
            work = self.begins[k] - self.ends[k - 1]
            self.at_begin.append(self.at_begin[-1] + work * self.speeds[k])

    def __call__(self, t: float) -> float:
        """Corrected reading for the raw reading ``t``."""
        k = bisect.bisect_right(self.begins, t)
        if k == 0:
            return (t - self.begins[0]) * self.speeds[0]
        prev = k - 1
        base = self.at_begin[prev]
        if t <= self.ends[prev]:
            return base
        speed = self.speeds[k] if k < len(self.speeds) else self.speeds[prev]
        return base + (t - self.ends[prev]) * speed

    def interval(self, start: float, end: float) -> float:
        """Corrected length of the raw interval ``[start, end]``."""
        return self(end) - self(start)

    def interval_speeds(self) -> List[float]:
        """Host speed per work interval (1.0 = nominal), in time order."""
        return [round(speed, 4) for speed in self.speeds]
