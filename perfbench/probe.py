"""Host normalisation: a fixed pure-python probe interleaved with the work.

The CPU speed of a shared host drifts by tens of percent within seconds,
so raw wall-clock times of the same work do not repeat.  The benchmark
therefore times a fixed probe right before, during and right after every
timed region, and rescales the region's duration to what it would have
been on a host whose probe takes exactly :data:`REF_PROBE_S`:

    normalised = raw * REF_PROBE_S / mean(probe times around and in it)

The probe allocates and indexes small objects (tuples, floats, strings, a
dict): interpreter and allocator traffic, the kind of work that dominates
the program's round bookkeeping.  Inside a batch call the probe runs from
a ``SIGALRM`` handler every :data:`SAMPLE_EVERY_S`, between two bytecodes
of the program, so it sees the host as the call saw it; its own time is
taken out of the call's raw duration.  On a shared 2-core host, per-pass
ratios of 300-query shared-scan passes to probes taken this way spread
7% where probes taken only before and after a pass spread 11%, and an
arithmetic-only probe loop spread more than the raw times did.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List

#: Reference time of one probe (seconds).  A constant: the normalised unit
#: is "seconds on a host whose probe takes this long".
REF_PROBE_S = 0.0003

#: Objects one probe allocates and indexes.
PROBE_OBJECTS = 1_000

#: Probes taken right before and right after every timed region.
BRACKET_PROBES = 8

#: Interval of the in-call probe sampler (seconds).
SAMPLE_EVERY_S = 0.02


def probe_work(n: int = PROBE_OBJECTS) -> int:
    """The fixed probe workload; returns a value so nothing is elided."""
    objs = [(i, float(i), str(i)) for i in range(n)]
    index = {o[2]: o for o in objs}
    return len(index)


def time_probe() -> float:
    """Wall time of one probe."""
    t0 = time.perf_counter()
    probe_work()
    return time.perf_counter() - t0


@dataclass
class Region:
    """One timed region: raw seconds and its host factor."""

    raw_s: float
    factor: float

    @property
    def norm_s(self) -> float:
        return self.raw_s * self.factor


@dataclass
class HostClock:
    """Times regions against interleaved probes.

    ``probe`` returns one probe time; it is injectable so tests can pin the
    host speed and check that every timing metric is rescaled.
    """

    probe: Callable[[], float] = time_probe
    #: Mean probe time of every region timed so far (for the run record).
    region_probes: List[float] = field(default_factory=list)

    def burst(self, n: int = BRACKET_PROBES) -> List[float]:
        return [self.probe() for _ in range(n)]

    def factor(self, probes: List[float]) -> float:
        """Rescale factor for a region the given probes were taken around."""
        mean = statistics.fmean(probes)
        self.region_probes.append(mean)
        return REF_PROBE_S / mean

    def time_call(self, fn: Callable[[], object]):
        """``(result, Region)`` of one call, probes sampled inside it.

        The sampler's own time (its handler runs on this thread) is taken
        out of the raw duration.
        """
        probes = self.burst()
        spent = [0.0]

        def sample(signum, frame) -> None:
            t0 = time.perf_counter()
            probes.append(self.probe())
            spent[0] += time.perf_counter() - t0

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            t0 = time.perf_counter()
            out = fn()
            raw = time.perf_counter() - t0 - spent[0]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        probes.extend(self.burst())
        return out, Region(raw, self.factor(probes))
