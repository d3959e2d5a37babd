"""Reference-speed probe: op times rescaled to a core of fixed speed.

The benchmark runs on a few cores of a shared host whose speed for this
process changes by up to 1.5x within seconds (other tenants load the same
physical cores).  CPU time of a fixed pure-Python loop changes just as much
as its wall time, so neither is steady from run to run, and the two cores
of one machine do not change together, so a probe on another core cannot
stand in for the one the ops run on.

``SpeedProbe`` therefore samples the core the ops run on, from inside the
benchmark's own thread: while it is active, a SIGALRM interval timer runs a
fixed piece of pure-Python numerics (under a millisecond) every
``interval`` seconds and records its duration.  An op's time in reference
seconds is its busy time (wall time minus the probe time inside it) times
``REF_PROBE_S`` over the mean probe duration while the op ran: the time
the op would take on a core that runs the probe in ``REF_PROBE_S``.  The
mean, not the median, is the matching estimator, because an op's time is
the integral of the per-unit cost over its run, and the host's slow and
fast spells alternate within one op.  Probes longer than ``SPIKE`` times
the window's median are left out of the mean: probes take a thirtieth of
the run, so one preemption of the core for a few milliseconds that lands
in a probe moves the op's mean probe time by tenths while it costs the op
itself a fraction of a percent.  An op shorter than ``MIN_WINDOW`` probe
intervals uses the last ``MIN_WINDOW`` probes up to its end.  Set-up is
timed the same way, though the cold import runs in a child process while
the probes run in the parent.  The probe never calls into nevlab, so a
change to the program cannot change the reference it is measured against.
"""

from __future__ import annotations

import cmath
import gc
import math
import signal
from fractions import Fraction
from statistics import fmean, median
from time import perf_counter

REF_PROBE_S = 1e-3      # nominal duration of one probe
MIN_WINDOW = 9          # probes that set the speed of a short op
SPIKE = 2.5             # probes this many window medians long are dropped


class _Term:
    __slots__ = ("poly", "c")

    def __init__(self, poly, c):
        self.poly, self.c = poly, c


class _ExpSum:
    """sum_k p_k(z) e^{c_k z}, evaluated the way pure-Python numerics do it."""

    def __init__(self, terms):
        self.terms = tuple(terms)

    def __call__(self, z: complex) -> complex:
        total = 0j
        for t in self.terms:
            acc = 0j
            for a in reversed(t.poly):
                acc = acc * z + a
            total += acc * cmath.exp(t.c * z)
        return total


# Fixed data: the probe's work never changes.  Its mix (method calls, complex
# arithmetic, cmath, dict stores, Fraction sums) slows with the host as the
# nevlab commands do; a tight integer loop slows about 1.3x less.
_SUMS = [_ExpSum(_Term((complex(k % 5 - 2, 1), 0.5, complex(1, j - 1)),
                       complex(j % 5 - 2, (k + j) % 5 - 2)) for j in range(3))
         for k in range(8)]
_POINTS = [cmath.rect(3.0, 2 * math.pi * k / 20) for k in range(20)]
_FRACTIONS = [Fraction(7919 * k % 100_003 + 1, 104_729 * k % 99_991 + 1) for k in range(60)]


def _reference_work() -> float:
    seen = {}
    for k, f in enumerate(_SUMS):
        for z in _POINTS:
            seen[k, z] = abs(f(z))
    total = sum(_FRACTIONS, Fraction(0))
    return max(seen.values()) + float(total)


class SpeedProbe:
    def __init__(self, interval: float = 0.025):
        self.interval = interval
        self.samples: list[float] = []
        self._previous = None

    def sample(self, *_signal_args) -> None:
        # a collection started by the probe's allocations would traverse the
        # whole heap of the op it interrupts and charge that to the probe
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            _reference_work()
            self.samples.append(perf_counter() - t0)
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "SpeedProbe":
        for _ in range(MIN_WINDOW):     # so the first op has a window
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def rescale(self, seconds: float, start: int, end: int) -> tuple[float, float]:
        """(busy seconds, reference seconds) of an op that took ``seconds``
        of wall time while probes ``start:end`` ran."""
        busy = seconds - sum(self.samples[start:end])
        window = self.samples[max(0, end - max(end - start, MIN_WINDOW)):end]
        cap = SPIKE * median(window)
        return busy, busy * REF_PROBE_S / fmean(t for t in window if t <= cap)
