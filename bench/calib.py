"""Machine-speed calibration for the timed metrics.

The benchmark runs on a few cores of a shared host.  How fast those cores
run this interpreter's code changes from millisecond to millisecond as
other tenants come and go, and the mix of fast and slow spells drifts over
tens of seconds, so raw seconds from runs minutes apart differ by 20-30 %
whatever the program does.  A ``Sampler`` therefore interrupts the timed
process every ``PERIOD_S`` (SIGALRM) to time a small fixed kernel of mpmath
arithmetic, the bulk of the program's work (mpmath runs on its pure-Python
backend unless gmpy2 is installed).  ``scale()`` turns the samples taken
during an interval into the factor that rescales its raw seconds to a
machine on which the kernel takes ``REF_S``; the time spent in the samples
is not counted as the program's.  The kernel calls nothing of the package
and touches no global state (it uses ``mpmath.libmp`` with an explicit
precision), so a change to the package cannot move it and an interrupted
computation resumes unchanged.
"""

from __future__ import annotations

import json
import signal
import statistics
import time

from mpmath import libmp

# the kernel's typical time on a 2-vCPU x86-64 VM (CPython 3.11, mpmath
# python backend); the scaled metrics are seconds at that speed
REF_S = 0.0008
# wall time between the end of one sample and the start of the next
PERIOD_S = 0.03
# samples this close to an interval calibrate it (short operations have
# none of their own)
WINDOW_S = 0.15
# a sample slower than this many times the median is a preemption, which
# the timed work pays at its own (much smaller) rate, not a slow machine
_OUTLIER = 3.0

_PREC = 140  # bits, about 40 digits
_TWO, _THREE, _ONE = libmp.from_int(2), libmp.from_int(3), libmp.from_int(1)


def _kernel() -> None:
    x = _TWO
    for _ in range(60):
        num = libmp.mpf_sqrt(libmp.mpf_add(libmp.mpf_mul(x, _THREE, _PREC, "n"), _ONE, _PREC, "n"),
                             _PREC, "n")
        x = libmp.mpf_add(libmp.mpf_div(num, libmp.mpf_add(x, _ONE, _PREC, "n"), _PREC, "n"),
                          _THREE, _PREC, "n")


class Sampler:
    """Times the kernel every ``PERIOD_S`` of wall time while started.

    ``samples`` holds (monotonic midpoint, seconds) pairs; ``stolen`` is the
    time spent in samples so far, to subtract from timed intervals.  One
    sampler per process: it owns SIGALRM."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.stolen = 0.0
        self._on = False

    def start(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._tick)
        self._on = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def stop(self) -> None:
        self._on = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        m0 = time.monotonic()
        _kernel()
        m1 = time.monotonic()
        self.samples.append((0.5 * (m0 + m1), m1 - m0))
        # re-armed only now, so a slow sample never nests another
        if self._on:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        self.stolen += time.perf_counter() - t0

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"samples": self.samples, "stolen": self.stolen}, f)


def scale(samples, start: float, end: float) -> float:
    """Factor from raw seconds of the interval [start, end] (monotonic) to
    reference seconds: ``REF_S`` over the mean sample within ``WINDOW_S`` of
    it, preemptions left out.  The mean, because the machine flips between
    a fast and a slow state and time adds up linearly in the share of each."""
    near = [s for t, s in samples if start - WINDOW_S <= t <= end + WINDOW_S]
    if not near:
        raise ValueError("no calibration sample near the interval")
    cap = _OUTLIER * statistics.median(near)
    return REF_S / statistics.fmean(s for s in near if s <= cap)
