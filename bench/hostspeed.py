"""Host-speed adjustment of the benchmark's timings.

The benchmark runs on a shared host whose speed wanders: other tenants'
load slows this process by up to 2x, in bursts of milliseconds and in
phases lasting minutes.  A run of twenty seconds then reads up to 1.6x
slower than the same run a minute later, whatever the program does.

So a timed run runs a fixed reference loop right after each operation,
for about SHARE of the operation's time.  The operation's slowdown s is
the loop's mean time just before and just after it, over its nominal
time, and the operation's time is reported divided by s ** exponent:
seconds on the host at its nominal speed.  Both sample the same stretch
of the host's wandering, so it cancels; the program's own cost does not,
because the reference loop is the benchmark's and no change to pofsig
touches it.  Each result also reports the run's mean slowdown and the
unadjusted metrics.

The exponent is 1 for library calls in this process: their time tracks
the loop's.  Fresh interpreters (set-up, CLI commands) spend their time
starting up and importing, which the same load slows less: over 90 s of
back-to-back set-ups, log(import time) rose 0.41 to 0.51 per unit of
log(loop time).  Dividing set-up wall times by s ** 0.5 (s timed in the
parent) cut their coefficient of variation from 0.105 to 0.069; dividing
import times by s raised theirs from 0.107 to 0.136.
"""

from __future__ import annotations

import hashlib
import statistics
import time

# One reference_loop() on the host of record (2 vCPUs, Intel Xeon,
# Python 3.11) at a quiet moment.  Only its ratio to a run's own
# reference times matters; it fixes the scale of the adjusted seconds.
NOMINAL_S = 0.0031
SHARE = 0.15  # reference time interleaved per second of measured time
LIBRARY_EXPONENT = 1.0
STARTUP_EXPONENT = 0.5


def reference_loop() -> int:
    """Fixed pure-Python work in pofsig's mix: SHA-256 of short inputs,
    integer slicing and dict updates."""
    h = hashlib.sha256
    counts: dict = {}
    for i in range(3000):
        x = int.from_bytes(h(i.to_bytes(8, "big")).digest()[:4], "big")
        counts[x >> 12] = counts.get(x >> 12, 0) + (x & 7)
    return len(counts)


class HostClock:
    """Samples the host's speed between the operations of one run."""

    def __init__(self):
        self.samples: list[float] = []
        self._last: list[float] = []  # the samples of the previous pace()

    def pace(self, busy_s: float, exponent: float = LIBRARY_EXPONENT) -> float:
        """Run the reference loop for about SHARE * busy_s seconds after an
        operation; return the divisor for the operation's time: the
        slowdown around it, from these samples and the previous call's,
        to the power `exponent`."""
        samples = []
        for _ in range(max(1, round(SHARE * busy_s / NOMINAL_S))):
            t0 = time.perf_counter()
            reference_loop()
            samples.append(time.perf_counter() - t0)
        self.samples.extend(samples)
        around, self._last = self._last + samples, samples
        return (statistics.fmean(around) / NOMINAL_S) ** exponent

    def slowdown(self) -> float:
        """Mean reference time over its nominal time: 1.0 on a quiet host."""
        return statistics.fmean(self.samples) / NOMINAL_S
