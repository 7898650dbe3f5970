"""Timing at a reference machine speed.

The benchmark shares its CPU with other tenants.  Their load changes the
speed of pure-Python code by up to 1.7x, in phases that last from
seconds to minutes, so raw wall times of one workload spread by 20-40 %
from run to run however long a run is.  A meter therefore also times a
fixed probe before and after each interval and scales the interval by
the probe's nominal time over its measured time.  Scaled times are
seconds at the speed the machine has when nobody else loads it; the raw
seconds are kept alongside.

Two probes, because the two kinds of work slow down differently: exact
rational arithmetic for computation, and the start-up of a bare
interpreter for starting a child process.  A child's interval is taken
to start with STARTUP_S of start-up (nominal, scaled by the start-up
probe) and to compute for the rest (scaled by the arithmetic probe).
"""

import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# Probe times on an unloaded core of the machine the baseline was
# recorded on (CPython 3.11, x86-64).
NOMINAL_COMPUTE_S = 0.002
NOMINAL_STARTUP_S = 0.05
# nominal time a child needs to start and import the package (setup_s)
STARTUP_S = 0.12


def compute_probe():
    """Best of three timings of a fixed piece of rational arithmetic."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        best = min(best, perf_counter() - start)
    return best


def startup_probe():
    """Time of one start and exit of a bare interpreter."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return perf_counter() - start


class Reading:
    raw = seconds = factor = 0.0


class Meter:
    """Times intervals; each is scaled by the probes taken on either side.

    Consecutive intervals share the probes between them.
    """

    def __init__(self, in_children):
        self.in_children = in_children
        self.last = self._probe()

    def _probe(self):
        compute = compute_probe() / NOMINAL_COMPUTE_S
        if not self.in_children:
            return compute, None
        return compute, startup_probe() / NOMINAL_STARTUP_S

    @contextmanager
    def interval(self):
        reading = Reading()
        start = perf_counter()
        try:
            yield reading
        finally:
            reading.raw = perf_counter() - start
            before, self.last = self.last, self._probe()
            compute = (before[0] + self.last[0]) / 2
            if self.in_children:
                startup = (before[1] + self.last[1]) / 2
                head = min(reading.raw, STARTUP_S * startup)
                reading.seconds = (head / startup
                                   + (reading.raw - head) / compute)
            else:
                reading.seconds = reading.raw / compute
            reading.factor = reading.raw / reading.seconds
