"""Times at a reference host speed.

A shared host runs the benchmark at a speed that drifts by tens of
percent within seconds and over hours: on a 2-vCPU VM, the same
simulation job took 323-580 ms within one minute, and the two vCPUs
drift independently of each other.  A fixed pure-Python loop, the
*probe*, slows down with the jobs: the correlation is 0.85-0.97 per job.

So while a job runs, a ``SIGALRM`` handler times the probe every
``INTERVAL_S`` of wall time, on the job's own CPU.  The host's slowdown
over the job is the median of ``probe time / REFERENCE_NS`` over the
probes taken while it ran and one just before and after.  The job's
time at reference speed is its wall time, less the probes' own time,
divided by that slowdown to the power ``SENSITIVITY``.
``REFERENCE_NS`` is the probe's fastest time on that VM, so a calm host
reads about its wall time.  The probe runs no pipeline code, so a
change to the pipeline moves the job's time and not the reference.
"""

from __future__ import annotations

import signal
import statistics
import time

#: iterations of the probe loop
PROBE_LOOPS = 4000
#: the probe's time on the reference host (2-vCPU Xeon VM, Python
#: 3.11) at its fastest, in ns
REFERENCE_NS = 240_000
#: wall time between two probes while a job runs
INTERVAL_S = 0.01
#: how much more than the probe the pipeline slows down: a job's
#: slowdown is about the probe's to this power.  A per-job regression
#: over 1,700 job runs of the four workloads gives 1.13-1.15 on every
#: workload (an underestimate: the probes are noisy); 1.05-1.3 gave the
#: least run-to-run spread, depending on the hour.
SENSITIVITY = 1.2


def probe_ns():
    """The probe loop's wall time, in ns."""
    clock = time.perf_counter_ns
    start = clock()
    x = 0
    for i in range(PROBE_LOOPS):
        x += i * i % 7
    return clock() - start


def at_reference(wall_ns, probes):
    """``wall_ns`` of work, in seconds at reference speed, given the
    probe times (ns) taken while it ran."""
    slowdown = statistics.median(probes) / REFERENCE_NS
    return wall_ns / 1e9 / slowdown ** SENSITIVITY


def window(samples, start, end):
    """``(probes, probed_ns)`` of timestamped samples for a job that ran
    from ``start`` to ``end`` (``time.time()``): the probes inside, plus
    the last one before and the first one after, and the time the
    probes inside took."""
    inside = [ns for t, ns in samples if start <= t <= end]
    before = [ns for t, ns in samples if t < start][-1:]
    after = [ns for t, ns in samples if t > end][:1]
    return before + inside + after, sum(inside)


class WallClock:
    """Wall time only: what a traced run uses, so that no probe lands
    inside a timed wrapper."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def time(self, fn, *args):
        """``(fn(*args), wall seconds, wall seconds)``."""
        start = time.perf_counter_ns()
        result = fn(*args)
        wall = (time.perf_counter_ns() - start) / 1e9
        return result, wall, wall


class HostClock(WallClock):
    """Samples the probe every ``INTERVAL_S`` while entered."""

    def __init__(self):
        #: ``(time.time(), probe ns)``, in the order taken
        self.samples = []
        self._previous = None

    def _sample(self, *_signal):
        self.samples.append((time.time(), probe_ns()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def time(self, fn, *args):
        """``(fn(*args), wall seconds, seconds at reference speed)``;
        the clock must be entered."""
        self._sample()
        first = len(self.samples)
        start = time.perf_counter_ns()
        result = fn(*args)
        wall_ns = time.perf_counter_ns() - start
        last = len(self.samples)
        self._sample()
        probed = sum(ns for _t, ns in self.samples[first:last])
        probes = [ns for _t, ns in self.samples[first - 1:]]
        return result, wall_ns / 1e9, at_reference(wall_ns - probed, probes)
