"""Per-layer measurement of the pipeline, taken from outside it.

Two sources, both installed only for a traced run:

* the stage spans the pipeline already emits (``app``, ``parse``,
  ``classify``, ``setup``, ``emulate``, ``verify``, ``simulate``,
  ``profile``), read from a :class:`repro.obs.tracing.Tracer`;
* counting timers wrapped around public methods of the simulator
  components and the trace cache.  Nothing below ``simulate.launch``
  emits spans, so these wrappers are the only view of that level.

A wrapper costs far more than some of the methods it times
(``SMCore.cycle`` mostly returns at once), so its cost is removed per
call.  The cost per call is measured in the run itself: the traced
``simulate`` time less the untraced one, over the wrapped calls.  Part
of that cost falls inside a wrapper's timed window and inflates the
callee's self time; the rest falls outside it and inflates the caller's.
The share inside is the one thing timed on a no-op, at start-up.
"""

from __future__ import annotations

import functools
import statistics
import time

#: timers whose calls all happen inside the ``simulate`` span.
SIM_TIMERS = ("sm_cycle", "sm_receive", "partition_cycle",
              "partition_receive", "icnt_deliver", "icnt_inject",
              "l1_lookup", "l2_lookup", "stats")

#: stage span name -> per-layer metric name.
STAGES = {
    "parse": "ptx.parse_ms",
    "classify": "core.classify_ms",
    "setup": "workloads.setup_ms",
    "emulate": "emulator.emulate_ms",
    "verify": "workloads.verify_ms",
    "simulate": "sim.simulate_ms",
    "profile": "profiling.locality_ms",
}


class Timer:
    """Calls, truthy results and time of one wrapped method family."""

    __slots__ = ("calls", "useful", "self_ns", "total_ns", "child_calls")

    def __init__(self):
        self.calls = 0
        self.useful = 0
        self.self_ns = 0
        self.total_ns = 0
        #: wrapped calls made directly from inside this one; the part of
        #: their wrapper cost outside their own window lands here.
        self.child_calls = 0


class Instruments:
    """Counting timers around the simulator components and trace cache.

    ``install`` patches the methods, ``uninstall`` restores them.  The
    timers keep a stack of open calls, so a timer's self time excludes
    every wrapped call nested inside it.  Single-threaded use only.
    """

    def __init__(self):
        self.timers = {}
        self._stack = []
        self._patches = []
        #: share of a wrapper's cost inside its timed window
        self.inside_share = self._calibrate()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, timer):
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                timer.calls += 1
                timer.self_ns += elapsed - frame[0]
                timer.total_ns += elapsed
                timer.child_calls += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[0] += elapsed
                    parent[1] += 1
            if result:
                timer.useful += 1
            return result

        return timed

    def _timer(self, name):
        return self.timers.setdefault(name, Timer())

    def _patch(self, owner, attr, timer):
        original = getattr(owner, attr, None)
        if original is None:
            # renamed or removed by a later change: its timer reads 0
            return
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, timer))

    def _patch_cache_lookups(self, cache_cls):
        """One ``Cache`` class serves both levels.  Each new instance
        gets its own wrapped ``lookup``, bound to the L1 or L2 timer by
        its name, so no wrapper call pays for telling them apart."""
        l1, l2 = self._timer("l1_lookup"), self._timer("l2_lookup")
        init = cache_cls.__init__
        wrap = self._wrap

        @functools.wraps(init)
        def __init__(cache, *args, **kwargs):
            init(cache, *args, **kwargs)
            cache.lookup = wrap(cache.lookup,
                                l1 if cache.name.startswith("L1") else l2)

        self._patches.append((cache_cls, "__init__", init))
        cache_cls.__init__ = __init__

    def install(self):
        from repro.emulator import trace_cache
        from repro.sim.cache import Cache
        from repro.sim.core import SMCore
        from repro.sim.icnt import Interconnect
        from repro.sim.memory_partition import MemoryPartition
        from repro.sim.stats import SimStats

        self._patch(SMCore, "cycle", self._timer("sm_cycle"))
        self._patch(SMCore, "receive_response", self._timer("sm_receive"))
        self._patch(MemoryPartition, "cycle", self._timer("partition_cycle"))
        self._patch(MemoryPartition, "receive",
                    self._timer("partition_receive"))
        self._patch(Interconnect, "deliver_ready",
                    self._timer("icnt_deliver"))
        self._patch(Interconnect, "inject", self._timer("icnt_inject"))
        self._patch_cache_lookups(Cache)
        stats = self._timer("stats")
        for attr in sorted(vars(SimStats)):
            if attr.startswith("record_"):
                self._patch(SimStats, attr, stats)
        self._patch(trace_cache, "lookup", self._timer("trace_cache_lookup"))
        self._patch(trace_cache, "store", self._timer("trace_cache_store"))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self):
        for timer in self.timers.values():
            timer.__init__()

    def _calibrate(self, calls=100_000, rounds=5):
        """Share of the wrapper's per-call cost that falls inside its
        timed window, timed around a no-op."""

        class Probe:
            # the signature of SMCore.cycle, the most frequent call
            def noop(self, now):
                return None

        probe = Probe()
        timer = Timer()
        raw_fn = Probe.noop
        wrapped = self._wrap(raw_fn, timer)
        clock = time.perf_counter_ns
        shares = []
        for _ in range(rounds):
            Probe.noop = raw_fn
            start = clock()
            for _ in range(calls):
                probe.noop(0)
            raw = clock() - start
            Probe.noop = wrapped
            timer.__init__()
            start = clock()
            for _ in range(calls):
                probe.noop(0)
            shares.append(timer.self_ns / (clock() - start - raw))
        return min(1.0, statistics.median(shares))

    def snapshot(self):
        """A copy of every timer, to correct once all passes are in."""
        out = {}
        for name, timer in self.timers.items():
            copy = out[name] = Timer()
            for attr in Timer.__slots__:
                setattr(copy, attr, getattr(timer, attr))
        return out


def sim_calls(timers):
    """Wrapped calls made inside ``simulate`` spans."""
    return sum(timers[name].calls for name in SIM_TIMERS)


def wrapper_cost(traced_simulate_ms, reference_simulate_ms, timers,
                 inside_share):
    """Per-call wrapper cost in ns, ``(inside, outside)`` its timed
    window: what the wrappers added to one traced pass's ``simulate``
    time over the untraced reference, per wrapped call."""
    calls = sim_calls(timers)
    if not calls:
        return 0.0, 0.0
    cost = max(0.0, traced_simulate_ms - reference_simulate_ms) * 1e6 / calls
    return cost * inside_share, cost * (1 - inside_share)


def self_ms(timers, cost, *names):
    """Overhead-corrected self time of the named timers, in ms."""
    cost_in, cost_out = cost
    total = 0.0
    for name in names:
        t = timers[name]
        total += max(0.0, t.self_ns - t.calls * cost_in
                     - t.child_calls * cost_out)
    return total / 1e6


def total_ms(timers, cost, name):
    """Overhead-corrected inclusive time of one timer, in ms."""
    t = timers[name]
    return max(0.0, t.total_ns - t.calls * cost[0]) / 1e6


def stage_times(tracer):
    """Per-stage span time over every ``app`` root span, in ms.

    Returns ``(stages, app_ms, app_self_ms)``: the summed duration of
    each direct child stage, the summed ``app`` durations, and the part
    of the ``app`` spans no child stage covers.
    """
    stages = dict.fromkeys(STAGES, 0.0)
    app_ms = 0.0
    child_ms = 0.0
    for root in tracer.roots:
        if root.name != "app":
            continue
        app_ms += root.duration_ms
        for child in root.children:
            stages[child.name] = stages.get(child.name, 0.0) \
                + child.duration_ms
            child_ms += child.duration_ms
    return stages, app_ms, app_ms - child_ms
