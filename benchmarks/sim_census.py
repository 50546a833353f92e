"""Deterministic census of the timing simulator's work.

For every app of the two simulating benchmark workloads,
``sim-irregular`` and ``sim-regular`` (with the scale and input seed
that ``bench_pipeline/jobs.py`` gives them), the census emulates the
app once and replays its launches on ``BENCH_CONFIG`` under
``sys.settrace``.  In frames of ``repro/sim/*.py`` only, it counts:

* executed bytecodes (``opcode`` trace events), per function;
* calls, per function.  ``SMCore.cycle`` and ``MemoryPartition.cycle``
  calls are the SM and partition ticks;
* main-loop iterations, as stores to ``GPU.now``: the loop makes one
  per iteration and nothing else in a replay makes any.

The counts depend only on the simulator's code and its input, never on
the host, so two runs give the same numbers.  No wall-clock time is
taken: a traced replay runs tens of times slower than a plain one.
Functions are keyed by qualified name (``SMCore.cycle``; before
Python 3.11, which has no ``co_qualname``, by bare name).  The
``*_top_functions`` tables of ``BENCH_sim_issue.json`` key them by bare
name, the last dotted part.

Run it against any checkout by putting that checkout's ``src`` first
on the path::

    PYTHONPATH=src python3 benchmarks/sim_census.py --out census.json
    PYTHONPATH=src python3 benchmarks/sim_census.py --apps dwt --scale 0.05
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
JOBS = os.path.join(HERE, os.pardir, "bench_pipeline", "jobs.py")

#: the workloads whose jobs run the simulator
SIM_WORKLOADS = ("sim-irregular", "sim-regular")


def bench_workloads():
    """``bench_pipeline``'s workload table, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look the module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _name(code):
    return getattr(code, "co_qualname", code.co_name)


def _is_sim(filename):
    return os.sep + os.path.join("repro", "sim", "") in filename


def replay_counts(run, config):
    """Replay the emulated ``run`` on ``config`` under the tracer.

    Returns ``(bytecodes, calls, loop_iterations, stats)``, the first
    two as Counters keyed by code object.
    """
    from repro.sim.gpu import GPU

    class CountingGPU(GPU):
        """Counts every store to :attr:`now` after construction."""

        stores = -1   # the constructor's store does not count

        @property
        def now(self):
            return self._now

        @now.setter
        def now(self, value):
            self._now = value
            self.stores += 1

    bytecodes, calls = Counter(), Counter()
    is_sim = {}   # code object -> whether it is simulator code

    def local(frame, event, _arg):
        if event == "opcode":
            bytecodes[frame.f_code] += 1
        return local

    def tracer(frame, event, _arg):
        code = frame.f_code
        sim = is_sim.get(code)
        if sim is None:
            sim = is_sim[code] = _is_sim(code.co_filename)
        if not sim:
            return None
        calls[code] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    gpu = CountingGPU(config)
    sys.settrace(tracer)
    try:
        stats = gpu.run_application(run.trace, run.classifications)
    finally:
        sys.settrace(None)
    return bytecodes, calls, gpu.stores, stats


def census_app(app, scale, seed):
    """The census of one app: totals first, then per-function counts."""
    from repro.experiments.runner import BENCH_CONFIG
    from repro.sim.core import SMCore
    from repro.sim.memory_partition import MemoryPartition
    from repro.workloads import get_workload

    run = get_workload(app, scale=scale, seed=seed).run(verify=False)
    bytecodes, calls, iterations, stats = replay_counts(run, BENCH_CONFIG)
    functions = {}
    for code in set(bytecodes) | set(calls):
        into = functions.setdefault(_name(code), Counter())
        into["bytecodes"] += bytecodes[code]
        into["calls"] += calls[code]
    return {
        "bytecodes": sum(bytecodes.values()),
        "loop_iterations": iterations,
        "sm_ticks": calls[SMCore.cycle.__code__],
        "partition_ticks": calls[MemoryPartition.cycle.__code__],
        "cycles": stats.cycles,
        "issued_warp_insts": stats.issued_warp_insts,
        "functions": {name: dict(counts)
                      for name, counts in sorted(functions.items())},
    }


def census_workload(workload, apps, scale=None):
    """Per-app census of ``apps`` of ``workload``, summed into workload
    totals and per-function totals; ``scale`` replaces the workload's."""
    seed = workload.input_seeds[0]
    scale = workload.scale if scale is None else scale
    per_app = {app: census_app(app, scale, seed) for app in apps}
    totals = Counter()
    functions = {}
    for result in per_app.values():
        for field in ("bytecodes", "loop_iterations", "sm_ticks",
                      "partition_ticks", "cycles", "issued_warp_insts"):
            totals[field] += result[field]
        for name, counts in result["functions"].items():
            into = functions.setdefault(name, Counter())
            into.update(counts)
    return {
        "scale": scale,
        "seed": seed,
        "total": dict(totals),
        "functions": {name: dict(counts)
                      for name, counts in sorted(functions.items())},
        "apps": per_app,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--apps", help="comma-separated subset of the "
                        "workloads' apps (default: all of them)")
    parser.add_argument("--scale", type=float,
                        help="replace each workload's scale")
    parser.add_argument("--out", help="write the JSON here, not stdout")
    args = parser.parse_args(argv)
    workloads = bench_workloads()
    wanted = args.apps.split(",") if args.apps else None
    report = {}
    for name in SIM_WORKLOADS:
        workload = workloads[name]
        apps = [a for a in workload.apps if wanted is None or a in wanted]
        if apps:
            report[name] = census_workload(workload, apps, args.scale)
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
