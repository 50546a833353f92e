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

Every counted function belongs to one component of the simulator
(:data:`COMPONENTS`): the SM issue stage, the LD/ST unit with its L1,
the interconnect, the L2 slices with DRAM, the statistics, or the main
loop.  A function goes with its class (a module-level function counts
as its own class), unless :data:`METHODS` names it; methods of the
classes that both cache levels use (:data:`BY_CALLER`) go with their
nearest caller outside those classes and are keyed
``Cache.lookup@l2_dram``.  A function that no table places fails the
census.  The report gives each component's bytecodes and its
bytecodes per issued warp instruction.

The counts depend only on the simulator's code and its input, never on
the host, so two runs give the same numbers.  No wall-clock time is
taken: a traced replay runs tens of times slower than a plain one.
Functions are keyed by qualified name (``SMCore.cycle``).  The
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

COMPONENTS = ("sm_issue", "ldst_l1", "interconnect", "l2_dram", "stats",
              "loop")

#: component of each class of ``repro/sim`` and of each module-level
#: function (keyed by its own name)
CLASSES = {
    # core.py: the issue stage, and the LD/ST unit's in-flight record
    "SMCore": "sm_issue", "_WarpRun": "sm_issue", "_CTASlot": "sm_issue",
    "IssueTable": "sm_issue", "issue_kind": "sm_issue",
    "memory_facts": "sm_issue", "InflightMemInst": "ldst_l1",
    # the requests, their coalescing, and the L1's outcomes
    "MemRequest": "ldst_l1", "Outcome": "ldst_l1", "MemoryPlan": "ldst_l1",
    "CoalescedOps": "ldst_l1", "coalesced": "ldst_l1",
    "_coalesce": "ldst_l1", "coalesce_addresses": "ldst_l1",
    "coalescing_degree": "ldst_l1", "_distinct": "ldst_l1",
    "class_codes": "ldst_l1", "CoalescingSummary": "stats",
    # older checkouts' coalescing functions
    "coalesce_table": "ldst_l1", "coalesce_accesses": "ldst_l1",
    "Interconnect": "interconnect",
    "MemoryPartition": "l2_dram",
    "SimStats": "stats", "ClassStats": "stats", "PCBucket": "stats",
    "class_label": "stats",
    # the loop, launch set-up and CTA dealing
    "GPU": "loop", "SimulationError": "loop", "_format_state": "loop",
    "pc_class_map": "loop", "RoundRobinScheduler": "loop",
    "ClusteredScheduler": "loop", "make_scheduler": "loop",
    "GPUConfig": "loop", "_check_choice": "loop", "knob_names": "loop",
    "check_knobs": "loop",
}

#: the methods that do not go with their class
METHODS = {
    name: "ldst_l1" for name in (
        "SMCore._ldst_cycle", "SMCore._access_l1", "SMCore._schedule",
        "SMCore._prefetch_cycle", "SMCore._pf_push",
        "SMCore._generate_prefetches", "SMCore.receive_response",
        "SMCore._complete_request", "SMCore._finish_inflight",
        "SMCore._record_completion", "SMCore.credit_returned",
        # routes each request to its memory partition
        "GPUConfig.partition_map.<locals>.<lambda>")}

#: classes that serve the L1 and the L2 alike
BY_CALLER = ("Cache", "_Line", "_State", "MSHRTable")


def bench_workloads():
    """``bench_pipeline``'s workload table, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look the module up
    spec.loader.exec_module(module)
    return module.WORKLOADS


def _qualnames():
    """code object -> qualified name, for every function of ``repro/sim``
    (before Python 3.11 a code object has no ``co_qualname``)."""
    import importlib
    import inspect
    import pkgutil
    import types

    import repro.sim

    names = {}

    def add(code, qualname):
        names[code] = qualname
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                add(const, "%s.<locals>.%s" % (qualname, const.co_name))

    def add_function(fn):
        fn = inspect.unwrap(fn)
        if isinstance(fn, types.FunctionType):
            add(fn.__code__, fn.__qualname__)

    for info in pkgutil.iter_modules(repro.sim.__path__):
        module = importlib.import_module("repro.sim." + info.name)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, type):
                for attr in vars(obj).values():
                    if isinstance(attr, (staticmethod, classmethod)):
                        attr = attr.__func__
                    if isinstance(attr, property):
                        for fn in (attr.fget, attr.fset):
                            if fn is not None:
                                add_function(fn)
                    else:
                        add_function(attr)
            else:
                add_function(obj)
    return names


def component(name):
    """The component of the function keyed ``name``, or None when no
    table places it."""
    qualname, _, caller = name.partition("@")
    if caller:
        return caller if qualname.split(".", 1)[0] in BY_CALLER \
            and caller in COMPONENTS else None
    return METHODS.get(qualname) or CLASSES.get(qualname.split(".", 1)[0])


def _is_sim(filename):
    return os.sep + os.path.join("repro", "sim", "") in filename


def replay_counts(run, config):
    """Replay the emulated ``run`` on ``config`` under the tracer.

    Returns ``(bytecodes, calls, loop_iterations, stats)``, the first
    two as Counters keyed by census key (see :func:`component`).
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
    qualnames = _qualnames()
    names = {}   # code object -> census key, None for non-simulator code

    def name_of(code):
        if code not in names:
            names[code] = (qualnames.get(code) or getattr(
                code, "co_qualname", code.co_name)
                if _is_sim(code.co_filename) else None)
        return names[code]

    def key(frame):
        """The census key of a simulator frame: its qualified name, and
        for a class that serves both cache levels, the component of its
        nearest caller outside those classes."""
        name = name_of(frame.f_code)
        if name.split(".", 1)[0] not in BY_CALLER:
            return name
        caller = frame.f_back
        while caller is not None:
            outer = name_of(caller.f_code)
            if outer is None:
                break
            if outer.split(".", 1)[0] not in BY_CALLER:
                return "%s@%s" % (name, component(outer))
            caller = caller.f_back
        return "%s@%s" % (name, None)

    def tracer(frame, event, _arg):
        if name_of(frame.f_code) is None:
            return None
        name = key(frame)
        calls[name] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True

        def local(_frame, event, _arg):
            if event == "opcode":
                bytecodes[name] += 1
            return local
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
    functions = {name: {"bytecodes": bytecodes[name], "calls": calls[name]}
                 for name in sorted(set(bytecodes) | set(calls))}
    return {
        "bytecodes": sum(bytecodes.values()),
        "loop_iterations": iterations,
        "sm_ticks": calls[SMCore.cycle.__qualname__],
        "partition_ticks": calls[MemoryPartition.cycle.__qualname__],
        "cycles": stats.cycles,
        "issued_warp_insts": stats.issued_warp_insts,
        "components": components(functions, stats.issued_warp_insts),
        "functions": functions,
    }


def components(functions, issued):
    """Bytecodes per component of a census' ``functions`` table, in all
    and per issued warp instruction.  Raises when a function has no
    component."""
    unplaced = sorted(name for name in functions if component(name) is None)
    if unplaced:
        raise SystemExit("sim_census: no component for %s; place them in "
                         "CLASSES, METHODS or BY_CALLER"
                         % ", ".join(unplaced))
    totals = Counter()
    for name, counts in functions.items():
        totals[component(name)] += counts["bytecodes"]
    return {name: {"bytecodes": totals[name],
                   "per_issued_warp_inst": round(
                       totals[name] / max(issued, 1), 3)}
            for name in COMPONENTS}


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
    functions = {name: dict(counts)
                 for name, counts in sorted(functions.items())}
    return {
        "scale": scale,
        "seed": seed,
        "total": dict(totals),
        "components": components(functions, totals["issued_warp_insts"]),
        "functions": functions,
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
