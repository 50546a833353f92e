"""A job does its fixed work once.

The PTX front end, the kernel's static facts and the trace profile do
not change from launch to launch, so one application job needs them
once: one parse and one print of its PTX (shared by the trace-cache
key, emulation, the cache write and the cache load), one
classification and one CFG per kernel, and one profile pass over the
whole application (gaus's launches record fewer accesses than one
profile batch, ``FOLD_ACCESSES``).  These tests count the calls of one
gaus job (14 launches of 2 kernels), once as a trace-cache miss and
once as a hit.

A call is counted only when its caller is not itself a call of the
same kind, so a wrapper and the work it delegates to count once.
"""

import sys
from collections import Counter

import pytest

from repro.core import classifier
from repro.experiments.runner import ExperimentRunner
from repro.obs.tracing import Tracer, use_tracer
from repro.profiling.trace_profile import TraceProfiler
from repro.ptx import cfg, parser, printer

APP = "gaus"
SCALE = 0.05
KERNELS = 2
LAUNCHES = 14


def _watched():
    """code object -> the kind of fixed work its calls count as."""
    kinds = {
        parser.Parser.parse_module: "parse_module",
        printer.print_module: "print_module",
        classifier.classify_kernel: "classify_kernel",
        cfg.CFG.__init__: "cfg",
        TraceProfiler.analyze_launch: "profile_pass",
        TraceProfiler.fold: "profile_pass",
    }
    return {fn.__code__: kind for fn, kind in kinds.items()}


def count_fixed_work(fn, *args):
    """``(fn(*args), Counter of outermost calls per kind)``."""
    watched = _watched()
    counts = Counter()

    def hook(frame, event, _arg):
        if event != "call":
            return
        kind = watched.get(frame.f_code)
        if kind is None:
            return
        caller = frame.f_back
        if caller is not None and watched.get(caller.f_code) == kind:
            return
        counts[kind] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(previous)
    return result, counts


ONCE = {
    "parse_module": 1,
    "print_module": 1,
    "classify_kernel": KERNELS,
    "cfg": KERNELS,
    "profile_pass": 1,
}


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE_DIR", str(tmp_path / "traces"))
    monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
    return tmp_path / "traces"


def _job():
    runner = ExperimentRunner(scale=SCALE, simulate=False,
                              use_trace_cache=True)
    return runner.result(APP)


def test_cold_and_warm_jobs_do_fixed_work_once(cache_dir):
    cold, cold_counts = count_fixed_work(_job)
    assert cold.meta["trace_cache"] == "miss"
    assert len(cold.trace.launches) == LAUNCHES
    assert dict(cold_counts) == ONCE

    warm, warm_counts = count_fixed_work(_job)
    assert warm.meta["trace_cache"] == "hit"
    assert dict(warm_counts) == ONCE
    assert warm.locality == cold.locality
    assert warm.coalescing == cold.coalescing


@pytest.mark.parametrize("cached", [False, True], ids=["miss", "hit"])
def test_each_stage_span_once_per_job(cache_dir, cached):
    """The ``parse`` span wraps the job's one parse on a hit and on a
    miss; no stage span appears twice under the job's ``app`` span."""
    if cached:
        _job()
    tracer = Tracer()
    with use_tracer(tracer):
        _job()
    (app,) = [root for root in tracer.roots if root.name == "app"]
    stages = Counter(child.name for child in app.children)
    assert stages["parse"] == 1
    assert stages["profile"] == 1
    assert max(stages.values()) == 1
    expect = {"parse", "profile"} if cached else {
        "parse", "classify", "setup", "emulate", "verify", "profile"}
    assert set(stages) == expect
