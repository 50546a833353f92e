"""The one trace-profile pass against its one-op-at-a-time reference.

:meth:`TraceProfiler.fold` (one coalesced table and one set of
vectorized bookkeeping over any number of launches) must leave exactly
the state :meth:`TraceProfiler._analyze_record_warp` leaves when it
walks the same launches' record views op by op: per-line access
counts, CTA sets, last CTA and tick, per-(line, PC) counts, per-PC
aggregates, reuse buckets, CTA distances by class and the request
histograms.  The comparison runs after every launch folded alone
(:meth:`TraceProfiler.analyze_launch`), so the state carried from one
launch into the next is checked too, and again after one fold of the
whole application, and of the application in two parts.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.emulator.grid import make_launch
from repro.emulator.trace import ApplicationTrace, TraceOp
from repro.profiling import trace_profile
from repro.profiling.trace_profile import TraceProfiler, profile_trace
from repro.ptx.isa import PC_STRIDE, DType, Instruction, MemRef, Reg, Space
from repro.sim.coalescer import pc_class_map
from repro.workloads import get_workload

from tests.traces import build_launch


def state(profiler):
    """Everything a profiler carries, as plain comparable values."""
    return {
        "lines": {line: (h.accesses, sorted(h.ctas), h.last_cta,
                         h.last_idx, dict(h.pcs))
                  for line, h in profiler.lines.items()},
        "pcs": {key: (h.warp_ops, h.lane_accesses, h.line_touches,
                      h.cold_misses, h.max_lines_per_op,
                      dict(h.reuse_hist))
                for key, h in profiler.pcs.items()},
        "reuse": dict(profiler.reuse),
        "tick": profiler.tick,
        "locality": {
            "total_accesses": profiler.locality.total_accesses,
            "cold_misses": profiler.locality.cold_misses,
            "distance_hist": dict(profiler.locality.distance_hist),
            "by_class": {label: dict(hist) for label, hist in
                         profiler.locality.distance_hist_by_class.items()},
        },
        "requests": {label: dict(hist) for label, hist in
                     profiler.coalescing.histogram.items()},
    }


def assert_pass_matches_reference(app_trace, classifications, line_bytes=128):
    """Feed both paths launch by launch; compare state after each and
    the finalized reports at the end."""
    fast, ref = TraceProfiler(line_bytes), TraceProfiler(line_bytes)
    for launch in app_trace:
        result = classifications.get(launch.kernel_name)
        fast.analyze_launch(launch, result)
        for warp in launch.warps:
            ref._analyze_record_warp(launch.kernel_name, warp,
                                     pc_class_map(result))
        assert state(fast) == state(ref)
    whole = TraceProfiler(line_bytes)
    whole.fold(app_trace, classifications)
    assert state(whole) == state(ref)
    launches = list(app_trace)
    halves = TraceProfiler(line_bytes)
    halves.fold(launches[:len(launches) // 2], classifications)
    halves.fold(launches[len(launches) // 2:], classifications)
    assert state(halves) == state(ref)
    got, want = fast.report(classifications), ref.report(classifications)
    assert dataclasses.asdict(got.locality) == \
        dataclasses.asdict(want.locality)
    assert got.heatmap.to_json() == want.heatmap.to_json()
    assert got.heatmap.render() == want.heatmap.render()
    return got


@pytest.fixture(scope="module")
def mis_run():
    return get_workload("mis", scale=0.25).run(verify=False)


class TestWorkloadsAgainstReference:
    @pytest.mark.parametrize("fixture", ["bfs_run", "mis_run", "twomm_run"])
    def test_every_launch_matches(self, fixture, request):
        run = request.getfixturevalue(fixture)
        assert len(run.trace) >= 2
        got = assert_pass_matches_reference(run.trace, run.classifications)
        assert got.locality.total_accesses > 0

    @pytest.mark.parametrize("floor", [1, 4096, 1 << 30])
    def test_profile_trace_batches_fold_alike(self, bfs_run, floor,
                                              monkeypatch):
        """``profile_trace`` folds consecutive launches in batches that
        record no more accesses than the largest launch or
        ``FOLD_ACCESSES``, and reports what launch-by-launch folding
        reports."""
        monkeypatch.setattr(trace_profile, "FOLD_ACCESSES", floor)
        folds = []
        fold = TraceProfiler.fold

        def counting(self, launches, classifications=None):
            folds.append(list(launches))
            return fold(self, launches, classifications)

        monkeypatch.setattr(TraceProfiler, "fold", counting)
        run = bfs_run
        profile = profile_trace(run.trace, run.classifications)
        launches = list(run.trace)
        sizes = [len(launch.addrs) for launch in launches]
        limit = max(sizes + [floor])
        assert [launch for batch in folds for launch in batch] == launches
        assert all(sum(len(launch.addrs) for launch in batch) <= limit
                   for batch in folds)
        if floor == 1 << 30:
            assert len(folds) == 1
        else:
            assert 1 < len(folds) < len(launches)
        stepwise = TraceProfiler()
        for launch in launches:
            stepwise.analyze_launch(
                launch, run.classifications.get(launch.kernel_name))
        want = stepwise.report(run.classifications)
        assert profile.heatmap.to_json() == want.heatmap.to_json()
        assert profile.locality == want.locality
        assert profile.coalescing == want.coalescing

    def test_three_reports_count_the_same_accesses(self, bfs_run):
        profile = profile_trace(bfs_run.trace, bfs_run.classifications)
        assert (profile.locality.total_accesses
                == profile.heatmap.total_touches
                == sum(profile.coalescing.requests.values()))
        assert profile.locality.num_blocks == profile.heatmap.num_lines


# -- generated launches ----------------------------------------------------

#: pc index -> (opcode, space, vector width); indices 0-3 are global
#: loads (two classified D, two N), 4 a global store, 5 a shared load.
_OPS = [("ld", Space.GLOBAL, 1), ("ld", Space.GLOBAL, 2),
        ("ld", Space.GLOBAL, 4), ("ld", Space.GLOBAL, 1),
        ("st", Space.GLOBAL, 1), ("ld", Space.SHARED, 1)]
_CLASSES = {i * PC_STRIDE: c for i, c in enumerate("DNND")}


def _inst(index):
    opcode, space, vector = _OPS[index]
    regs = tuple(Reg("%%r%d" % i) for i in range(vector))
    addr = (MemRef(Reg("%rd1")),)
    inst = Instruction(opcode=opcode, dtype=DType.U32, space=space,
                       vector=vector,
                       dests=regs if opcode == "ld" else (),
                       srcs=addr if opcode == "ld" else addr + regs)
    inst.pc = index * PC_STRIDE
    return inst


_INSTS = [_inst(i) for i in range(len(_OPS))]

#: one warp op: a pc index and its lanes' byte addresses (an empty list
#: is an op whose lanes were all predicated off).
_op = st.tuples(st.integers(0, len(_OPS) - 1),
                st.lists(st.integers(0, 2047), max_size=6))
_warp = st.tuples(st.integers(0, 5), st.lists(_op, max_size=5))
_launch = st.tuples(st.sampled_from(["k", "j"]),
                    st.lists(_warp, min_size=1, max_size=5))


def _build(kernel, warps):
    built = []
    for warp_id, (cta, ops) in enumerate(warps):
        trace_ops = []
        for index, addrs in ops:
            mask = (1 << len(addrs)) - 1
            values = (0,) * len(addrs) if _OPS[index][0] == "st" else None
            trace_ops.append(TraceOp(_INSTS[index], mask,
                                     tuple(enumerate(addrs)), values))
        built.append((cta, warp_id, trace_ops))
    return build_launch(built, config=make_launch(6, 32),
                        kernel_name=kernel, instructions=_INSTS)


class TestGeneratedLaunches:
    @given(st.lists(_launch, min_size=1, max_size=3),
           st.sampled_from([32, 128]))
    @settings(max_examples=60, deadline=None)
    def test_pass_matches_reference(self, launches, line_bytes):
        app = ApplicationTrace("gen")
        for kernel, warps in launches:
            app.add(_build(kernel, warps))
        # "j" runs unclassified: its loads land in "other"
        assert_pass_matches_reference(app, {"k": _CLASSES}, line_bytes)

    def test_generator_reaches_the_corners(self):
        """One hand-picked launch with every corner the property
        draws: a .v4 access across a line, a fully predicated-off load,
        a store and a shared load (neither counted), several CTAs."""
        launch = _build("k", [(0, [(2, [120]), (1, []), (4, [0])]),
                              (3, [(5, [0]), (0, [0, 4]), (2, [0])])])
        app = ApplicationTrace("corners")
        app.add(launch)
        got = assert_pass_matches_reference(app, {"k": _CLASSES})
        assert got.coalescing.histogram["N"] == {2: 1, 1: 1}
        assert got.heatmap.pcs[("k", PC_STRIDE)].warp_ops == 1
        assert got.heatmap.pcs[("k", PC_STRIDE)].line_touches == 0
        assert ("k", 4 * PC_STRIDE) not in got.heatmap.pcs
        assert got.locality.distance_hist == {3: 1}
