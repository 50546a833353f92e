"""The traced per-layer split must find every simulator entry point.

``bench_pipeline/layers.py`` wraps simulator methods by name and skips a
name it cannot find, so a renamed or inlined entry point would leave its
timer reading 0 without any error.  This test installs those
instruments, checks that every simulator target was wrapped and that a
simulation calls each of them, then uninstalls them.
"""

import importlib.util
import os

import pytest

from repro.sim.cache import Cache
from repro.sim.config import TINY
from repro.sim.core import SMCore
from repro.sim.gpu import GPU
from repro.sim.icnt import Interconnect
from repro.sim.memory_partition import MemoryPartition
from repro.sim.stats import SimStats
from tests.sim_matrix import simulate

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                      "bench_pipeline", "layers.py")

#: the methods the per-layer split times, patched on the class
TARGETS = [(SMCore, "cycle"), (SMCore, "receive_response"),
           (MemoryPartition, "cycle"), (MemoryPartition, "receive"),
           (Interconnect, "deliver_ready"), (Interconnect, "inject"),
           (Cache, "__init__")] + [
    (SimStats, name) for name in sorted(vars(SimStats))
    if name.startswith("record_")]


@pytest.fixture
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_simulator_entry_point_is_wrapped(layers):
    originals = {target: getattr(*target) for target in TARGETS}
    instruments = layers.Instruments().install()
    try:
        for (owner, attr), original in originals.items():
            wrapped = getattr(owner, attr)
            assert getattr(wrapped, "__wrapped__", None) is original, \
                "%s.%s is not wrapped" % (owner.__name__, attr)
        # a cache built now gets its own timed lookup
        assert Cache(1, 1, 128, 1, 1).lookup.__wrapped__
        simulate("bfs", GPU(TINY))
        timers = instruments.timers
        for name in layers.SIM_TIMERS:
            assert name in timers and timers[name].calls > 0, \
                "timer %s read nothing" % name
    finally:
        instruments.uninstall()
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original
