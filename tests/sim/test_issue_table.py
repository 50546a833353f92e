"""The issue stage's per-launch decode (:class:`repro.sim.core.IssueTable`)
against the instructions it was decoded from, on every kernel of every
workload."""

import pytest

from repro.emulator.columnar import ColumnarLaunchTrace
from repro.ptx import parse_module
from repro.ptx.isa import PC_STRIDE, Unit
from repro.sim import GPU, TINY
from repro.sim.core import (
    ISSUE_BARRIER, ISSUE_CTRL, ISSUE_MEMORY, ISSUE_SFU, ISSUE_SP, IssueTable)
from repro.workloads import get_workload, workload_names


def kernels():
    for app in workload_names(include_extended=True):
        for kernel in parse_module(get_workload(app, scale=0.05).ptx()):
            yield pytest.param(kernel, id="%s/%s" % (app, kernel.name))


@pytest.mark.parametrize("kernel", kernels())
def test_table_decodes_back_to_the_instructions(kernel):
    table = IssueTable(kernel.instructions)
    assert len(table.entries) == len(kernel.instructions)
    assert len(set(table.reg_names)) == len(table.reg_names)
    for inst in kernel.instructions:
        kind, hazard, writes, decoded = table.entries[inst.pc // PC_STRIDE]
        assert decoded is inst
        assert set(table.names(hazard)) == (
            set(inst.read_reg_names) | set(inst.write_reg_names))
        assert set(table.names(writes)) == set(inst.write_reg_names)
        assert writes & ~hazard == 0
        if inst.is_memory:
            assert kind == ISSUE_MEMORY
        elif inst.unit is Unit.SP:
            assert kind == ISSUE_SP
        elif inst.unit is Unit.SFU:
            assert kind == ISSUE_SFU
        else:
            assert inst.unit is Unit.CTRL
            assert kind == (ISSUE_BARRIER if inst.is_barrier else ISSUE_CTRL)


def test_names_lists_bits_in_order():
    kernel = next(iter(parse_module(get_workload("2mm", scale=0.05).ptx())))
    table = IssueTable(kernel.instructions)
    every = (1 << len(table.reg_names)) - 1
    assert table.names(every) == table.reg_names
    assert table.names(0) == []


def test_gpu_decodes_each_kernel_once():
    """Launches of one kernel share its instruction list and so one
    table; an equal list that is another object gets its own."""
    run = get_workload("lu", scale=0.05).run(verify=False)
    gpu = GPU(TINY)
    tables = {}
    for launch in run.trace:
        gpu.run_launch(launch, run.classifications[launch.kernel_name])
        tables.setdefault(launch.kernel_name, set()).add(
            id(gpu.sms[0].issue_table))
    assert len(tables) > 1
    assert all(len(ids) == 1 for ids in tables.values())
    launch = next(iter(run.trace))
    copy = ColumnarLaunchTrace(launch.kernel_name, launch.config,
                               tuple(launch.instructions))
    gpu.run_launch(copy.seal())
    assert id(gpu.sms[0].issue_table) not in tables[launch.kernel_name]
