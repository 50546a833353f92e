"""Emulation output does not depend on the interpreter's hash seed.

The ISA enums (:class:`repro.ptx.isa.DType`, :class:`repro.ptx.isa.Space`)
hash by identity, so the iteration order of any set holding them follows
heap addresses, which differ between processes.  This suite emulates two
apps in two child processes with different ``PYTHONHASHSEED`` values and
requires byte-identical trace containers and classification reports: an
unordered collection whose order reached an output would show here.
"""

import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.golden

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")

APPS = ("gaus", "bfs")
SCALE = 0.05

_CHILD = """\
import sys
from repro.core import format_kernel_report
from repro.emulator.serialize import save_run
from repro.workloads import get_workload

out, scale = sys.argv[1], float(sys.argv[2])
for app in sys.argv[3:]:
    run = get_workload(app, scale=scale).run()
    save_run(run, "%s/%s.trace" % (out, app))
    with open("%s/%s.report" % (out, app), "w") as fh:
        for name, result in run.classifications.items():
            counts = run.trace.dynamic_counts_by_pc(name)
            fh.write(format_kernel_report(result, counts) + "\\n\\n")
"""


def _emulate(out, hash_seed):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(hash_seed))
    os.makedirs(out)
    subprocess.run([sys.executable, "-c", _CHILD, out, str(SCALE)]
                   + list(APPS), env=env, check=True, timeout=300)
    files = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


def test_outputs_identical_across_hash_seeds(tmp_path):
    first = _emulate(str(tmp_path / "seed0"), 0)
    second = _emulate(str(tmp_path / "seed1"), 1)
    assert sorted(first) == sorted(
        "%s.%s" % (app, ext) for app in APPS for ext in ("trace", "report"))
    for name in first:
        assert first[name], name
        assert first[name] == second[name], name
