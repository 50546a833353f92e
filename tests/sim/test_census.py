"""The simulator census script counts the same work on every run.

``benchmarks/sim_census.py`` produces the executed-bytecode, call and
loop-iteration counts that the committed BENCH files record.  Those
counts are only evidence if they repeat exactly: this runs the script
twice, in separate processes, on one small app and compares the
reports.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
CENSUS = os.path.join(ROOT, "benchmarks", "sim_census.py")


def run_census(out):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, CENSUS, "--apps", "dwt",
                    "--scale", "0.05", "--out", str(out)],
                   check=True, env=env, timeout=300)
    with open(out) as f:
        return json.load(f)


def test_census_counts_repeat_exactly(tmp_path):
    first = run_census(tmp_path / "first.json")
    second = run_census(tmp_path / "second.json")
    assert first == second
    assert list(first) == ["sim-regular"]
    report = first["sim-regular"]
    assert list(report["apps"]) == ["dwt"]
    dwt = report["apps"]["dwt"]
    assert dwt["bytecodes"] > dwt["sm_ticks"] > 0
    assert dwt["loop_iterations"] > 0 and dwt["partition_ticks"] > 0
    functions = dwt["functions"]
    assert report["total"]["bytecodes"] == dwt["bytecodes"] == sum(
        f["bytecodes"] for f in functions.values())
    # the ticks are the calls of the two tick functions, SMCore.cycle
    # and MemoryPartition.cycle (keyed by bare name before Python 3.11)
    assert sum(f["calls"] for name, f in functions.items()
               if name.rsplit(".", 1)[-1] == "cycle") == (
        dwt["sm_ticks"] + dwt["partition_ticks"])
