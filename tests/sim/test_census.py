"""The census scripts count the same work on every run.

``benchmarks/sim_census.py`` produces the executed-bytecode, call and
loop-iteration counts, per function and per simulator component, that
the committed BENCH files record and CI's perf gate compares;
``benchmarks/fixed_work_census.py`` counts each workload pass's
parses, prints, classifications and table builds.  Those counts are
only evidence if they repeat exactly: these tests run each script
twice, in separate processes, on a small input and compare the
reports.
"""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir)
CENSUS = os.path.join(ROOT, "benchmarks", "sim_census.py")
FIXED_WORK = os.path.join(ROOT, "benchmarks", "fixed_work_census.py")


def run_script(script, out, *args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, script, *args, "--out", str(out)],
                   check=True, env=env, timeout=300,
                   stdout=subprocess.DEVNULL)
    with open(out) as f:
        return json.load(f)


@pytest.fixture(scope="module")
def sim_census():
    spec = importlib.util.spec_from_file_location("sim_census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def dwt_reports(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("census")
    return [run_script(CENSUS, tmp / name, "--apps", "dwt",
                       "--scale", "0.05")
            for name in ("first.json", "second.json")]


def test_census_counts_repeat_exactly(dwt_reports):
    first, second = dwt_reports
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
    # the ticks are the calls of the two tick functions
    assert functions["SMCore.cycle"]["calls"] == dwt["sm_ticks"]
    assert functions["MemoryPartition.cycle"]["calls"] == (
        dwt["partition_ticks"])


def test_every_counted_function_has_one_component(dwt_reports, sim_census):
    dwt = dwt_reports[0]["sim-regular"]["apps"]["dwt"]
    by_component = dict.fromkeys(sim_census.COMPONENTS, 0)
    for name, counts in dwt["functions"].items():
        component = sim_census.component(name)
        assert component in sim_census.COMPONENTS, name
        by_component[component] += counts["bytecodes"]
    assert {name: entry["bytecodes"]
            for name, entry in dwt["components"].items()} == by_component
    assert sum(by_component.values()) == dwt["bytecodes"]
    assert all(by_component.values()), by_component
    issued = dwt["issued_warp_insts"]
    assert dwt["components"]["sm_issue"]["per_issued_warp_inst"] == round(
        by_component["sm_issue"] / issued, 3)
    # both cache levels' lookups are counted, each with its own level
    assert {"Cache.lookup@ldst_l1", "Cache.lookup@l2_dram"} <= set(
        dwt["functions"])


def test_component_placement(sim_census):
    component = sim_census.component
    # the issue stage's functions of earlier checkouts have a place too
    assert component("SMCore._issue") == "sm_issue"
    assert component("SMCore._pop_events") == "sm_issue"
    assert component("SMCore._ldst_cycle") == "ldst_l1"
    assert component("Cache.lookup@l2_dram") == "l2_dram"
    assert component("Cache.lookup") is None
    assert component("Interconnect.lookup@ldst_l1") is None
    assert component("Mystery.method") is None
    with pytest.raises(SystemExit, match="Mystery.method"):
        sim_census.components(
            {"SMCore.cycle": {"bytecodes": 1, "calls": 1},
             "Mystery.method": {"bytecodes": 1, "calls": 1}}, 1)


def test_fixed_work_counts_repeat_exactly(tmp_path):
    first, second = [
        run_script(FIXED_WORK, tmp_path / name,
                   "--workloads", "sim-irregular")
        for name in ("first.json", "second.json")]
    assert first == second
    counts = first["sim-irregular"]
    assert counts["jobs"] == len(counts["per_job"]) > 0
    assert counts["total"]["parse_module"] == counts["jobs"]
