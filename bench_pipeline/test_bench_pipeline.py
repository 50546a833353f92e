"""Self-test of the pipeline benchmark harness.

    python -m pytest bench_pipeline/test_bench_pipeline.py

runs ``run.py --smoke`` (two apps per workload, one set-up and one
pass, two when traced; about half a minute) and checks what the
benchmark promises: every declared metric is emitted with its unit,
deterministic counts repeat across traced passes, and a wrong digest
counts as a failed job.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

from host import (  # noqa: E402
    REFERENCE_NS, SENSITIVITY, HostClock, at_reference, window)
from jobs import WORKLOADS, Job, Pass, job_order  # noqa: E402
from metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, end_to_end, nearest_rank)

#: per-layer counts a traced pass must reproduce exactly.
DETERMINISTIC = ("sim.sm_cycle.calls", "sim.partition_cycle.calls",
                 "sim.loop_iterations", "sim.l1.lookups", "sim.l2.lookups",
                 "sim.stats.record_calls", "sim.cycles", "sim.dram.reads")


def _run(*args, timeout=600):
    proc = subprocess.run([sys.executable, RUN, *args], capture_output=True,
                          text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return proc


def test_nearest_rank_uses_ceil_of_p_times_n():
    values = list(range(30, 0, -1))
    # rank ceil(0.5 * 30) = 15; round(p * n + 0.5) would give the 16th
    assert nearest_rank(values, 50) == 15
    assert nearest_rank(values, 90) == 27
    # 0.7 * 10 is 7.000000000000001 in floating point: still rank 7
    assert nearest_rank(range(1, 11), 70) == 7
    assert nearest_rank([4.0], 90) == 4.0
    with pytest.raises(ValueError):
        nearest_rank([], 50)


def test_a_job_counts_once_at_the_median_of_its_runs():
    passes = [Pass(wall_s=0, jobs=[Job("a", 100.0), Job("b", 400.0)]),
              Pass(wall_s=0, jobs=[Job("b", 300.0), Job("a", 900.0)]),
              Pass(wall_s=0, jobs=[Job("a", 100.0), Job("b", 400.0)])]
    values = end_to_end(passes, [2.0, 1.0, 3.0], 50.0)
    # a: 100 ms, b: 400 ms
    assert values["jobs_per_s"] == pytest.approx(2 / 0.5)
    assert values["job_ms_geomean"] == pytest.approx(200.0)
    assert values["setup_s"] == 2.0 and values["peak_rss_mb"] == 50.0


def test_times_scale_by_the_median_probe_speed():
    assert at_reference(1e9, [REFERENCE_NS]) == 1.0
    # three probes at half speed and one at full: the median rules
    assert at_reference(3e9, [2 * REFERENCE_NS] * 3 + [REFERENCE_NS]) \
        == pytest.approx(3 / 2 ** SENSITIVITY)
    samples = [(1.0, 10), (2.0, 20), (3.0, 30), (4.0, 40)]
    # the probes inside, one on each side, and the time of those inside
    assert window(samples, 1.5, 3.5) == ([10, 20, 30, 40], 50)
    assert window(samples, 2.0, 2.0) == ([10, 20, 30], 20)


def test_host_clock_probes_while_a_job_runs():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    with HostClock() as clock:
        _result, wall_s, reference_s = clock.time(busy, 0.1)
    # a probe every 10 ms, and one just before and after
    assert len(clock.samples) >= 6
    assert wall_s >= 0.1 and 0 < reference_s < 2 * wall_s
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_seed_only_shuffles_the_job_order():
    jobs = ["bfs", "sssp", "ccl", "mst", "mis"]
    orders = {tuple(job_order(jobs, seed, 0)) for seed in range(10)}
    assert len(orders) > 1
    assert all(sorted(order) == sorted(jobs) for order in orders)
    assert job_order(jobs, 3, 1) == job_order(jobs, 3, 1)


def test_benchmark_json_declares_what_run_emits():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    _run("--smoke", "--out", str(out))
    with open(out / "report.json") as fh:
        return out, json.load(fh)


def test_every_declared_metric_is_emitted_with_its_unit(smoke):
    _out, report = smoke
    assert set(report) == set(WORKLOADS)
    for runs in report.values():
        for mode, table in (("untraced", END_TO_END), ("traced", PER_LAYER)):
            result = runs[mode]
            assert result["correct"] and result["failed"] == 0
            assert result["attempted"] >= 1
            assert set(result["metrics"]) == set(table)
            for name, metric in result["metrics"].items():
                assert math.isfinite(metric["value"]), name
                assert metric["unit"] == table[name], name


def test_deterministic_counts_repeat_across_traced_passes(smoke):
    out, _report = smoke
    for name, workload in WORKLOADS.items():
        if workload.kind == "service":
            continue
        with open(out / ("%s.trace1.json" % name)) as fh:
            passes = json.load(fh)["passes"]
        assert len(passes) == 2
        first, second = passes
        assert first["counts"] == second["counts"]
        for metric in DETERMINISTIC:
            assert first["layers"][metric] == second["layers"][metric]
        if workload.kind == "sim":
            assert first["layers"]["sim.cycles"] > 0


def test_without_the_pipeline_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench_pipeline")
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench_pipeline/run.py", "--workload",
         "sim-irregular", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_a_wrong_digest_is_a_failed_job(tmp_path):
    with open(os.path.join(HERE, "pipeline_expected.json")) as fh:
        expected = json.load(fh)
    workload = WORKLOADS["sim-irregular"]
    key = "%s@%d" % (workload.smoke_apps[0], workload.input_seeds[0])
    expected["digests"][workload.name][key] = "0" * 64
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    proc = _run("--workload", workload.name, "--smoke", "--out",
                str(tmp_path), "--expected", str(path))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == 1
    with open(tmp_path / ("%s.trace0.json" % workload.name)) as fh:
        report = json.load(fh)
    assert report["error_rate"] == 1 / result["attempted"]
