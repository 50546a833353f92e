"""End-to-end engine behaviour: resume, sharding, isolation, parallel.

Runs real (tiny-config, scale-0.1) simulations; emulation is shared
through a module-scoped ``runs`` fixture so the module stays cheap.
"""

import json

import pytest

from repro.sweep import (
    SweepEngine,
    SweepError,
    SweepSpec,
    build_config,
    build_report,
    expand,
    point_key,
    report_bytes,
    scan_points,
    simulate_point,
    versions,
)
from repro.sweep.metrics import collect_metrics
from repro.workloads import get_workload

SCALE = 0.1


def make_spec(**overrides):
    base = dict(
        name="engine-test",
        apps=["2mm", "bfs"],
        scales=[SCALE],
        base_config="tiny",
        axes={"l1_size": [1024, 2048]},
        metrics=["cycles", "l1_miss_ratio", "l2_miss_ratio"],
    )
    base.update(overrides)
    return SweepSpec(**base).validate()


@pytest.fixture(scope="module")
def runs():
    """Pre-emulated workload runs shared by every test in the module."""
    return {(name, SCALE): get_workload(name, scale=SCALE).run()
            for name in ("2mm", "bfs")}


def make_engine(out, runs, spec=None, **kw):
    kw.setdefault("use_trace_cache", False)
    kw.setdefault("strict", True)
    return SweepEngine(spec or make_spec(), out, runs=runs, **kw)


def report_for(dirs, spec=None):
    spec = spec or make_spec()
    return report_bytes(build_report(spec, scan_points(dirs)))


class TestRunAndResume:
    def test_fresh_run_writes_everything(self, tmp_path, runs):
        engine = make_engine(tmp_path / "out", runs)
        summary = engine.run()
        assert summary == {**summary, "total": 4, "selected": 4,
                           "computed": 4, "cached": 0, "failed": 0}
        assert (tmp_path / "out" / "sweep.json").is_file()
        assert (tmp_path / "out" / "manifest-shard-1-of-1.json").is_file()
        points = list((tmp_path / "out" / "points").glob("*.json"))
        assert len(points) == 4
        payload = json.loads(points[0].read_text())
        assert payload["versions"] == versions()
        assert set(payload["metrics"]) == {"cycles", "l1_miss_ratio",
                                           "l2_miss_ratio"}
        manifest = json.loads(
            (tmp_path / "out" / "manifest-shard-1-of-1.json").read_text())
        assert manifest["extras"]["points"]["computed"] == 4

    def test_rerun_caches_and_reports_identically(self, tmp_path, runs):
        make_engine(tmp_path / "out", runs).run()
        first = report_for([tmp_path / "out"])
        summary = make_engine(tmp_path / "out", runs).run()
        assert (summary["cached"], summary["computed"]) == (4, 0)
        assert report_for([tmp_path / "out"]) == first

    def test_resume_after_lost_point(self, tmp_path, runs):
        engine = make_engine(tmp_path / "out", runs)
        engine.run()
        first = report_for([tmp_path / "out"])
        victim = engine.point_path(point_key(engine.spec,
                                             expand(engine.spec)[2]))
        victim.unlink()
        summary = make_engine(tmp_path / "out", runs).run()
        assert (summary["computed"], summary["cached"]) == (1, 3)
        assert report_for([tmp_path / "out"]) == first

    def test_stale_version_point_is_recomputed(self, tmp_path, runs):
        engine = make_engine(tmp_path / "out", runs)
        engine.run()
        path = engine.point_path(point_key(engine.spec,
                                           expand(engine.spec)[0]))
        payload = json.loads(path.read_text())
        payload["versions"]["emulator"] = -1
        path.write_text(json.dumps(payload))
        summary = make_engine(tmp_path / "out", runs).run()
        assert summary["computed"] == 1

    def test_out_dir_is_bound_to_its_spec(self, tmp_path, runs):
        make_engine(tmp_path / "out", runs).run()
        other = make_spec(name="other-grid", axes={"l1_size": [4096]})
        with pytest.raises(SweepError, match="different sweep"):
            make_engine(tmp_path / "out", runs, spec=other).run()


class TestSharding:
    def test_shard_outputs_merge_byte_identically(self, tmp_path, runs):
        make_engine(tmp_path / "single", runs).run()
        single = report_for([tmp_path / "single"])

        dirs = []
        for index in (1, 2, 3):
            out = tmp_path / ("shard-%d" % index)
            summary = make_engine(out, runs).run(index, 3)
            assert summary["selected"] in (1, 2)
            dirs.append(out)
        names = [set(p.name for p in (d / "points").glob("*.json"))
                 for d in dirs]
        assert not (names[0] & names[1] or names[0] & names[2]
                    or names[1] & names[2])
        assert sum(len(n) for n in names) == 4
        assert report_for(dirs) == single

    def test_shards_can_share_one_directory(self, tmp_path, runs):
        for index in (1, 2):
            make_engine(tmp_path / "out", runs).run(index, 2)
        assert b'"missing": []' in report_for(
            [tmp_path / "out"]).encode()


class TestPointSemantics:
    def test_semi_l2_point_matches_direct_simulation(self, runs):
        from repro.sim.gpu import GPU

        spec = make_spec(apps=["2mm"], axes={"l2_clusters": [2]},
                         metrics=None)
        point = expand(spec)[0]
        run = runs[("2mm", SCALE)]
        via_engine = simulate_point(spec, point, run)

        config = build_config(spec, point)
        assert config.l2_clusters == 2
        gpu = GPU(config)
        for launch in run.trace:
            gpu.run_launch(launch,
                           run.classifications.get(launch.kernel_name))
        assert via_engine == collect_metrics(gpu.stats)

    def test_injected_runs_match_self_emulation(self, tmp_path, runs):
        spec = make_spec(apps=["2mm"])
        make_engine(tmp_path / "a", runs, spec=spec).run()
        make_engine(tmp_path / "b", None, spec=spec).run()
        assert (report_for([tmp_path / "a"], spec)
                == report_for([tmp_path / "b"], spec))


class TestFaultIsolation:
    def test_nonstrict_records_failures_and_continues(
            self, tmp_path, runs, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_FAULTS", "2mm:emulate")
        partial = {("bfs", SCALE): runs[("bfs", SCALE)]}
        engine = make_engine(tmp_path / "out", partial, strict=False)
        summary = engine.run()
        assert (summary["failed"], summary["computed"]) == (2, 2)
        failed = [o for o in summary["outcomes"] if o.status == "failed"]
        assert all(o.params["app"] == "2mm" for o in failed)
        assert all("InjectedFault" in o.error for o in failed)

    def test_strict_raises_on_first_failure(
            self, tmp_path, runs, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_FAULTS", "2mm:emulate")
        partial = {("bfs", SCALE): runs[("bfs", SCALE)]}
        engine = make_engine(tmp_path / "out", partial, strict=True)
        with pytest.raises(SweepError, match="InjectedFault"):
            engine.run()


class TestParallel:
    def test_parallel_matches_serial(self, tmp_path, runs, monkeypatch):
        # warm a private trace cache so pool workers skip emulation
        monkeypatch.setenv("REPRO_TRACE_CACHE_DIR",
                           str(tmp_path / "cache"))
        make_engine(tmp_path / "serial", None,
                    use_trace_cache=True).run()
        serial = report_for([tmp_path / "serial"])
        summary = make_engine(tmp_path / "parallel", None, jobs=2,
                              use_trace_cache=True).run()
        assert summary["computed"] == 4
        assert report_for([tmp_path / "parallel"]) == serial
