"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.workloads import workload_names


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestList:
    def test_lists_all_apps(self):
        code, text = run_cli("list")
        assert code == 0
        for name in workload_names():
            assert name in text


class TestClassify:
    def test_classify_workload(self):
        code, text = run_cli("classify", "spmv")
        assert code == 0
        assert "non-deterministic" in text
        assert "[%s]" % "N" not in text  # report format uses columns
        assert "N " in text or " N" in text

    def test_classify_file(self, tmp_path):
        ptx = tmp_path / "k.ptx"
        ptx.write_text("""
        .entry k ( .param .u64 a )
        {
            ld.param.u64 %rd1, [a];
            ld.global.u32 %r1, [%rd1];
            exit;
        }
        """)
        code, text = run_cli("classify", "--file", str(ptx))
        assert code == 0
        assert "kernel k" in text
        assert "1 deterministic" in text

    def test_classify_requires_target(self):
        code, text = run_cli("classify")
        assert code == 2


class TestRun:
    def test_run_reports_characteristics(self):
        code, text = run_cli("run", "2mm", "--scale", "0.25")
        assert code == 0
        assert "warp instructions" in text
        assert "PASS" in text

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("run", "nonsense")


class TestSimulate:
    def test_simulate_prints_stats_and_critical_loads(self):
        code, text = run_cli("simulate", "spmv", "--scale", "0.25",
                             "--l1-kb", "2", "--top", "3")
        assert code == 0
        assert "simulated" in text
        assert "critical loads" in text
        assert "[N]" in text

    def test_simulate_with_options(self):
        code, text = run_cli("simulate", "bfs", "--scale", "0.25",
                             "--scheduler", "gto",
                             "--prefetcher", "indirect_oracle",
                             "--cta-policy", "clustered")
        assert code == 0
        assert "prefetches issued" in text


class TestFigures:
    def test_figures_writes_outputs(self, tmp_path):
        code, text = run_cli("figures", "--apps", "2mm", "--scale",
                             "0.25", "--out", str(tmp_path / "res"))
        assert code == 0
        out_dir = tmp_path / "res"
        assert (out_dir / "results.json").exists()
        assert (out_dir / "fig1.txt").exists()
        assert "2mm" in (out_dir / "fig1.txt").read_text()


class TestVerify:
    BAD = """
    .entry k ( .param .u64 a )
    {
        ld.param.u64 %rd1, [a];
        add.u64 %rd2, %rd1, %rd9;
        exit;
    }
    """

    def test_verify_clean_workload(self):
        code, text = run_cli("verify", "bfs")
        assert code == 0
        assert "0 error(s), 0 warning(s)" in text

    def test_verify_flags_bad_file_with_location(self, tmp_path):
        ptx = tmp_path / "bad.ptx"
        ptx.write_text(self.BAD)
        code, text = run_cli("verify", "--file", str(ptx))
        assert code == 1
        assert "undefined-register" in text
        assert "k+0x8" in text
        assert "%rd9" in text
        assert "1 error(s)" in text

    def test_verify_requires_target(self):
        code, text = run_cli("verify")
        assert code == 2


class TestTrace:
    def test_trace_renders_pipeline_timeline(self):
        code, text = run_cli("trace", "bfs", "--scale", "0.1")
        assert code == 0
        for stage in ("pipeline", "parse", "emulate", "simulate",
                      "profile"):
            assert stage in text
        assert "app=bfs" in text
        assert "ms" in text

    def test_trace_out_writes_chrome_trace_json(self, tmp_path):
        import json

        path = tmp_path / "t.json"
        code, text = run_cli("trace", "bfs", "--scale", "0.1",
                             "--trace-out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        spans = {e["name"]: e for e in events if e["ph"] == "X"}
        # the acceptance criterion: nested parse/emulate/simulate/
        # profile spans inside the pipeline span
        for name in ("pipeline", "parse", "emulate", "simulate",
                     "profile"):
            assert name in spans, "missing span %r" % name
        pipeline = spans["pipeline"]
        for name in ("parse", "emulate", "simulate", "profile"):
            inner = spans[name]
            assert pipeline["ts"] <= inner["ts"]
            assert (inner["ts"] + inner["dur"]
                    <= pipeline["ts"] + pipeline["dur"] + 1e-6)
        # Chrome/Perfetto essentials present on every event
        for e in events:
            if e["ph"] == "X":
                assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(e)

    def test_trace_no_simulate_skips_sim_span(self):
        code, text = run_cli("trace", "bfs", "--scale", "0.1",
                             "--no-simulate")
        assert code == 0
        assert "emulate" in text
        assert "simulate" not in text


class TestMetrics:
    def test_export_json_matches_figures_inputs(self):
        import json

        from repro.experiments.figures import fig1_data
        from repro.experiments.runner import ExperimentRunner

        code, text = run_cli("metrics", "export", "--apps", "bfs",
                             "--scale", "0.1")
        assert code == 0
        snap = json.loads(text)
        counter = snap["counters"]["app.loads.dynamic"]
        det = counter["app=bfs,load_category=D"]
        nondet = counter["app=bfs,load_category=N"]
        result = ExperimentRunner(scale=0.1).result("bfs")
        assert (det, nondet) == result.run.dynamic_class_split()
        total = det + nondet
        assert (det / total, nondet / total) == fig1_data([result])["bfs"]

    def test_export_prometheus_format(self, tmp_path):
        path = tmp_path / "metrics.prom"
        code, text = run_cli("metrics", "export", "--apps", "bfs",
                             "--scale", "0.1", "--format", "prom",
                             "--out", str(path))
        assert code == 0
        prom = path.read_text()
        assert "# TYPE repro_app_loads_dynamic_total counter" in prom
        assert 'app="bfs"' in prom


class TestFiguresManifest:
    def test_figures_writes_run_manifest(self, tmp_path):
        import json

        code, text = run_cli("figures", "--apps", "2mm", "--scale",
                             "0.25", "--out", str(tmp_path / "res"))
        assert code == 0
        manifest = json.loads(
            (tmp_path / "res" / "manifest.json").read_text())
        assert manifest["command"] == "figures"
        assert manifest["arguments"]["apps"] == ["2mm"]
        [record] = manifest["apps"]
        assert record["name"] == "2mm"
        assert record["status"] == "ok"
        assert record["wall_seconds"] > 0
        assert manifest["summary"]["completed"] == 1
        assert "app.loads.dynamic" in manifest["metrics"]["counters"]


@pytest.mark.faults
class TestFiguresDegraded:
    def test_injected_fault_degrades_and_writes_manifest(self, tmp_path):
        import json

        from repro.testing.faults import injected

        out_dir = tmp_path / "res"
        with injected("2mm", "emulate"):
            code, text = run_cli("figures", "--apps", "2mm,bfs",
                                 "--scale", "0.1", "--out", str(out_dir))
        assert code == 0
        assert "FAILED" in text and "2mm" in text
        assert "continuing with 1 of 2" in text
        assert (out_dir / "fig1.txt").exists()
        assert "bfs" in (out_dir / "fig1.txt").read_text()
        manifest = json.loads((out_dir / "failures.json").read_text())
        assert manifest["completed"] == ["bfs"]
        [failure] = manifest["failures"]
        assert failure["name"] == "2mm"
        assert failure["stage"] == "emulate"
        assert failure["error"] == "InjectedFault"
        # the run manifest carries the *same* failure records —
        # failures.json and manifest.json must never disagree
        run_manifest = json.loads((out_dir / "manifest.json").read_text())
        assert run_manifest["failures"] == manifest["failures"]
        failed = [a for a in run_manifest["apps"]
                  if a["status"] == "failed"]
        assert [a["name"] for a in failed] == ["2mm"]
        counters = run_manifest["metrics"]["counters"]
        assert counters["runner.apps"]["status=failed"] == 1
        assert counters["runner.apps"]["status=ok"] == 1

    def test_strict_exits_nonzero(self, tmp_path):
        from repro.testing.faults import injected

        with injected("2mm", "emulate"):
            code, text = run_cli("figures", "--apps", "2mm", "--strict",
                                 "--scale", "0.1", "--out",
                                 str(tmp_path / "res"))
        assert code == 1
        assert "InjectedFault" in text


class TestRaces:
    def test_clean_workload_exits_zero(self):
        code, text = run_cli("races", "bfs", "--scale", "0.1")
        assert code == 0
        assert "bfs" in text
        assert "clean" in text

    def test_requires_app_or_all(self):
        code, text = run_cli("races")
        assert code == 2
        assert "--all" in text

    def test_json_report(self, tmp_path):
        import json
        path = tmp_path / "races.json"
        code, _text = run_cli("races", "spmv", "--scale", "0.1",
                              "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["clean"] is True
        assert payload["scale"] == 0.1
        [report] = payload["reports"]
        assert report["app"] == "spmv"
        assert report["findings"] == []

    def test_engine_selectable(self):
        code, text = run_cli("races", "bfs", "--scale", "0.1",
                             "--engine", "scalar")
        assert code == 0
        assert "clean" in text

    def test_predictive_mode_selectable(self):
        code, text = run_cli("races", "2mm", "--scale", "0.1",
                             "--mode", "predictive")
        assert code == 0
        assert "clean" in text

    def test_findings_exit_nonzero(self):
        # sssp's relaxation loop reads dist[] plainly while updating it
        # atomically: predictive mode flags it and the command fails
        code, text = run_cli("races", "sssp", "--scale", "0.1",
                             "--mode", "predictive")
        assert code == 1
        assert "atomic-plain-race" in text
        assert "finding(s)" in text

    def test_no_fail_escape_hatch(self):
        code, text = run_cli("races", "sssp", "--scale", "0.1",
                             "--mode", "predictive", "--no-fail")
        assert code == 0
        assert "atomic-plain-race" in text

    def test_json_records_mode(self, tmp_path):
        import json
        path = tmp_path / "races.json"
        code, _text = run_cli("races", "sssp", "--scale", "0.1",
                              "--mode", "predictive", "--no-fail",
                              "--json", str(path))
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["mode"] == "predictive"
        assert payload["clean"] is False


class TestAdvise:
    def test_bfs_diagnosis_only(self):
        code, text = run_cli("advise", "bfs", "--scale", "0.1",
                             "--config", "tiny", "--no-verify")
        assert code == 0
        assert "heat map" in text
        assert "verdict:" in text
        assert "verification disabled" in text

    def test_bfs_verified_with_artifacts(self, tmp_path):
        import json
        out_dir = tmp_path / "advice"
        code, text = run_cli(
            "advise", "bfs", "--scale", "0.1", "--config", "tiny",
            "--out", str(out_dir),
            "--json", str(tmp_path / "a.json"),
            "--heatmap-out", str(tmp_path / "h.json"))
        assert code == 0
        assert "verified transforms" in text
        advice = json.loads((out_dir / "advice.json").read_text())
        assert advice["app"] == "bfs"
        assert advice["verified"] is True
        assert advice["diagnoses"]
        assert advice["deltas"]
        heat = json.loads((out_dir / "heatmap.json").read_text())
        assert heat["num_lines"] > 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "advise"
        assert "verdict" in manifest["extras"]
        assert json.loads((tmp_path / "a.json").read_text()) == advice

    def test_unknown_app_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("advise", "nope")

    @pytest.mark.parametrize("flag,value", [
        ("--max-requests", "0"),   # split_op divided by zero
        ("--max-requests", "-1"),  # split_op indexed out of range
        ("--cluster", "0"),        # l2_clusters=0 is the global L2
        ("--cluster", "x"),
    ])
    def test_counts_below_one_are_usage_errors(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("advise", "bfs", "--scale", "0.05", flag, value)
        assert exc.value.code == 2
        assert "at least 1" in capsys.readouterr().err


class TestScaleArgument:
    COMMANDS = [["run", "gaus"], ["simulate", "gaus"], ["figures"],
                ["trace", "gaus"], ["metrics", "export"], ["races", "gaus"],
                ["advise", "gaus"]]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    @pytest.mark.parametrize("scale", ["0", "-0.5", "nan", "inf", "-inf",
                                       "abc"])
    def test_rejected_with_usage_error(self, command, scale, capsys):
        # NaN and infinity used to fail deep inside the workload (exit 1)
        with pytest.raises(SystemExit) as exc:
            run_cli(*command, "--scale=" + scale)
        assert exc.value.code == 2
        assert "positive finite" in capsys.readouterr().err


class TestSweep:
    SPEC = {
        "name": "cli-test",
        "apps": ["2mm"],
        "scales": [0.1],
        "base_config": "tiny",
        "axes": {"l1_size": [1024, 2048]},
        "metrics": ["cycles", "l1_miss_ratio"],
    }

    def write_spec(self, tmp_path, **overrides):
        import json
        spec = dict(self.SPEC, **overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_run_status_report_round_trip(self, tmp_path):
        spec = self.write_spec(tmp_path)
        out = str(tmp_path / "out")

        code, text = run_cli("sweep", "run", spec, "--out", out,
                             "--no-trace-cache")
        assert code == 0
        assert "computed: 2" in text

        code, text = run_cli("sweep", "run", spec, "--out", out,
                             "--no-trace-cache")
        assert code == 0
        assert "cached:   2" in text

        code, text = run_cli("sweep", "status", out)
        assert code == 0
        assert "2/2 point(s) done" in text

        code, text = run_cli("sweep", "report", out, "--out",
                             str(tmp_path / "agg"))
        assert code == 0
        assert (tmp_path / "agg" / "report.json").is_file()
        assert (tmp_path / "agg" / "report.txt").is_file()

        code, text = run_cli("sweep", "report", out)
        assert code == 0
        assert "per-point metrics" in text

    def test_sharded_runs_merge_in_report(self, tmp_path):
        spec = self.write_spec(tmp_path)
        dirs = []
        for index in (1, 2):
            out = str(tmp_path / ("shard-%d" % index))
            code, _text = run_cli("sweep", "run", spec, "--out", out,
                                  "--shard", "%d/2" % index,
                                  "--no-trace-cache")
            assert code == 0
            dirs.append(out)
        code, text = run_cli("sweep", "status", *dirs,
                             "--shard-count", "2")
        assert code == 0
        assert "shard 1/2: 1/1 done" in text
        code, text = run_cli("sweep", "report", *dirs, "--strict")
        assert code == 0
        assert "missing" not in text

    def test_report_strict_fails_on_missing_points(self, tmp_path):
        spec = self.write_spec(tmp_path)
        out = str(tmp_path / "out")
        code, _text = run_cli("sweep", "run", spec, "--out", out,
                              "--shard", "1/2", "--no-trace-cache")
        assert code == 0
        code, text = run_cli("sweep", "report", out, "--strict")
        assert code == 1
        assert "missing 1 of 2" in text

    def test_run_rejects_bad_spec(self, tmp_path):
        spec = self.write_spec(tmp_path, apps=["nope"])
        code, text = run_cli("sweep", "run", spec)
        assert code == 2
        assert "unknown app" in text

    def test_run_rejects_bad_shard(self, tmp_path):
        spec = self.write_spec(tmp_path)
        code, text = run_cli("sweep", "run", spec, "--shard", "9/4")
        assert code == 2
        assert "out of range" in text


class TestSweepCompare:
    def write(self, path, payload):
        import json
        path.write_text(json.dumps(payload))
        return str(path)

    def test_identical_files_pass(self, tmp_path):
        old = self.write(tmp_path / "old.json",
                         {"totals": {"cycles": 100}})
        code, text = run_cli("sweep", "compare", old, old)
        assert code == 0
        assert "PASS" in text

    def test_injected_regression_fails(self, tmp_path):
        old = self.write(tmp_path / "old.json",
                         {"totals": {"cycles": 100, "speedup": 2.0}})
        new = self.write(tmp_path / "new.json",
                         {"totals": {"cycles": 100, "speedup": 1.0}})
        code, text = run_cli(
            "sweep", "compare", old, new,
            "--key", "totals.speedup=0.2:down")
        assert code == 1
        assert "FAIL" in text
        assert "totals.speedup" in text

    def test_tolerances_and_json_artifact(self, tmp_path):
        import json
        old = self.write(tmp_path / "old.json", {"a": 100, "t_s": 1.0})
        new = self.write(tmp_path / "new.json", {"a": 104, "t_s": 9.0})
        artifact = tmp_path / "cmp.json"
        code, text = run_cli(
            "sweep", "compare", old, new, "--key", "a=0.05",
            "--ignore", "*_s", "--json", str(artifact), "--verbose")
        assert code == 0
        assert "ok" in text
        payload = json.loads(artifact.read_text())
        assert payload["summary"]["ok"] is True

    def test_bad_rule_is_usage_error(self, tmp_path):
        old = self.write(tmp_path / "old.json", {"a": 1})
        code, text = run_cli("sweep", "compare", old, old,
                             "--key", "a=wat")
        assert code == 2
        assert "not a number" in text

    def test_missing_file_is_usage_error(self, tmp_path):
        old = self.write(tmp_path / "old.json", {"a": 1})
        code, text = run_cli("sweep", "compare", old,
                             str(tmp_path / "absent.json"))
        assert code == 2


class TestCommittedSweepSpecs:
    def test_all_specs_load_and_validate(self):
        import glob
        import os

        from repro.sweep import SweepSpec

        root = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "sweeps")
        paths = sorted(glob.glob(os.path.join(root, "*.json")))
        assert len(paths) >= 4
        names = set()
        for path in paths:
            spec = SweepSpec.load(path)
            names.add(spec.name)
        assert {"cache-size", "semi-l2", "fig8", "full-matrix"} <= names
