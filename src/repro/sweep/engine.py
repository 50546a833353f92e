"""Sharded, resumable execution of a sweep spec.

The engine walks a shard of the expanded grid and, for each point that
does not already have a result file, simulates the point and writes
``<out>/points/<key>.json`` atomically.  Because files are named by
the content-addressed :func:`~.spec.point_key`:

* **resume** is free — a rerun (after a crash, a kill, or a partial
  shard) skips every completed point;
* **sharding** is safe — shards write disjoint files into a shared (or
  later-merged) directory;
* **staleness** is impossible — bumping the emulator or trace-format
  version changes every key, so old results are recomputed, never
  silently reused.

Emulation is shared per ``(app, scale)`` across the shard's points
(and, through the on-disk trace cache, across shards and reruns); each
point then gets its own timing simulation under its own
:class:`~repro.sim.config.GPUConfig` — machine organization
(``cta_policy``, ``l2_clusters``) included.

Observability: every point executes under a ``sweep.point`` span, the
``sweep.points`` counter tallies computed/cached/failed outcomes, and
each run writes a per-shard manifest
(``manifest-shard-K-of-N.json``) with the point statuses and a
metrics-registry snapshot.  Point files themselves contain only
deterministic content — wall-clock lives in the manifest — so
aggregate reports are byte-identical however the sweep was executed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

from ..obs import tracing
from ..obs.manifest import RunManifest
from ..obs.metrics import get_registry
from ..resilience.artifacts import (
    ChecksumError,
    atomic_write_json,
    attach_checksum,
)
from .metrics import collect_metrics
from .spec import (
    SWEEP_SCHEMA_VERSION,
    SweepSpec,
    expand,
    point_key,
    resolve_base_config,
    shard,
    spec_hash,
    versions,
)


class SweepError(RuntimeError):
    """A sweep could not run (bad output directory, failed point in
    strict mode, ...)."""


@dataclass
class PointOutcome:
    """What happened to one point during a run."""

    key: str
    params: Dict[str, object]
    status: str  # "computed" | "cached" | "failed"
    error: Optional[str] = None

    def to_json(self):
        out = {"key": self.key, "params": self.params, "status": self.status}
        if self.error is not None:
            out["error"] = self.error
        return out


#: Atomic, canonical JSON write — the shared crash-consistent writer
#: (tempfile + fsync + rename, sorted keys, trailing newline).
_write_json = atomic_write_json


def build_config(spec, point):
    """The validated GPUConfig for one point (base + fixed + axes)."""
    overrides = dict(spec.fixed)
    overrides.update(point.knobs)
    base = resolve_base_config(spec.base_config)
    return base.scaled(**overrides).validate()


def simulate_point(spec, point, run):
    """Simulate one point over an already-emulated workload run and
    return its metric dict (see :mod:`repro.sweep.metrics`)."""
    from ..sim.gpu import GPU

    stats = GPU(build_config(spec, point)).run_application(
        run.trace, run.classifications
    )
    return collect_metrics(stats, spec.metrics)


class SweepEngine:
    """Runs (a shard of) a sweep into an output directory.

    ``runs`` optionally injects pre-emulated
    :class:`~repro.workloads.base.WorkloadRun` objects keyed by
    ``(app, scale)`` — the ablation benchmarks use this to reuse their
    session's runs.  Otherwise emulation goes through a per-scale
    :class:`~repro.experiments.runner.ExperimentRunner`
    (``use_trace_cache=True`` by default, so reruns and sibling shards
    share traces).

    ``strict=True`` raises on the first failing point; the default
    records the failure in the outcome list (and manifest) and keeps
    going, mirroring the experiment runner's fault isolation.
    """

    def __init__(
        self,
        spec,
        out,
        jobs=1,
        engine=None,
        use_trace_cache=True,
        strict=False,
        runs=None,
    ):
        if isinstance(spec, dict):
            spec = SweepSpec.from_json(spec)
        self.spec = spec.validate()
        from ..service.store import LocalDirStore

        self.out = Path(out)
        self.points_dir = self.out / "points"
        #: per-point results live in an artifact store (the same
        #: abstraction behind the trace cache and the service's job
        #: records), keyed ``<point-key>.json``
        self.points_store = LocalDirStore(self.points_dir)
        self.jobs = max(1, int(jobs))
        self.engine = engine
        self.use_trace_cache = use_trace_cache
        self.strict = strict
        self.runs = dict(runs or {})
        self._emulators = {}

    # -- point bookkeeping ------------------------------------------------

    def point_path(self, key):
        return self.points_dir / (key + ".json")

    def _point_done(self, key):
        """True when a valid result file for ``key`` already exists.

        A file that fails its self-checksum is quarantined (moved to
        ``points/.corrupt/``) so the point recomputes — resume heals
        silent corruption instead of aggregating it.
        """
        name = key + ".json"
        try:
            data = self.points_store.get_json(name)
        except ChecksumError:
            self.points_store.quarantine(name, kind="sweep_point",
                                         reason="checksum")
            return False
        except (KeyError, OSError, ValueError):
            return False
        return data.get("key") == key and data.get("versions") == versions()

    def _write_point(self, key, point, metric_values):
        payload = {
            "schema": SWEEP_SCHEMA_VERSION,
            "key": key,
            "sweep": self.spec.name,
            "app": point.app,
            "scale": point.scale,
            "seed": self.spec.seed,
            "knobs": dict(point.knobs),
            "metrics": metric_values,
            "versions": versions(),
        }
        self.points_store.put_json(key + ".json",
                                   attach_checksum(payload))
        return self.point_path(key)

    def _write_sweep_manifest(self):
        """Bind ``out`` to this spec (or verify it is already bound)."""
        path = self.out / "sweep.json"
        digest = spec_hash(self.spec)
        if path.is_file():
            try:
                with open(path) as fh:
                    existing = json.load(fh)
            except (OSError, ValueError):
                existing = None
            if existing is not None and existing.get("spec_hash") != digest:
                raise SweepError(
                    "%s already holds results for a different sweep "
                    "(spec_hash %s != %s); use a fresh --out directory"
                    % (self.out, existing.get("spec_hash"), digest)
                )
        payload = {
            "schema": SWEEP_SCHEMA_VERSION,
            "spec": self.spec.to_json(),
            "spec_hash": digest,
            "versions": versions(),
        }
        _write_json(path, payload)

    # -- emulation --------------------------------------------------------

    def _workload_run(self, app, scale):
        cached = self.runs.get((app, scale))
        if cached is not None:
            return cached
        runner = self._emulators.get(scale)
        if runner is None:
            from ..experiments.runner import ExperimentRunner

            runner = ExperimentRunner(
                scale=scale,
                simulate=False,
                use_trace_cache=self.use_trace_cache,
                engine=self.engine,
                strict=True,
            )
            self._emulators[scale] = runner
        run = runner.workload_run(app)
        self.runs[(app, scale)] = run
        return run

    # -- execution --------------------------------------------------------

    def _run_points(self, points):
        """Serial core: execute ``points``, returning their outcomes in
        point order.

        Used directly in-process and as the body of pool workers.
        """
        outcomes: List[Optional[PointOutcome]] = [None] * len(points)
        groups = {}
        for index, point in enumerate(points):
            groups.setdefault((point.app, point.scale), []).append(index)
        for (app, scale), indices in groups.items():
            pending = []
            for index in indices:
                point = points[index]
                key = point_key(self.spec, point)
                if self._point_done(key):
                    outcomes[index] = PointOutcome(key, point.params, "cached")
                else:
                    pending.append((index, key, point))
            if not pending:
                continue
            try:
                run = self._workload_run(app, scale)
            except Exception as exc:  # noqa: BLE001 — isolation
                if self.strict:
                    raise SweepError(
                        "emulating %s (scale %r): %s: %s"
                        % (app, scale, type(exc).__name__, exc)
                    ) from exc
                error = "%s: %s" % (type(exc).__name__, exc)
                for index, key, point in pending:
                    outcomes[index] = PointOutcome(
                        key, point.params, "failed", error
                    )
                continue
            for index, key, point in pending:
                with tracing.span(
                    "sweep.point", app=app, scale=scale, key=key[:12]
                ):
                    try:
                        metric_values = simulate_point(self.spec, point, run)
                    except Exception as exc:  # noqa: BLE001 — isolation
                        if self.strict:
                            raise SweepError(
                                "point %s: %s: %s"
                                % (point.label(), type(exc).__name__, exc)
                            ) from exc
                        error = "%s: %s" % (type(exc).__name__, exc)
                        outcomes[index] = PointOutcome(
                            key, point.params, "failed", error
                        )
                        continue
                self._write_point(key, point, metric_values)
                outcomes[index] = PointOutcome(key, point.params, "computed")
        return outcomes

    def _run_parallel(self, points):
        """Execute grouped points across a process pool
        (:func:`~repro.resilience.pool.run_in_pool`); outcomes keep
        canonical point order, in which each (app, scale) group is one
        contiguous run (:func:`expand`).  Every group the pool did not
        deliver is retried serially."""
        from ..resilience.pool import run_in_pool

        groups = {}
        for point in points:
            groups.setdefault((point.app, point.scale), []).append(point)
        if len(groups) < 2:
            return self._run_points(points)
        options = {
            "engine": self.engine,
            "use_trace_cache": self.use_trace_cache,
        }
        grouped = list(groups.values())
        delivered, _timed_out = run_in_pool(
            _run_group,
            [(self.spec, str(self.out), pts, options) for pts in grouped],
            workers=min(self.jobs, len(grouped)),
        )
        outcomes = []
        for index, pts in enumerate(grouped):
            if index not in delivered:
                delivered[index] = self._run_points(pts)
            outcomes.extend(delivered[index])
        return outcomes

    def run(self, shard_index=1, shard_count=1):
        """Execute this engine's shard of the grid; returns a summary.

        The summary dict holds ``total`` (grid size), ``selected``
        (this shard), per-status counts, and the ordered
        :class:`PointOutcome` list.
        """
        all_points = expand(self.spec)
        mine = shard(all_points, shard_index, shard_count)
        self._write_sweep_manifest()
        manifest = RunManifest(
            "sweep run",
            {
                "sweep": self.spec.name,
                "spec_hash": spec_hash(self.spec),
                "shard": [shard_index, shard_count],
                "jobs": self.jobs,
                "engine": self.engine,
                "trace_cache": bool(self.use_trace_cache),
                "out": str(self.out),
            },
        )
        with tracing.span(
            "sweep",
            sweep=self.spec.name,
            shard="%d/%d" % (shard_index, shard_count),
        ):
            if self.jobs > 1:
                outcomes = self._run_parallel(mine)
            else:
                outcomes = self._run_points(mine)
        registry = get_registry()
        counter = registry.counter(
            "sweep.points", "sweep points executed, by outcome"
        )
        counts = {"computed": 0, "cached": 0, "failed": 0}
        for outcome in outcomes:
            counts[outcome.status] += 1
            counter.inc(1, sweep=self.spec.name, status=outcome.status)
        summary = {
            "total": len(all_points),
            "selected": len(mine),
            "computed": counts["computed"],
            "cached": counts["cached"],
            "failed": counts["failed"],
            "outcomes": outcomes,
        }
        manifest.extras["points"] = {
            "total": len(all_points),
            "selected": len(mine),
            "computed": counts["computed"],
            "cached": counts["cached"],
            "failed": counts["failed"],
            "outcomes": [o.to_json() for o in outcomes],
        }
        manifest.attach_metrics(registry)
        name = "manifest-shard-%d-of-%d.json" % (shard_index, shard_count)
        manifest.finish().write(self.out / name)
        return summary


def _run_group(job):
    """Pool-worker entry point: run one (app, scale) group's points in
    a child process (module-level so it pickles under spawn)."""
    spec, out, points, options = job
    engine = SweepEngine(
        spec,
        out,
        jobs=1,
        engine=options["engine"],
        use_trace_cache=options["use_trace_cache"],
        strict=True,
    )
    return engine._run_points(points)


__all__ = [
    "PointOutcome",
    "SweepEngine",
    "SweepError",
    "build_config",
    "simulate_point",
]
