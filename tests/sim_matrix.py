"""The simulator regression matrix shared by the golden and oracle suites.

Every app at :data:`SIM_SCALE` on
:data:`~repro.experiments.runner.BENCH_CONFIG` (the ``base`` variant),
plus four apps under each alternative the simulator implements: the
``gto`` warp scheduler, the ``stride`` and ``indirect_oracle``
prefetchers, the ``semi_global`` L2 organization and the ``clustered``
CTA policy.  A case's document holds every :class:`SimStats` field
(``pc_buckets`` reduced to a sha256 of its sorted items) and the
registry snapshot :meth:`GPU.publish_metrics` writes.

:data:`ISSUE_CASES` pin the issue stage's corners: the same four apps
on :data:`~repro.sim.config.TINY` under each issue width and warp
scheduler, where tiny L1, LD/ST-queue and credit sizes make scoreboard
blocking, unit contention and barrier release the common case.
"""

import dataclasses
import enum
import functools
import hashlib
import json

from repro.experiments.runner import BENCH_CONFIG
from repro.obs.metrics import MetricsRegistry
from repro.sim.config import TINY
from repro.sim.gpu import GPU
from repro.workloads import get_workload, workload_names

SIM_SCALE = 0.05

VARIANT_APPS = ("bfs", "mis", "2mm", "bpr")

#: variant name -> config overrides
VARIANTS = {
    "base": {},
    "gto": {"warp_scheduler": "gto"},
    "stride": {"prefetcher": "stride"},
    "indirect_oracle": {"prefetcher": "indirect_oracle"},
    "semi_global": {"l2_clusters": 2},
    "clustered": {"cta_policy": "clustered"},
}

SIM_CASES = tuple(
    [(app, "base") for app in workload_names(include_extended=True)]
    + [(app, variant) for app in VARIANT_APPS
       for variant in VARIANTS if variant != "base"])

#: issue-stage variant name -> overrides of :data:`TINY`
ISSUE_VARIANTS = {
    "tiny_iw%d_%s" % (width, scheduler):
        {"issue_width": width, "warp_scheduler": scheduler}
    for width in (1, 2, 3) for scheduler in ("lrr", "gto")}

ISSUE_CASES = tuple((app, variant) for app in VARIANT_APPS
                    for variant in ISSUE_VARIANTS)


@functools.lru_cache(maxsize=None)
def workload_run(app):
    """The emulated run of ``app`` at :data:`SIM_SCALE` (read-only)."""
    return get_workload(app, scale=SIM_SCALE).run(verify=False)


def make_gpu(variant, mixin=None, config=BENCH_CONFIG):
    """A fresh GPU for ``variant`` on ``config`` (an issue-stage variant
    always runs on :data:`TINY`); a ``mixin`` class, when given, is put
    in front of :class:`GPU`."""
    cls = GPU
    if mixin is not None:
        cls = type(mixin.__name__ + cls.__name__, (mixin, cls), {})
    if variant in ISSUE_VARIANTS:
        return cls(TINY.scaled(**ISSUE_VARIANTS[variant]))
    return cls(config.scaled(**VARIANTS[variant]))


def simulate(app, gpu, after_launch=None):
    """Replay ``app``'s launches on ``gpu``; ``after_launch(gpu)`` runs
    once each launch has drained."""
    run = workload_run(app)
    for launch in run.trace:
        gpu.run_launch(launch, run.classifications.get(launch.kernel_name))
        if after_launch is not None:
            after_launch(gpu)
    return gpu


def _plain(value):
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    if isinstance(value, dict):
        return {(k.value if isinstance(k, enum.Enum) else k): _plain(v)
                for k, v in value.items()}
    return value


def stats_document(stats):
    """Every :class:`SimStats` field as plain JSON data."""
    doc = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if f.name == "pc_buckets":
            items = sorted((list(key), dataclasses.asdict(bucket))
                           for key, bucket in value.items())
            value = hashlib.sha256(
                json.dumps(items, sort_keys=True).encode()).hexdigest()
        doc[f.name] = _plain(value)
    return doc


def sim_document(app, gpu):
    """Stats plus registry snapshot of a finished simulation, as the
    JSON round trip a fixture file gives back."""
    registry = MetricsRegistry()
    gpu.publish_metrics(registry, app=app)
    return json.loads(json.dumps({
        "stats": stats_document(gpu.stats),
        "metrics": registry.snapshot(),
    }, sort_keys=True))
