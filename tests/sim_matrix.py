"""The simulator regression matrix shared by the golden and oracle suites.

Every app at :data:`SIM_SCALE` on
:data:`~repro.experiments.runner.BENCH_CONFIG` (the ``base`` variant),
plus four apps under each alternative the simulator implements: the
``gto`` warp scheduler, the ``stride`` and ``indirect_oracle``
prefetchers, the ``semi_global`` L2 organization and the ``clustered``
CTA policy.  A case's document holds every :class:`SimStats` field
(``pc_buckets`` reduced to a sha256 of its sorted items) and the
registry snapshot :meth:`GPU.publish_metrics` writes.
"""

import dataclasses
import enum
import functools
import hashlib
import json

from repro.experiments.runner import BENCH_CONFIG
from repro.obs.metrics import MetricsRegistry
from repro.optim.semi_global_l2 import SemiGlobalL2GPU
from repro.sim.gpu import GPU
from repro.workloads import get_workload, workload_names

SIM_SCALE = 0.05

VARIANT_APPS = ("bfs", "mis", "2mm", "bpr")

#: variant name -> (GPU class, config overrides, GPU keyword arguments)
VARIANTS = {
    "base": (GPU, {}, {}),
    "gto": (GPU, {"warp_scheduler": "gto"}, {}),
    "stride": (GPU, {"prefetcher": "stride"}, {}),
    "indirect_oracle": (GPU, {"prefetcher": "indirect_oracle"}, {}),
    "semi_global": (SemiGlobalL2GPU, {}, {}),
    "clustered": (GPU, {}, {"cta_policy": "clustered"}),
}

SIM_CASES = tuple(
    [(app, "base") for app in workload_names(include_extended=True)]
    + [(app, variant) for app in VARIANT_APPS
       for variant in VARIANTS if variant != "base"])


@functools.lru_cache(maxsize=None)
def workload_run(app):
    """The emulated run of ``app`` at :data:`SIM_SCALE` (read-only)."""
    return get_workload(app, scale=SIM_SCALE).run(verify=False)


def make_gpu(variant, mixin=None, config=BENCH_CONFIG):
    """A fresh GPU for ``variant`` on ``config``; a ``mixin`` class, when
    given, is put in front of the variant's GPU class."""
    cls, overrides, kwargs = VARIANTS[variant]
    if mixin is not None:
        cls = type(mixin.__name__ + cls.__name__, (mixin, cls), {})
    return cls(config.scaled(**overrides), **kwargs)


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
