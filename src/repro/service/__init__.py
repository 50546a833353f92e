"""Analysis-as-a-service: async job API over the paper pipeline.

The layers, bottom up (DESIGN.md section 16):

* :mod:`repro.service.store` — the :class:`LocalDirStore` artifact
  store shared by the trace cache, the sweep engine's point files and
  the service's job/result records;
* :mod:`repro.service.jobs` — the job model: validated requests with
  content keys, durable records;
* :mod:`repro.service.queue` — priority queue with per-tenant quotas
  and crash recovery;
* :mod:`repro.service.pipeline` — one deterministic execution of one
  job (classification, simulation, races, advise), value-identical to
  the CLI by shared render paths;
* :mod:`repro.service.worker` — the worker pool draining the queue
  into the store;
* :mod:`repro.service.app` / :mod:`repro.service.http` — the facade
  and its stdlib HTTP front end (``repro serve``);
* :mod:`repro.service.loadgen` / :mod:`repro.service.parity` — the
  HTTP client and concurrency audit the tests drive, and the CI proof
  that HTTP results byte-match the CLI.

This ``__init__`` is import-light on purpose: the trace cache imports
:mod:`repro.service.store`, and an eager import of the worker stack
here would close a cycle back through the emulator.
"""

from __future__ import annotations

_EXPORTS = {
    "AnalysisService": "app",
    "JobError": "jobs",
    "JobQueue": "queue",
    "JobRequest": "jobs",
    "LocalDirStore": "store",
    "QuotaExceededError": "queue",
    "ServiceServer": "http",
    "StoreError": "store",
    "WorkerPool": "worker",
    "execute_job": "pipeline",
    "open_store": "store",
    "run_loadgen": "loadgen",
    "serve": "http",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        from importlib import import_module

        module = import_module("." + _EXPORTS[name], __name__)
        return getattr(module, name)
    raise AttributeError("module %r has no attribute %r"
                         % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
