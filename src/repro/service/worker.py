"""Worker pool: leases jobs, runs the pipeline, stores results.

Each worker is a daemon thread in a loop of *lease → execute →
publish → complete*.  The pool's contract with the queue keeps jobs
exactly-once under crashes:

* a result is published into the artifact store (atomic write with a
  self-checksum) *before* the job record flips to ``done`` — a worker
  that dies in between leaves a ``running`` record the next
  :class:`~repro.service.queue.JobQueue` recovery re-queues, and the
  re-run short-circuits on the already-stored result;
* results are stored under the request's content key
  (``results/<sha256>.json``), so two jobs with identical requests
  share one result and an idempotent resubmission never re-emulates;
* a pipeline failure (memory fault, watchdog, injected chaos fault)
  is contained to its job: the record goes to ``failed`` with the
  exception's structured context and the worker moves on — the same
  fault-isolation stance as the figure runner's degraded mode.
"""

from __future__ import annotations

import threading
from typing import List

from ..obs.metrics import get_registry
from ..resilience.artifacts import attach_checksum
from ..resilience.errors import error_context
from .pipeline import execute_job

#: store namespace content-addressed results live under.
RESULTS_PREFIX = "results/"


def result_key_for(request):
    """The artifact-store key of a request's (content-addressed)
    result payload."""
    return RESULTS_PREFIX + request.key() + ".json"


class WorkerPool:
    """``workers`` daemon threads draining one
    :class:`~repro.service.queue.JobQueue` into an artifact store."""

    def __init__(self, queue, store, workers=2, use_trace_cache=True,
                 poll_seconds=0.2):
        self.queue = queue
        self.store = store
        self.workers = int(workers)
        self.use_trace_cache = use_trace_cache
        self.poll_seconds = poll_seconds
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    # -- lifecycle --------------------------------------------------------

    def start(self):
        if self._threads:
            return self
        self._stop.clear()
        for index in range(self.workers):
            thread = threading.Thread(
                target=self._loop, name="repro-worker-%d" % index,
                daemon=True)
            thread.start()
            self._threads.append(thread)
        return self

    def stop(self, wait=True):
        """Signal every worker to exit after its current job."""
        self._stop.set()
        self.queue.close()
        if wait:
            for thread in self._threads:
                thread.join()
        self._threads = []

    @property
    def running(self):
        return any(t.is_alive() for t in self._threads)

    # -- the work loop ----------------------------------------------------

    def _loop(self):
        while not self._stop.is_set():
            record = self.queue.lease(timeout=self.poll_seconds)
            if record is None:
                if self._stop.is_set():
                    return
                continue
            self.process(record)

    def process(self, record):
        """Run one leased job to completion (or structured failure)."""
        registry = get_registry()
        key = result_key_for(record.request)
        try:
            # double-check the content-addressed store: an identical
            # request may have finished while this one sat queued
            if self.store.exists(key):
                self.queue.complete(record.id, key, result_cache="hit")
                return record.id
            payload = execute_job(record.request,
                                  use_trace_cache=self.use_trace_cache)
            self.store.put_json(key, attach_checksum(payload))
            self.queue.complete(record.id, key)
            return record.id
        except Exception as exc:  # noqa: BLE001 — fault isolation boundary
            registry.counter(
                "service.worker.failures",
                "jobs that failed inside a worker").inc(
                1, error=type(exc).__name__)
            self.queue.fail(
                record.id, "%s: %s" % (type(exc).__name__, exc),
                context=error_context(exc))
            return record.id


def drain(queue, store, use_trace_cache=True, limit=None) -> int:
    """Synchronously process queued jobs in the calling thread (tests
    and one-shot CLI use; no threads involved).  Returns the number of
    jobs processed."""
    pool = WorkerPool(queue, store, workers=0,
                      use_trace_cache=use_trace_cache)
    done = 0
    while limit is None or done < limit:
        record = queue.lease(timeout=0)
        if record is None:
            break
        pool.process(record)
        done += 1
    return done


__all__ = ["RESULTS_PREFIX", "WorkerPool", "drain", "result_key_for"]
