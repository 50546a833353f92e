"""The analysis service facade: one object tying store + queue + pool.

:class:`AnalysisService` is what both the HTTP layer and the tests
drive — the HTTP handlers stay a thin JSON shim over it, so every
behavior (quotas, idempotent resubmission, recovery) is testable
without sockets.
"""

from __future__ import annotations

from typing import Optional

from .jobs import STATUS_DONE, JobError, JobRequest
from .queue import JobQueue, QuotaExceededError
from .store import LocalDirStore, open_store
from .worker import WorkerPool, drain, result_key_for


class AnalysisService:
    """Analysis-as-a-service over one artifact store.

    ``store`` is a :class:`~repro.service.store.LocalDirStore` or a
    location string for :func:`~repro.service.store.open_store`.
    ``quota`` bounds outstanding jobs per tenant; ``workers`` sizes the
    pool (0 = no background threads; call :meth:`drain` to process
    synchronously, which is what the deterministic tests do).
    """

    def __init__(self, store, quota=None, workers=2, use_trace_cache=True):
        if not isinstance(store, LocalDirStore):
            store = open_store(store)
        self.store = store
        self.queue = JobQueue(store, quota=quota)
        self.pool = WorkerPool(self.queue, store, workers=workers,
                               use_trace_cache=use_trace_cache)
        self.use_trace_cache = use_trace_cache

    # -- lifecycle --------------------------------------------------------

    def start(self):
        if self.pool.workers:
            self.pool.start()
        return self

    def stop(self):
        self.pool.stop()

    def drain(self, limit=None):
        """Process queued jobs in the calling thread (no pool needed)."""
        return drain(self.queue, self.store,
                     use_trace_cache=self.use_trace_cache, limit=limit)

    # -- submission -------------------------------------------------------

    def submit(self, body):
        """Submit one job from a JSON body; returns its ``JobRecord``.

        Raises :class:`~repro.service.jobs.JobError` (→ 400) on a bad
        request and :class:`~repro.service.queue.QuotaExceededError`
        (→ 429) over quota.  When the content-addressed result already
        sits in the store, the job is born ``done`` without queueing —
        the idempotent-resubmission fast path.
        """
        if not isinstance(body, dict):
            raise JobError("request body must be a JSON object")
        tenant = body.get("tenant", "default")
        if not isinstance(tenant, str) or not tenant:
            raise JobError("tenant must be a non-empty string")
        priority = body.get("priority", 0)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise JobError("priority must be an integer")
        request = JobRequest.from_json(body)
        done_key: Optional[str] = None
        key = result_key_for(request)
        if self.store.exists(key):
            done_key = key
        return self.queue.submit(request, tenant=tenant,
                                 priority=priority,
                                 done_result_key=done_key)

    # -- inspection -------------------------------------------------------

    def result_payload(self, record):
        """The stored result payload for a done job (``None`` while the
        job is anything but done)."""
        if record.status != STATUS_DONE or not record.result_key:
            return None
        payload = self.store.get_json(record.result_key)
        # the checksum is a storage concern, verified on read just
        # above; the served payload stays byte-identical to what
        # execute_job produced
        payload.pop("checksum", None)
        return payload

    def job_json(self, job_id, include_result=True):
        """The ``GET /jobs/<id>`` body: the record, plus the result
        payload once done.  ``None`` for an unknown id (→ 404)."""
        record = self.queue.get(job_id)
        if record is None:
            return None
        body = record.to_json()
        if include_result and record.status == STATUS_DONE:
            body["result"] = self.result_payload(record)
        return body

    def jobs_json(self, tenant=None):
        """The ``GET /jobs`` body: id-ordered record summaries."""
        return [r.to_json(include_request=False)
                for r in self.queue.jobs(tenant)]

    def stats(self):
        """Queue depth and per-status counts (``GET /healthz``)."""
        return {
            "depth": self.queue.depth(),
            "jobs": self.queue.counts(),
            "workers": self.pool.workers,
            "store": self.store.describe(),
        }


__all__ = ["AnalysisService", "JobError", "QuotaExceededError"]
