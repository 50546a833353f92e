"""Priority job queue with per-tenant quotas and durable recovery.

The queue is the service's one point of coordination:

* **ordering** — a binary heap keyed on ``(-priority, sequence)``:
  higher ``priority`` leases first, FIFO within a priority level;
* **quotas** — each tenant may have at most ``quota`` *outstanding*
  (queued + running) jobs; a submit beyond that raises
  :class:`QuotaExceededError`, which the HTTP layer maps to a 429.
  Done/failed jobs stop counting, so a well-behaved tenant's quota
  recycles as its work drains;
* **durability** — every record transition is persisted into the
  artifact store (``jobs/<id>.json``, atomic write + self-checksum)
  *before* it becomes observable, so a SIGKILL at any point leaves a
  recoverable store: :meth:`JobQueue.recover` (run on construction)
  re-queues ``queued`` jobs and re-queues ``running`` jobs whose
  worker died mid-lease — exactly once each, so a crash loses no job
  and duplicates none.  A record that fails its checksum is
  quarantined, not trusted;
* **idempotency** — submissions carry a content key
  (:meth:`~repro.service.jobs.JobRequest.key`); the caller may pass
  ``done_result_key`` when the keyed result already exists in the
  artifact store, recording the job as ``done`` without it ever
  touching the heap (counted under ``service.result_cache``).

All counters published here are deterministic counts (DESIGN.md §9):
submissions, rejections, completions, recoveries — never latencies,
which live in the job records (``submitted_at``/``started_at``/
``finished_at``).
"""

from __future__ import annotations

import heapq
import threading
from typing import Dict, List

from ..obs.metrics import get_registry
from ..resilience.artifacts import ChecksumError, attach_checksum
from .jobs import (
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_QUEUED,
    STATUS_RUNNING,
    JobError,
    JobRecord,
)

#: store namespace job records live under.
JOBS_PREFIX = "jobs/"


class QuotaExceededError(RuntimeError):
    """A tenant is at its outstanding-job quota (HTTP 429)."""

    status = 429

    def __init__(self, tenant, limit, outstanding):
        self.tenant = tenant
        self.limit = limit
        self.outstanding = outstanding
        super().__init__(
            "tenant %r has %d outstanding job(s), quota is %d"
            % (tenant, outstanding, limit))


def _count(name, help_text, **labels):
    get_registry().counter("service.%s" % name, help_text).inc(1, **labels)


class JobQueue:
    """Thread-safe priority queue of :class:`JobRecord` objects, backed
    by a :class:`~repro.service.store.LocalDirStore`.

    ``quota`` bounds outstanding jobs per tenant (``None`` = unlimited).
    Construction immediately recovers whatever the store holds; the
    re-queued ids are available as :attr:`recovered_ids`.
    """

    def __init__(self, store, quota=None):
        self.store = store
        self.quota = quota
        self._cond = threading.Condition()
        self._heap: List[tuple] = []
        self._records: Dict[str, JobRecord] = {}
        self._seq = 0
        self._next_id = 1
        self._closed = False
        self.recovered_ids = self.recover()

    # -- persistence ------------------------------------------------------

    def _record_key(self, job_id):
        return JOBS_PREFIX + job_id + ".json"

    def _persist(self, record):
        payload = attach_checksum(record.to_json())
        self.store.put_json(self._record_key(record.id), payload)

    def recover(self):
        """Rebuild in-memory state from the store (called once, from
        ``__init__``).  Returns the ids that went back on the heap."""
        requeued = []
        with self._cond:
            for key in self.store.keys(JOBS_PREFIX):
                try:
                    payload = self.store.get_json(key)
                    record = JobRecord.from_json(payload)
                except ChecksumError:
                    self.store.quarantine(key, kind="service_job",
                                          reason="checksum")
                    _count("queue.quarantined",
                           "job records dropped at recovery", reason="checksum")
                    continue
                except (KeyError, ValueError, JobError):
                    self.store.quarantine(key, kind="service_job",
                                          reason="unreadable")
                    _count("queue.quarantined",
                           "job records dropped at recovery",
                           reason="unreadable")
                    continue
                if record.status == STATUS_RUNNING:
                    # the worker holding the lease is gone: the job is
                    # not lost — it goes back on the heap, visibly
                    record = record.copy(status=STATUS_QUEUED,
                                         started_at=None, recovered=True)
                    self._persist(record)
                    _count("queue.recovered",
                           "jobs re-queued at recovery, by prior status",
                           status="running")
                elif record.status == STATUS_QUEUED:
                    _count("queue.recovered",
                           "jobs re-queued at recovery, by prior status",
                           status="queued")
                self._records[record.id] = record
                if record.status == STATUS_QUEUED:
                    self._push(record)
                    requeued.append(record.id)
                if record.id.startswith("j"):
                    try:
                        self._next_id = max(self._next_id,
                                            int(record.id[1:]) + 1)
                    except ValueError:
                        pass
        return requeued

    # -- heap internals (callers hold the lock) ---------------------------

    def _push(self, record):
        self._seq += 1
        heapq.heappush(self._heap, (-record.priority, self._seq, record.id))

    def _allocate_id(self):
        job_id = "j%06d" % self._next_id
        self._next_id += 1
        return job_id

    # -- submission -------------------------------------------------------

    def outstanding(self, tenant):
        """Queued + running jobs currently charged to ``tenant``."""
        with self._cond:
            return sum(1 for r in self._records.values()
                       if r.tenant == tenant and r.outstanding)

    def submit(self, request, tenant="default", priority=0,
               done_result_key=None):
        """Enqueue one request; returns its :class:`JobRecord`.

        ``done_result_key`` short-circuits the job as already ``done``
        (the idempotent-resubmission path: the content-addressed result
        is sitting in the artifact store, so nothing needs to run).
        Raises :class:`QuotaExceededError` when the tenant is at its
        outstanding quota — a short-circuited job never counts, it is
        born finished.
        """
        with self._cond:
            if done_result_key is None and self.quota is not None:
                used = sum(1 for r in self._records.values()
                           if r.tenant == tenant and r.outstanding)
                if used >= self.quota:
                    _count("queue.rejected",
                           "submissions rejected over quota", tenant=tenant)
                    raise QuotaExceededError(tenant, self.quota, used)
            record = JobRecord(
                id=self._allocate_id(), key=request.key(), tenant=tenant,
                priority=int(priority), status=STATUS_QUEUED,
                request=request)
            if done_result_key is not None:
                import time

                record.status = STATUS_DONE
                record.result_key = done_result_key
                record.result_cache = "hit"
                record.finished_at = time.time()
                _count("result_cache",
                       "job results served from the artifact store vs "
                       "computed", result="hit")
            self._persist(record)
            self._records[record.id] = record
            _count("queue.submitted", "jobs accepted into the queue",
                   tenant=tenant)
            if record.status == STATUS_QUEUED:
                self._push(record)
                self._cond.notify()
            return record

    # -- worker side ------------------------------------------------------

    def lease(self, timeout=None):
        """Pop the highest-priority queued job and mark it running.

        Blocks up to ``timeout`` seconds (forever when ``None``) and
        returns ``None`` on timeout or queue shutdown.
        """
        with self._cond:
            while True:
                while self._heap:
                    _, _, job_id = heapq.heappop(self._heap)
                    record = self._records.get(job_id)
                    if record is None or record.status != STATUS_QUEUED:
                        continue  # superseded entry
                    import time

                    record.status = STATUS_RUNNING
                    record.started_at = time.time()
                    record.attempts += 1
                    self._persist(record)
                    return record
                if self._closed:
                    return None
                if not self._cond.wait(timeout=timeout):
                    return None

    def _finish(self, job_id, status, **changes):
        import time

        with self._cond:
            record = self._records.get(job_id)
            if record is None:
                raise KeyError(job_id)
            if record.status != STATUS_RUNNING:
                raise JobError("job %s is %s, not running"
                               % (job_id, record.status))
            record.status = status
            record.finished_at = time.time()
            for name, value in changes.items():
                setattr(record, name, value)
            self._persist(record)
            _count("jobs", "job completions by outcome", status=status)
            return record

    def complete(self, job_id, result_key, result_cache="miss"):
        """Mark a leased job done, pointing at its stored result."""
        record = self._finish(job_id, STATUS_DONE, result_key=result_key,
                              result_cache=result_cache)
        _count("result_cache",
               "job results served from the artifact store vs computed",
               result=result_cache)
        return record

    def fail(self, job_id, error, context=None):
        """Mark a leased job failed with its structured error context."""
        return self._finish(job_id, STATUS_FAILED, error=error,
                            error_context=context or None)

    # -- inspection -------------------------------------------------------

    def get(self, job_id):
        with self._cond:
            return self._records.get(job_id)

    def jobs(self, tenant=None):
        """All records (optionally one tenant's), in id order."""
        with self._cond:
            records = [r for r in self._records.values()
                       if tenant is None or r.tenant == tenant]
        return sorted(records, key=lambda r: r.id)

    def depth(self):
        """Currently queued (not yet leased) jobs."""
        with self._cond:
            return sum(1 for r in self._records.values()
                       if r.status == STATUS_QUEUED)

    def counts(self):
        """``{status: count}`` over every known job."""
        out = {}
        with self._cond:
            for record in self._records.values():
                out[record.status] = out.get(record.status, 0) + 1
        return out

    def close(self):
        """Wake every blocked :meth:`lease` with ``None`` (shutdown)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


__all__ = ["JOBS_PREFIX", "JobQueue", "QuotaExceededError"]
