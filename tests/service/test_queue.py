"""Queue semantics: priority, quotas, durability, idempotency."""

import pytest

from repro.obs.metrics import isolated_registry
from repro.service.jobs import (
    STATUS_DONE,
    STATUS_FAILED,
    STATUS_QUEUED,
    STATUS_RUNNING,
    JobRequest,
)
from repro.service.queue import JobQueue, QuotaExceededError
from repro.service.store import LocalDirStore
from repro.testing.chaos import torn_write, truncate_file


def _request(seed=7):
    return JobRequest.from_json({"app": "2mm", "scale": 0.1, "seed": seed})


@pytest.fixture
def store(tmp_path):
    return LocalDirStore(tmp_path / "svc")


@pytest.fixture(autouse=True)
def registry():
    with isolated_registry() as reg:
        yield reg


class TestPriorityOrdering:
    def test_higher_priority_leases_first(self, store):
        queue = JobQueue(store)
        ids = {}
        for n, priority in enumerate((0, 5, 1, 5)):
            record = queue.submit(_request(seed=n), priority=priority)
            ids[record.id] = priority
        leased = [queue.lease(timeout=0) for _ in range(4)]
        assert [ids[r.id] for r in leased] == [5, 5, 1, 0]
        # FIFO within a priority level: the first 5 submitted wins
        assert leased[0].id < leased[1].id

    def test_lease_blocks_then_times_out(self, store):
        queue = JobQueue(store)
        assert queue.lease(timeout=0.01) is None

    def test_closed_queue_stops_leasing(self, store):
        queue = JobQueue(store)
        queue.close()
        assert queue.lease() is None


class TestQuota:
    def test_quota_rejects_and_recycles(self, store):
        queue = JobQueue(store, quota=2)
        first = queue.submit(_request(seed=0), tenant="t")
        queue.submit(_request(seed=1), tenant="t")
        with pytest.raises(QuotaExceededError) as err:
            queue.submit(_request(seed=2), tenant="t")
        assert err.value.status == 429
        assert err.value.tenant == "t"
        assert err.value.outstanding == 2
        # other tenants are unaffected
        queue.submit(_request(seed=3), tenant="other")
        # draining one job frees one quota slot
        assert queue.lease(timeout=0).id == first.id
        queue.complete(first.id, result_key="results/x.json")
        queue.submit(_request(seed=2), tenant="t")

    def test_failed_jobs_stop_counting(self, store):
        queue = JobQueue(store, quota=1)
        record = queue.submit(_request(seed=0), tenant="t")
        queue.lease(timeout=0)
        queue.fail(record.id, "boom")
        queue.submit(_request(seed=1), tenant="t")

    def test_short_circuit_never_counts(self, store):
        queue = JobQueue(store, quota=1)
        queue.submit(_request(seed=0), tenant="t")
        done = queue.submit(_request(seed=1), tenant="t",
                            done_result_key="results/r.json")
        assert done.status == STATUS_DONE
        assert done.result_cache == "hit"
        assert queue.depth() == 1  # never touched the heap


class TestDurability:
    def test_records_persist_before_visible(self, store):
        queue = JobQueue(store)
        record = queue.submit(_request())
        stored = store.get_json("jobs/%s.json" % record.id)
        assert stored["status"] == STATUS_QUEUED

    def test_crash_recovery_requeues_exactly_once(self, store):
        queue = JobQueue(store)
        running = queue.submit(_request(seed=0))
        queued = queue.submit(_request(seed=1))
        done = queue.submit(_request(seed=2))
        assert queue.lease(timeout=0).id == running.id
        assert queue.lease(timeout=0).id == queued.id
        queue.complete(queued.id, result_key="results/q.json")
        assert queue.lease(timeout=0).id == done.id
        queue.complete(done.id, result_key="results/d.json")
        # simulate a process death while `running` is leased: a NEW
        # queue over the same store must re-queue it, once, visibly
        fresh = JobQueue(store, quota=None)
        assert fresh.recovered_ids == [running.id]
        recovered = fresh.get(running.id)
        assert recovered.status == STATUS_QUEUED
        assert recovered.recovered is True
        assert recovered.attempts == 1
        # no duplicate, no loss: exactly one leasable job remains
        assert fresh.lease(timeout=0).id == running.id
        assert fresh.lease(timeout=0) is None
        # completed work survived untouched
        assert fresh.get(done.id).status == STATUS_DONE
        assert fresh.get(done.id).result_key == "results/d.json"

    def test_recovery_does_not_reuse_ids(self, store):
        queue = JobQueue(store)
        last = queue.submit(_request(seed=0))
        fresh = JobQueue(store)
        new = fresh.submit(_request(seed=1))
        assert new.id > last.id

    @pytest.mark.chaos
    def test_torn_record_is_quarantined_at_recovery(self, store, registry):
        queue = JobQueue(store)
        victim = queue.submit(_request(seed=0))
        survivor = queue.submit(_request(seed=1))
        victim_path = store.path_of("jobs/%s.json" % victim.id)
        torn_write(victim_path, b'{"id": "j0', keep=10)
        fresh = JobQueue(store)
        assert fresh.recovered_ids == [survivor.id]
        assert fresh.get(victim.id) is None
        assert not store.exists("jobs/%s.json" % victim.id)
        quarantined = registry.snapshot()["counters"].get(
            "service.queue.quarantined", {})
        assert sum(quarantined.values()) == 1

    @pytest.mark.chaos
    def test_truncated_record_is_quarantined(self, store):
        queue = JobQueue(store)
        victim = queue.submit(_request(seed=0))
        truncate_file(store.path_of("jobs/%s.json" % victim.id), keep=0)
        fresh = JobQueue(store)
        assert fresh.recovered_ids == []
        assert fresh.counts() == {}


class TestLifecycleGuards:
    def test_complete_requires_running(self, store):
        queue = JobQueue(store)
        record = queue.submit(_request())
        from repro.service.jobs import JobError

        with pytest.raises(JobError):
            queue.complete(record.id, result_key="results/x.json")

    def test_fail_records_error_context(self, store):
        queue = JobQueue(store)
        record = queue.submit(_request())
        queue.lease(timeout=0)
        queue.fail(record.id, "kaboom", context={"stage": "emulate"})
        stored = store.get_json("jobs/%s.json" % record.id)
        assert stored["status"] == STATUS_FAILED
        assert stored["error"] == "kaboom"
        assert stored["error_context"] == {"stage": "emulate"}

    def test_unknown_job_raises(self, store):
        queue = JobQueue(store)
        with pytest.raises(KeyError):
            queue.complete("j999999", result_key="x")

    def test_counts_and_jobs_views(self, store):
        queue = JobQueue(store)
        a = queue.submit(_request(seed=0), tenant="a")
        queue.submit(_request(seed=1), tenant="b")
        queue.lease(timeout=0)
        assert queue.counts() == {STATUS_RUNNING: 1, STATUS_QUEUED: 1}
        assert [r.id for r in queue.jobs(tenant="a")] == [a.id]
        assert len(queue.jobs()) == 2
