"""Tests for the fault-isolated process pool (resilience/pool.py)."""

import os
import time

from repro.resilience.pool import run_in_pool


def _square(n):
    return n * n


def _fail_on_two(n):
    if n == 2:
        raise ValueError("job 2 fails")
    return n


def _sleep_after_pid(job):
    """Write this worker's pid to ``path``, then sleep ``seconds``."""
    path, seconds = job
    if path is not None:
        with open(path, "w") as fh:
            fh.write(str(os.getpid()))
    time.sleep(seconds)
    return seconds


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def test_results_are_keyed_by_job_index():
    results, timed_out = run_in_pool(_square, [3, 1, 2], workers=2)
    assert results == {0: 9, 1: 1, 2: 4}
    assert timed_out == []


def test_job_whose_worker_raises_is_left_out():
    results, timed_out = run_in_pool(_fail_on_two, [0, 1, 2, 3], workers=2)
    assert results == {0: 0, 1: 1, 3: 3}
    assert timed_out == []


def test_pool_broken_at_second_submit_keeps_what_it_delivered(
        pool_broken_at_second_submit):
    results, timed_out = run_in_pool(_square, [3, 1, 2], workers=2)
    assert results == {0: 9}
    assert timed_out == []


def test_timed_out_job_is_reported_and_its_worker_stopped(tmp_path):
    pid_file = tmp_path / "pid"
    started = time.monotonic()
    results, timed_out = run_in_pool(
        _sleep_after_pid, [(None, 0), (str(pid_file), 60)],
        workers=2, timeout=3)
    assert time.monotonic() - started < 30
    assert results == {0: 0}
    assert timed_out == [1]
    pid = int(pid_file.read_text())
    deadline = time.monotonic() + 5
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert not _alive(pid)


def test_timeout_counts_from_when_a_worker_starts_the_job():
    """Two hung jobs hold both workers; the third never starts, so it is
    neither a result nor a timeout (the caller reruns it serially), and
    the helper returns once the two running jobs time out."""
    started = time.monotonic()
    results, timed_out = run_in_pool(
        _sleep_after_pid, [(None, 30), (None, 30), (None, 0)],
        workers=2, timeout=2)
    assert time.monotonic() - started < 5
    assert results == {}
    assert timed_out == [0, 1]


def test_job_queued_behind_a_hung_worker_runs_on_the_free_one():
    results, timed_out = run_in_pool(
        _sleep_after_pid, [(None, 30), (None, 0), (None, 0), (None, 0)],
        workers=2, timeout=3)
    assert results == {1: 0, 2: 0, 3: 0}
    assert timed_out == [0]
