"""Fault-isolated process pool: the one place a batch fans out.

The figure runner (one job per application) and the sweep engine (one
job per ``(app, scale)`` group) both hand :func:`run_in_pool` a list of
picklable jobs and get back what the pool delivered.  Whatever it did
not deliver — the worker raised, the pool broke at submit or later, the
job timed out, or no worker was left to start it — is simply absent, so
each caller decides in one place what a missing job means (rerun it
in-process, or record it as timed out).
"""

from __future__ import annotations

import concurrent.futures
import time
from concurrent.futures.process import BrokenProcessPool


def run_in_pool(fn, jobs, workers, timeout=None):
    """Run ``fn(job)`` for every job in a process pool of ``workers``.

    Returns ``(results, timed_out)``: ``results`` maps a job's index in
    ``jobs`` to its return value; ``timed_out`` lists, in order, the
    indices whose result did not arrive within ``timeout`` seconds of a
    worker starting the job (``None`` waits forever).

    The helper submits a job only when a worker is free for it, so a
    job's clock starts when it starts.  A job whose worker raised, that
    a broken pool never ran or never returned, or that never started
    because every worker was stuck on a timed-out job, is in neither.
    Before returning, the helper stops every worker still busy with a
    timed-out job, so neither the caller nor interpreter exit waits for
    it.
    """
    results = {}
    timed_out = []
    pending = iter(enumerate(jobs))
    running = {}        # future -> (index, submit time)
    broken = False
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        while True:
            # a worker that timed out is taken to be stuck for good
            free = workers - len(running) - len(timed_out)
            while free > 0 and not broken:
                index, job = next(pending, (None, None))
                if index is None:
                    break
                try:
                    future = pool.submit(fn, job)
                except BrokenProcessPool:
                    broken = True  # a worker died: collect what was submitted
                    break
                running[future] = (index, time.monotonic())
                free -= 1
            if not running:
                break
            wait = None
            if timeout is not None:
                first = min(started for _i, started in running.values())
                wait = max(0.0, first + timeout - time.monotonic())
            done, _ = concurrent.futures.wait(
                running, timeout=wait,
                return_when=concurrent.futures.FIRST_COMPLETED)
            now = time.monotonic()
            for future, (index, started) in list(running.items()):
                if future in done:
                    del running[future]
                    try:
                        results[index] = future.result()
                    except BrokenProcessPool:
                        broken = True  # nothing more will come out of it
                    except Exception:       # noqa: BLE001 — isolation
                        pass
                elif timeout is not None and now - started >= timeout:
                    del running[future]
                    timed_out.append(index)
    finally:
        if timed_out:
            # every submitted job that did not time out has finished, so
            # a live worker is idle or stuck on a timed-out job; killing one
            # breaks the pool and the pool then stops the others
            # (Python 3.14's terminate_workers() does the same)
            for process in list(pool._processes.values()):
                process.terminate()
        pool.shutdown(wait=True)
    return results, timed_out
