"""Fault-isolated process pool: the one place a batch fans out.

The figure runner (one job per application) and the sweep engine (one
job per ``(app, scale)`` group) both hand :func:`run_in_pool` a list of
picklable jobs and get back what the pool delivered.  Whatever it did
not deliver — the worker raised, the pool broke at submit or later, or
the job timed out — is simply absent, so each caller decides in one
place what a missing job means (rerun it in-process, or record it as
timed out).
"""

from __future__ import annotations

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool


def run_in_pool(fn, jobs, workers, timeout=None):
    """Run ``fn(job)`` for every job in a process pool of ``workers``.

    Returns ``(results, timed_out)``: ``results`` maps a job's index in
    ``jobs`` to its return value; ``timed_out`` lists, in order, the
    indices whose result did not arrive within ``timeout`` seconds of
    the helper starting to wait for it (``None`` waits forever).

    A job whose worker raised, or that a broken pool never ran or never
    returned, is in neither.  Before returning, the helper stops every
    worker still busy with a timed-out job, so neither the caller nor
    interpreter exit waits for it.
    """
    results = {}
    timed_out = []
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        futures = []
        try:
            for job in jobs:
                futures.append(pool.submit(fn, job))
        except BrokenProcessPool:
            pass  # a worker died: collect what was submitted
        for index, future in enumerate(futures):
            try:
                results[index] = future.result(timeout=timeout)
            except concurrent.futures.TimeoutError:
                timed_out.append(index)
            except BrokenProcessPool:
                break  # nothing more will come out of this pool
            except Exception:               # noqa: BLE001 — isolation
                pass
    finally:
        if timed_out:
            # every job that did not time out has finished, so a live
            # worker is idle or stuck on a timed-out job; killing one
            # breaks the pool and the pool then stops the others
            # (Python 3.14's terminate_workers() does the same)
            for process in list(pool._processes.values()):
                process.terminate()
        pool.shutdown(wait=True, cancel_futures=bool(timed_out))
    return results, timed_out
