"""Shared fixtures: small cached workload runs and simulator configs.

Workload runs are session-scoped because emulation is the expensive part
of the suite; tests must treat them as read-only.
"""

import concurrent.futures
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments.runner import ExperimentRunner
from repro.sim.config import TINY
from repro.workloads import get_workload

#: a small but non-degenerate scale used across the suite.
TEST_SCALE = 0.25


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="rewrite the golden stats fixtures in tests/golden/fixtures "
             "instead of asserting against them")

#: timing config for tests: tiny caches, 2 SMs — fast and stressful.
TEST_CONFIG = TINY


@pytest.fixture(scope="session")
def twomm_run():
    return get_workload("2mm", scale=TEST_SCALE).run()


@pytest.fixture(scope="session")
def bfs_run():
    return get_workload("bfs", scale=TEST_SCALE).run()


@pytest.fixture(scope="session")
def spmv_run():
    return get_workload("spmv", scale=TEST_SCALE).run()


@pytest.fixture(scope="session")
def bpr_run():
    return get_workload("bpr", scale=TEST_SCALE).run()


@pytest.fixture(scope="session")
def test_runner():
    """An ExperimentRunner over the tiny config, shared by the harness
    tests (results are cached inside)."""
    return ExperimentRunner(scale=TEST_SCALE, config=TINY.scaled(num_sms=2))


class _PoolBrokenAtSecondSubmit(concurrent.futures.Executor):
    """Runs the first submitted job in-process, then raises
    :class:`BrokenProcessPool` from ``submit`` — what
    ``ProcessPoolExecutor.submit`` does once a worker has died."""

    def __init__(self, max_workers=None):
        self.submits = 0

    def submit(self, fn, *args, **kwargs):
        self.submits += 1
        if self.submits == 2:
            raise BrokenProcessPool("a worker died before this submit")
        future = concurrent.futures.Future()
        future.set_result(fn(*args, **kwargs))
        return future


@pytest.fixture
def pool_broken_at_second_submit(monkeypatch):
    """Replace the process pool with one that breaks on its second
    ``submit``."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        _PoolBrokenAtSecondSubmit)
