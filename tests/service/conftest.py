"""Fixtures shared by the service tests."""

import gc

import pytest


@pytest.fixture(autouse=True)
def collect_garbage():
    """Collect a test's garbage at its teardown.

    A socket or response the test left open is finalized here, so its
    ``ResourceWarning`` is reported against this test (CI turns it into
    an error) instead of whenever a later collection happens to run.
    """
    yield
    gc.collect()
