"""Golden timing-model outcomes.

The fixtures under ``fixtures/sim/`` pin the complete simulator result
of every case in :data:`tests.sim_matrix.SIM_CASES`: every
:class:`~repro.sim.stats.SimStats` field and the registry snapshot
:meth:`~repro.sim.gpu.GPU.publish_metrics` writes.  A change to the
simulator that shifts any cycle count, stall tally or turnaround shows
up here as a diff.

Regenerate after an *intentional* timing-model change with::

    pytest -m golden --update-golden tests/golden/test_golden_sim.py
"""

import json
import os

import pytest

from tests.sim_matrix import (
    SIM_CASES, SIM_SCALE, make_gpu, sim_document, simulate)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "sim")

pytestmark = pytest.mark.golden


def fixture_path(app, variant):
    return os.path.join(FIXTURE_DIR, "%s-%s.json" % (app, variant))


def load_fixture(app, variant):
    with open(fixture_path(app, variant)) as fh:
        return json.load(fh)


@pytest.mark.parametrize("app,variant", SIM_CASES)
def test_sim_matches_golden(app, variant, request):
    actual = sim_document(app, simulate(app, make_gpu(variant)))
    actual["scale"] = SIM_SCALE
    path = fixture_path(app, variant)

    if request.config.getoption("--update-golden"):
        os.makedirs(FIXTURE_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(actual, fh, indent=1, sort_keys=True)
            fh.write("\n")
        pytest.skip("golden fixture updated: %s" % path)

    assert os.path.exists(path), (
        "no sim fixture for %s/%s — generate one with "
        "`pytest -m golden --update-golden`" % (app, variant))
    assert actual == load_fixture(app, variant), (
        "simulator results drifted for %s/%s; if intentional, rerun with "
        "--update-golden and commit the fixture diff" % (app, variant))


def test_every_sim_fixture_has_a_case():
    """Stale fixtures (for removed apps or variants) fail the suite."""
    have = {f[:-5] for f in os.listdir(FIXTURE_DIR) if f.endswith(".json")}
    want = {"%s-%s" % case for case in SIM_CASES}
    assert have == want, "fixture set differs: extra %s, missing %s" % (
        sorted(have - want), sorted(want - have))
