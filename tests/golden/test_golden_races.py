"""Golden race reports.

The fixtures under ``fixtures/races/`` pin
:meth:`~repro.analysis.races.RaceReport.to_json` of both detector
modes — the barrier-interval baseline and the predictive
happens-before detector — for every application at :data:`RACE_SCALE`
and for every case of the planted-bug corpus
(:data:`repro.testing.races.ALL_CASES`).  Any change to how either
detector walks a warp, attributes a finding or counts its ops shows up
here as a diff.  Regenerate after an *intentional* change with::

    pytest -m golden --update-golden tests/golden/test_golden_races.py
"""

import functools
import json
import os

import pytest

from repro.analysis import RaceKind, analyze_trace
from repro.testing.races import ALL_CASES, get_planted
from repro.workloads import get_workload, workload_names

RACE_SCALE = 0.1

MODES = ("interval", "predictive")

RACE_APPS = workload_names(include_extended=True)

CASE_NAMES = [case.name for case in ALL_CASES]

#: the finding kinds both detectors derive from the same warp walk and
#: the same launch-wide store check
SHARED_KINDS = (RaceKind.DIVERGENT_BARRIER, RaceKind.BARRIER_MISMATCH,
                RaceKind.GLOBAL_WRITE_CONFLICT)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures", "races")

pytestmark = pytest.mark.golden


@functools.lru_cache(maxsize=None)
def compute_reports(name):
    """``{mode: RaceReport.to_json()}`` for one app or corpus case."""
    if name in CASE_NAMES:
        case = get_planted(name)
        return {mode: case.run(mode=mode).to_json() for mode in MODES}
    run = get_workload(name, scale=RACE_SCALE).run(verify=False)
    return {mode: analyze_trace(run.trace, run.classifications, app=name,
                                mode=mode).to_json()
            for mode in MODES}


def _fixture_path(name):
    return os.path.join(FIXTURE_DIR, "%s.json" % name)


@pytest.mark.parametrize("name", RACE_APPS + CASE_NAMES)
def test_race_reports_match_golden(name, request):
    actual = json.loads(json.dumps(compute_reports(name)))
    path = _fixture_path(name)
    if request.config.getoption("--update-golden"):
        os.makedirs(FIXTURE_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(actual, fh, indent=2, sort_keys=True)
            fh.write("\n")
        pytest.skip("golden fixture updated: %s" % path)
    assert os.path.exists(path), (
        "no golden race fixture for %r — generate one with "
        "`pytest -m golden --update-golden`" % name)
    with open(path) as fh:
        expected = json.load(fh)
    assert actual == expected, (
        "race reports drifted for %r; if intentional, rerun with "
        "--update-golden and commit the fixture diff" % name)


@pytest.mark.parametrize("name", RACE_APPS + CASE_NAMES)
def test_modes_agree_on_shared_kinds(name):
    """Both modes report the same divergent barriers, barrier
    mismatches and inter-CTA store conflicts over the same ops."""
    reports = compute_reports(name)

    def shared(report):
        return [f for f in report["findings"] if f["kind"] in SHARED_KINDS]

    interval, predictive = reports["interval"], reports["predictive"]
    assert shared(interval) == shared(predictive)
    assert interval["ops_checked"] == predictive["ops_checked"]


def test_every_fixture_has_a_source():
    """Stale fixtures (for renamed/removed apps or cases) fail."""
    if not os.path.isdir(FIXTURE_DIR):
        pytest.skip("no race fixtures generated yet")
    have = {f[:-5] for f in os.listdir(FIXTURE_DIR) if f.endswith(".json")}
    assert have <= set(RACE_APPS + CASE_NAMES), (
        "orphan race fixtures: %s" % sorted(have - set(RACE_APPS
                                                       + CASE_NAMES)))
