"""Golden trace profiles.

The fixtures under ``fixtures/profile/`` pin, for every application at
:data:`PROFILE_SCALE`, the four trace-level profiles built from the
coalesced global accesses of an emulation-only run:

* every :class:`~repro.profiling.locality.LocalityReport` field,
  including the combined and per-class CTA-distance histograms
  (Figures 10-12);
* the :class:`~repro.profiling.heatmap.HeatMapReport` JSON document;
* the :class:`~repro.profiling.irregularity.IrregularityReport`;
* the per-class histograms of memory requests per warp load (Figure 6).

A change to how an access is coalesced, filtered or attributed shows up
here as a diff.  Regenerate after an *intentional* change with::

    pytest -m golden --update-golden tests/golden/test_golden_profiles.py
"""

import dataclasses
import json
import os

import pytest

from repro.profiling.irregularity import measure_irregularity
from repro.profiling.trace_profile import profile_trace
from repro.workloads import get_workload, workload_names

PROFILE_SCALE = 0.1

PROFILE_APPS = workload_names(include_extended=True)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures",
                           "profile")

pytestmark = pytest.mark.golden


def _hist(counter):
    return {str(k): v for k, v in sorted(counter.items())}


def compute_profiles(name):
    run = get_workload(name, scale=PROFILE_SCALE).run(verify=False)
    profile = profile_trace(run.trace, run.classifications)
    locality = profile.locality
    fields = {f.name: getattr(locality, f.name)
              for f in dataclasses.fields(locality)}
    fields["distance_hist"] = _hist(locality.distance_hist)
    fields["distance_hist_by_class"] = {
        label: _hist(hist)
        for label, hist in sorted(locality.distance_hist_by_class.items())}
    requests = profile.coalescing
    return {
        "scale": PROFILE_SCALE,
        "locality": fields,
        "heatmap": profile.heatmap.to_json(),
        "irregularity": dataclasses.asdict(measure_irregularity(run.trace)),
        "requests": {label: _hist(hist)
                     for label, hist in sorted(requests.histogram.items())},
    }


@pytest.mark.parametrize("name", PROFILE_APPS)
def test_profiles_match_golden(name, request):
    actual = compute_profiles(name)
    path = os.path.join(FIXTURE_DIR, "%s.json" % name)

    if request.config.getoption("--update-golden"):
        os.makedirs(FIXTURE_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(actual, fh, indent=1, sort_keys=True)
            fh.write("\n")
        pytest.skip("golden fixture updated: %s" % path)

    assert os.path.exists(path), (
        "no profile fixture for %r — generate one with "
        "`pytest -m golden --update-golden`" % name)
    with open(path) as fh:
        expected = json.load(fh)
    actual = json.loads(json.dumps(actual))
    assert actual == expected, (
        "trace profiles drifted for %r; if intentional, rerun with "
        "--update-golden and commit the fixture diff" % name)


def test_every_profile_fixture_has_an_app():
    """Stale fixtures (for renamed or removed workloads) fail the suite."""
    have = {f[:-5] for f in os.listdir(FIXTURE_DIR) if f.endswith(".json")}
    assert have == set(PROFILE_APPS), (
        "fixture set differs: extra %s, missing %s"
        % (sorted(have - set(PROFILE_APPS)),
           sorted(set(PROFILE_APPS) - have)))
