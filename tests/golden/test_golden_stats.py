"""Golden-stats regression suite.

Each application has a checked-in JSON fixture holding its headline
counters — the dynamic D/N load mix, coalescing behaviour (warp loads,
memory requests, uncoalesced-load counts and the derived
uncoalesced-request ratio) and trace totals — computed from an
emulation-only run at a pinned scale.  The suite recomputes them and
asserts exact equality: any change to the emulator, the workload
generators or the classification logic that shifts these numbers fails
loudly here rather than silently skewing the paper's figures.

Run only this suite with ``pytest -m golden``.  After an *intentional*
behaviour change, regenerate fixtures with::

    pytest -m golden --update-golden

and commit the diff (it IS the reviewable summary of the behaviour
change).
"""

import json
import os

import pytest

from repro.obs.bridge import publish_trace
from repro.obs.metrics import MetricsRegistry
from repro.profiling.trace_profile import profile_trace
from repro.workloads import get_workload, workload_names

#: pinned scale for the fixtures — small for speed, non-degenerate.
GOLDEN_SCALE = 0.1

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")

GOLDEN_APPS = workload_names(include_extended=True)

pytestmark = pytest.mark.golden


def _fixture_path(name):
    return os.path.join(FIXTURE_DIR, "%s.json" % name)


def compute_headline_stats(name):
    """The golden document for one app: trace-level registry snapshot
    plus derived headline ratios (all deterministic counts)."""
    run = get_workload(name, scale=GOLDEN_SCALE).run(verify=False)
    reg = MetricsRegistry()
    coalescing = profile_trace(run.trace, run.classifications).coalescing
    publish_trace(name, run, coalescing, reg)
    snap = reg.snapshot()

    det, nondet = run.dynamic_class_split()
    total = det + nondet
    warp_loads = reg.get("app.coalescing.warp_loads")
    requests = reg.get("app.coalescing.requests")
    uncoalesced = reg.get("app.coalescing.uncoalesced_loads")

    def ratio(num, den):
        return num / den if den else 0.0

    all_loads = warp_loads.total()
    return {
        "scale": GOLDEN_SCALE,
        "metrics": snap,
        "headline": {
            "dynamic_load_mix": {
                "D": ratio(det, total),
                "N": ratio(nondet, total),
            },
            "uncoalesced_load_ratio": ratio(uncoalesced.total(), all_loads),
            "requests_per_warp_load": ratio(requests.total(), all_loads),
            "warp_insts": run.trace.total_warp_instructions(),
        },
    }


@pytest.mark.parametrize("name", GOLDEN_APPS)
def test_headline_stats_match_golden(name, request):
    actual = compute_headline_stats(name)
    path = _fixture_path(name)

    if request.config.getoption("--update-golden"):
        os.makedirs(FIXTURE_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(actual, fh, indent=2, sort_keys=True)
            fh.write("\n")
        pytest.skip("golden fixture updated: %s" % path)

    assert os.path.exists(path), (
        "no golden fixture for %r — generate one with "
        "`pytest -m golden --update-golden`" % name)
    with open(path) as fh:
        expected = json.load(fh)
    # round-trip through JSON so float representation matches the file
    actual = json.loads(json.dumps(actual))
    assert actual == expected, (
        "golden stats drifted for %r; if intentional, rerun with "
        "--update-golden and commit the fixture diff" % name)


def test_every_fixture_has_a_registered_app():
    """Stale fixtures (for renamed/removed workloads) fail the suite."""
    if not os.path.isdir(FIXTURE_DIR):
        pytest.skip("no fixtures generated yet")
    have = {f[:-5] for f in os.listdir(FIXTURE_DIR) if f.endswith(".json")}
    assert have <= set(GOLDEN_APPS), (
        "orphan golden fixtures: %s" % sorted(have - set(GOLDEN_APPS)))
