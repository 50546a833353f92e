"""Golden outcomes of the Section X.A trace-transform ablations.

The ``warp_split`` and ``coalesce_oracle`` entries of the
:mod:`repro.optim` transform table rewrite every non-deterministic load
of a trace and re-simulate the result.
The fixtures pin what those re-simulations report (cycles, N
requests/warp, reservation-fail fraction, mean N turnaround) for two
irregular apps on :data:`~repro.experiments.runner.BENCH_CONFIG`, so a
change to the transforms or to the trace layout they build shows up
as a diff here rather than only as a shifted advise report.

Regenerate after an *intentional* change with::

    pytest -m golden --update-golden
"""

import json
import os

import pytest

from repro.experiments.runner import BENCH_CONFIG
from repro.optim import COALESCE_ORACLE, WARP_SPLIT, simulate
from repro.workloads import get_workload

ABLATION_SCALE = 0.05

ABLATION_APPS = ("bfs", "mis")

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures",
                           "ablations")

pytestmark = pytest.mark.golden


def outcome(label, stats):
    """The five fields a fixture pins for one simulated variant."""
    n = stats.classes["N"]
    return {
        "label": label,
        "cycles": stats.cycles,
        "n_requests_per_warp": n.requests_per_warp(),
        "reservation_fail_fraction": stats.reservation_fail_fraction(),
        "mean_n_turnaround": n.mean_turnaround(),
    }


def compute_ablation_outcomes(name):
    run = get_workload(name, scale=ABLATION_SCALE).run(verify=False)
    baseline = outcome("baseline", simulate(run, BENCH_CONFIG))
    return {
        "scale": ABLATION_SCALE,
        "warp_splitting": {
            "baseline": baseline,
            "split": outcome("split(max=4)",
                             simulate(run, BENCH_CONFIG, WARP_SPLIT)),
        },
        "perfect_coalescing": {
            "baseline": baseline,
            "coalesced": outcome(
                "perfectly coalesced",
                simulate(run, BENCH_CONFIG, COALESCE_ORACLE)),
        },
    }


@pytest.mark.parametrize("name", ABLATION_APPS)
def test_ablation_outcomes_match_golden(name, request):
    actual = compute_ablation_outcomes(name)
    path = os.path.join(FIXTURE_DIR, "%s.json" % name)

    if request.config.getoption("--update-golden"):
        os.makedirs(FIXTURE_DIR, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(actual, fh, indent=2, sort_keys=True)
            fh.write("\n")
        pytest.skip("golden fixture updated: %s" % path)

    assert os.path.exists(path), (
        "no ablation fixture for %r — generate one with "
        "`pytest -m golden --update-golden`" % name)
    with open(path) as fh:
        expected = json.load(fh)
    actual = json.loads(json.dumps(actual))
    assert actual == expected, (
        "ablation outcomes drifted for %r; if intentional, rerun with "
        "--update-golden and commit the fixture diff" % name)
