"""Golden outcomes of the Section X.A trace-transform ablations.

``compare_warp_splitting`` and ``compare_perfect_coalescing`` rewrite
every non-deterministic load of a trace and re-simulate the result.
The fixtures pin what those re-simulations report (cycles, N
requests/warp, reservation-fail fraction, mean N turnaround) for two
irregular apps on :data:`~repro.experiments.runner.BENCH_CONFIG`, so a
change to the transforms or to the trace layout they build shows up
as a diff here rather than only as a shifted advise report.

Regenerate after an *intentional* change with::

    pytest -m golden --update-golden
"""

import dataclasses
import json
import os

import pytest

from repro.experiments.runner import BENCH_CONFIG
from repro.optim.coalesce_oracle import compare_perfect_coalescing
from repro.optim.warp_split import compare_warp_splitting
from repro.workloads import get_workload

ABLATION_SCALE = 0.05

ABLATION_APPS = ("bfs", "mis")

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures",
                           "ablations")

pytestmark = pytest.mark.golden


def compute_ablation_outcomes(name):
    run = get_workload(name, scale=ABLATION_SCALE).run(verify=False)

    def as_dict(outcomes):
        return {label: dataclasses.asdict(outcome)
                for label, outcome in outcomes.items()}

    return {
        "scale": ABLATION_SCALE,
        "warp_splitting": as_dict(compare_warp_splitting(run, BENCH_CONFIG)),
        "perfect_coalescing": as_dict(
            compare_perfect_coalescing(run, BENCH_CONFIG)),
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
