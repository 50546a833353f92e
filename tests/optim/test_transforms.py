"""Tests for the transform table (``repro.optim``): every candidate the
advisor's rules can name simulates, and nothing else does."""

import itertools

import pytest

from repro.advise.features import LoadFeatures
from repro.advise.rules import diagnose
from repro.optim import TRANSFORMS, configure, simulate
from repro.sim.config import TINY
from repro.sim.gpu import GPU

from tests.sim_matrix import stats_document


def features(load_class, shared_fraction):
    """A load that fires every rule its class allows."""
    return LoadFeatures(
        kernel="k", pc=0x10, line=1, text="ld.global.u32",
        load_class=load_class, tainting_pcs=(), warp_ops=100,
        requests_per_warp=32.0, mean_active_lanes=32.0,
        max_lines_per_op=32, cold_miss_ratio=0.5,
        shared_fraction=shared_fraction, far_reuse_fraction=1.0,
        traffic_share=1.0)


def nameable_candidates():
    loads = [features(cls, shared)
             for cls, shared in itertools.product(("D", "N", None),
                                                  (0.0, 1.0))]
    return {c for d in diagnose(loads) for c in d.candidates}


def test_every_rule_candidate_has_a_table_entry():
    candidates = nameable_candidates()
    assert candidates == set(TRANSFORMS)
    for transform in candidates:
        config, _rewrite = configure(transform, TINY, cluster_size=1)
        config.validate()


def test_unknown_transform_raises():
    with pytest.raises(ValueError, match="unknown transform"):
        configure("prefetch", TINY)
    with pytest.raises(ValueError, match="unknown transform"):
        simulate(None, TINY, "prefetch")


def test_trace_transforms_keep_the_config():
    config = TINY.scaled(cta_policy="clustered")
    for transform in ("warp_split", "coalesce_oracle"):
        got, rewrite = configure(transform, config)
        assert got is config
        assert rewrite is not None


def test_baseline_is_the_plain_simulation(twomm_run):
    fresh = GPU(TINY).run_application(twomm_run.trace,
                                      twomm_run.classifications)
    assert stats_document(simulate(twomm_run, TINY)) == \
        stats_document(fresh)
