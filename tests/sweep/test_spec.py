"""Spec validation, canonical expansion, sharding and point keys."""

from pathlib import Path

import pytest

from repro.sweep import (
    SpecError,
    SweepSpec,
    expand,
    parse_shard,
    point_key,
    shard,
    spec_hash,
)

SWEEPS = Path(__file__).resolve().parents[2] / "sweeps"


def make_spec(**overrides):
    base = dict(
        name="t",
        apps=["2mm", "bfs"],
        scales=[0.1],
        base_config="tiny",
        axes={"l1_size": [1024, 2048]},
    )
    base.update(overrides)
    return SweepSpec(**base).validate()


class TestValidation:
    def test_valid_spec_passes(self):
        make_spec()

    @pytest.mark.parametrize("overrides", [
        {"name": ""},
        {"apps": []},
        {"apps": ["nope"]},
        {"apps": ["2mm", "2mm"]},
        {"scales": []},
        {"scales": [0.0]},
        {"scales": [-1.0]},
        {"scales": [0.1, 0.1]},
        {"seed": "seven"},
        {"base_config": "gt200"},
        {"axes": {"l1_size": []}},
        {"axes": {"l1_size": [1024, 1024]}},
        {"axes": {"no_such_knob": [1]}},
        {"axes": {"l1_size": [True]}},
        {"axes": {"cta_policy": ["bogus"]}},
        {"axes": {"l2_clusters": [-1]}},
        {"axes": {"l2_clusters": [True]}},
        {"fixed": {"no_such_knob": 1}},
        {"fixed": {"l1_size": "big"}},
        {"axes": {"l1_size": [1024]}, "fixed": {"l1_size": 2048}},
        {"metrics": []},
        {"metrics": ["not_a_metric"]},
    ])
    def test_bad_specs_rejected(self, overrides):
        with pytest.raises(SpecError):
            make_spec(**overrides)

    def test_organization_knobs_accepted(self):
        make_spec(axes={"cta_policy": ["round_robin", "clustered"],
                        "l2_clusters": [0, 2]})

    @pytest.mark.parametrize("knob", ["warp_scheduler", "prefetcher",
                                      "cta_policy"])
    def test_bad_choice_rejected_at_load(self, knob):
        """A value outside the knob's choices fails when the spec loads,
        not per point after its app has been emulated."""
        base = {"name": "t", "apps": ["2mm"], "scales": [0.1]}
        with pytest.raises(SpecError, match=knob):
            SweepSpec.from_json(dict(base, axes={knob: ["bogus"]}))
        with pytest.raises(SpecError, match=knob):
            SweepSpec.from_json(dict(base, fixed={knob: "bogus"}))

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(SpecError, match="unknown spec field"):
            SweepSpec.from_json({"name": "t", "apps": ["2mm"],
                                 "scales": [0.1], "shards": 4})

    def test_from_json_accepts_singular_scale(self):
        spec = SweepSpec.from_json(
            {"name": "t", "apps": ["2mm"], "scale": 0.1,
             "base_config": "tiny"})
        assert spec.scales == [0.1]

    def test_from_json_rejects_scale_and_scales(self):
        with pytest.raises(SpecError, match="not both"):
            SweepSpec.from_json({"name": "t", "apps": ["2mm"],
                                 "scale": 0.1, "scales": [0.1]})

    def test_json_roundtrip(self):
        spec = make_spec(metrics=["cycles"], fixed={"l2_size": 8192},
                        description="d", seed=11)
        again = SweepSpec.from_json(spec.to_json())
        assert again == spec


class TestExpansion:
    def test_canonical_order_last_axis_fastest(self):
        spec = make_spec(apps=["2mm", "bfs"], scales=[0.1, 0.2],
                         axes={"l1_size": [1024, 2048],
                               "l2_clusters": [0, 2]})
        points = expand(spec)
        assert len(points) == 2 * 2 * 2 * 2
        labels = [(p.app, p.scale, dict(p.knobs)["l1_size"],
                   dict(p.knobs)["l2_clusters"]) for p in points]
        assert labels[:4] == [("2mm", 0.1, 1024, 0), ("2mm", 0.1, 1024, 2),
                              ("2mm", 0.1, 2048, 0), ("2mm", 0.1, 2048, 2)]
        assert labels[4][1] == 0.2          # scales before next app
        assert labels[8][0] == "bfs"        # apps outermost

    def test_no_axes_is_one_point_per_app_scale(self):
        spec = make_spec(axes={})
        points = expand(spec)
        assert [(p.app, p.knobs) for p in points] == [
            ("2mm", ()), ("bfs", ())]

    def test_params_include_app_and_scale(self):
        point = expand(make_spec())[0]
        assert point.params == {"app": "2mm", "scale": 0.1,
                                "l1_size": 1024}
        assert "l1_size=1024" in point.label()


class TestSharding:
    def test_round_robin_assignment(self):
        points = list(range(10))
        assert shard(points, 1, 3) == [0, 3, 6, 9]
        assert shard(points, 2, 3) == [1, 4, 7]
        assert shard(points, 3, 3) == [2, 5, 8]

    def test_single_shard_is_identity(self):
        points = list(range(5))
        assert shard(points, 1, 1) == points

    @pytest.mark.parametrize("index,count", [(0, 3), (4, 3), (1, 0)])
    def test_out_of_range_rejected(self, index, count):
        with pytest.raises(SpecError):
            shard([1, 2, 3], index, count)

    def test_parse_shard(self):
        assert parse_shard("2/4") == (2, 4)
        assert parse_shard("1/1") == (1, 1)

    @pytest.mark.parametrize("text", ["", "2", "0/4", "5/4", "a/b", "1/0"])
    def test_parse_shard_rejects(self, text):
        with pytest.raises(SpecError):
            parse_shard(text)


class TestKeys:
    def test_key_ignores_cosmetic_fields(self):
        a = make_spec()
        b = make_spec(name="renamed", description="new words",
                      metrics=["cycles"])
        for pa, pb in zip(expand(a), expand(b)):
            assert point_key(a, pa) == point_key(b, pb)

    def test_key_ignores_axis_declaration_order(self):
        a = make_spec(axes={"l1_size": [1024], "l2_clusters": [2]})
        b = make_spec(axes={"l2_clusters": [2], "l1_size": [1024]})
        assert ({point_key(a, p) for p in expand(a)}
                == {point_key(b, p) for p in expand(b)})

    @pytest.mark.parametrize("overrides", [
        {"seed": 8},
        {"base_config": "tesla"},
        {"fixed": {"l2_size": 8192}},
        {"scales": [0.2]},
        {"apps": ["bfs", "2mm"]},  # first point differs
    ])
    def test_key_covers_result_determining_fields(self, overrides):
        a, b = make_spec(), make_spec(**overrides)
        assert (point_key(a, expand(a)[0])
                != point_key(b, expand(b)[0]))

    def test_semi_l2_keys_are_stable(self):
        """``l2_clusters`` became a config field without changing a key:
        completed ``sweeps/semi_l2.json`` points stay valid."""
        spec = SweepSpec.load(SWEEPS / "semi_l2.json")
        assert [point_key(spec, p) for p in expand(spec)] == [
            "0c9285ffda961eb872292b2d75d47e64be04d30ef10528c944429112c1e82bf2",
            "91a90acc2092efda0a1e772a965c2fa5dcd401483db9a752e5864f88daf5be7b",
            "e9948cbc3913bb4ca13929e0e30f2723290aaaafd76ac5caac1ee4592561b8c2",
            "627579c78814109e11e8665a8a02831c727beb605f0ea42de66cf069837e9f96",
            "5a6194ce10b0a37b5073a8c2734b2f465a4df4c0ab02dd043cf69586b900916a",
            "1b22d5092ce914c8c6ff96ef65bd92ce790a0f42eae62c9c242985123b70673e",
        ]

    def test_spec_hash_covers_cosmetics(self):
        assert spec_hash(make_spec()) != spec_hash(make_spec(name="other"))
        assert spec_hash(make_spec()) == spec_hash(make_spec())
