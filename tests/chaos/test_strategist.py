"""The strategist: seeded, shardable, bitwise-reproducible case
composition."""

import json

import pytest

from repro.chaos import (
    AXES,
    ChaosAxisSpec,
    ChaosSpec,
    ScenarioDraft,
    case_name,
    chaos_case,
    chaos_cases,
    generate_payload,
    register_axis,
)
from repro.errors import SpecError
from repro.scenarios.spec import ScenarioSpec, canonical_json
from repro.shard import members

SPEC = ChaosSpec(name="det", n_cases=6, horizon_days=2, seed=123)


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        first = canonical_json(generate_payload(SPEC))
        second = canonical_json(generate_payload(SPEC))
        assert first == second

    def test_different_seed_different_cases(self):
        other = ChaosSpec(name="det", n_cases=6, horizon_days=2, seed=124)
        assert (canonical_json(generate_payload(SPEC))
                != canonical_json(generate_payload(other)))

    def test_case_regenerates_alone(self):
        # Sharding correctness: case i never depends on cases < i.
        everything = chaos_cases(SPEC)
        for index in (0, 3, 5):
            assert chaos_case(SPEC, index) == everything[index]

    def test_cases_round_trip_as_scenario_specs(self):
        for case in chaos_cases(SPEC):
            payload = json.loads(canonical_json(case.to_dict()))
            assert ScenarioSpec.from_dict(payload) == case


class TestComposition:
    def test_case_names(self):
        assert case_name(SPEC, 3) == "det::case_0003"
        assert [case.name for case in chaos_cases(SPEC)] == [
            f"det::case_{i:04d}" for i in range(6)]

    def test_horizon_pinned_and_timeline_covers_it(self):
        for case in chaos_cases(SPEC):
            assert case.duration_s == SPEC.horizon_days * 86400.0
            covered = sum(seg.duration_s
                          for seg in case.timeline.segments)
            assert covered >= case.duration_s

    def test_empty_axes_means_all_registered(self):
        case = chaos_case(SPEC, 0)
        for name in AXES.names():
            assert name in case.description

    def test_battery_aging_applies_fade(self):
        aged = ChaosSpec(name="aged", n_cases=1,
                         axes=(ChaosAxisSpec("battery_aging"),))
        case = chaos_case(aged, 0)
        assert 0.0 < case.system.battery.capacity_fade < 1.0

    def test_explicit_axis_subset_only(self):
        quiet = ChaosSpec(name="quiet", n_cases=1,
                          axes=(ChaosAxisSpec("polar_winter"),))
        case = chaos_case(quiet, 0)
        assert case.faults == ()
        assert case.system.battery.capacity_fade == 0.0

    def test_trace_forced_off(self):
        assert all(case.trace == "none" for case in chaos_cases(SPEC))

    def test_unknown_axis_lists_registered(self):
        bogus = ChaosSpec(name="b", axes=(ChaosAxisSpec("warp_core"),))
        with pytest.raises(SpecError, match="warp_core"):
            chaos_case(bogus, 0)

    def test_index_bounds(self):
        with pytest.raises(SpecError, match="outside"):
            chaos_case(SPEC, 6)
        with pytest.raises(SpecError, match="outside"):
            chaos_case(SPEC, -1)

    def test_axis_params_validated_at_resolve(self):
        bad = ChaosSpec(name="b", axes=(
            ChaosAxisSpec("polar_winter", {"min_scale": 0.5,
                                           "max_scale": 0.1}),))
        with pytest.raises(SpecError, match="min_scale"):
            chaos_case(bad, 0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_axis_param_rejected_with_knob_name(self, value):
        bad = ChaosSpec(name="b", axes=(
            ChaosAxisSpec("polar_winter", {"min_scale": value}),))
        with pytest.raises(SpecError,
                           match="polar_winter axis param 'min_scale' "
                                 "must be finite"):
            chaos_case(bad, 0)

    def test_third_party_axis_registration(self):
        @register_axis("test_noop_axis")
        def _build(params):
            def apply(draft: ScenarioDraft, rng) -> None:
                pass
            return apply

        try:
            spec = ChaosSpec(name="n", n_cases=1,
                             axes=(ChaosAxisSpec("test_noop_axis"),))
            case = chaos_case(spec, 0)
            assert "test_noop_axis" in case.description
        finally:
            AXES.remove("test_noop_axis")


class TestSharding:
    def test_strided_partition(self):
        assert list(members(SPEC.n_cases, (0, 2))) == [0, 2, 4]
        assert list(members(SPEC.n_cases, (1, 2))) == [1, 3, 5]

    def test_shard_cases_match_full_campaign(self):
        everything = chaos_cases(SPEC)
        for shard in range(3):
            indices = members(SPEC.n_cases, (shard, 3))
            assert chaos_cases(SPEC, indices) == [everything[i]
                                                  for i in indices]

    def test_shard_validation(self):
        with pytest.raises(SpecError, match="shard index"):
            members(SPEC.n_cases, (2, 2))
        with pytest.raises(SpecError, match="shard count"):
            members(SPEC.n_cases, (0, 0))
        with pytest.raises(SpecError, match="integer"):
            members(SPEC.n_cases, (True, 2))
