"""Spec dataclasses: validation and lossless JSON round-tripping."""

import json

import pytest

from repro.errors import HarvestModelError, SpecError
from repro.harvest.environment import LightingCondition, ThermalCondition
from repro.scenarios import (
    AppSpec,
    BatterySpec,
    PolicySpec,
    ScenarioSpec,
    SegmentSpec,
    SystemSpec,
    TimelineSpec,
)

FINITE_SEGMENT = {"duration_s": 60.0, "lux": 500.0, "ambient_c": 22.0,
                  "skin_c": 32.0, "wind_ms": 1.0}
FINITE_THERMAL = {"ambient_c": 22.0, "skin_c": 32.0, "wind_ms": 1.0}
NAMED_SCENARIO = {"name": "x",
                  "timeline": TimelineSpec(name="paper_indoor_day")}


def inline_scenario() -> ScenarioSpec:
    return ScenarioSpec(
        name="custom_inline",
        timeline=TimelineSpec(segments=(
            SegmentSpec(duration_s=3600.0, lux=700.0, ambient_c=22.0,
                        skin_c=32.0, label="office"),
            SegmentSpec(duration_s=7200.0, lux=0.0, ambient_c=15.0,
                        skin_c=30.0, wind_ms=5.0, label="windy night"),
        )),
        system=SystemSpec(
            harvester="calibrated_dual",
            battery=BatterySpec(initial_soc=0.3, capacity_mah=90.0),
            policy=PolicySpec(params={"max_rate_per_min": 12.0}),
            app=AppSpec(processor="arm_m4f"),
        ),
        step_s=120.0,
        duration_s=5400.0,
        description="hand-built inline scenario",
    )


class TestRoundTrip:
    def test_named_timeline_round_trip(self):
        spec = ScenarioSpec(name="x", timeline=TimelineSpec(name="paper_indoor_day"))
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_inline_scenario_round_trip(self):
        spec = inline_scenario()
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_round_trip_preserves_none_duration(self):
        spec = ScenarioSpec(name="x", timeline=TimelineSpec(name="paper_indoor_day"),
                            duration_s=None)
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt.duration_s is None

    def test_library_scenarios_round_trip(self):
        from repro.scenarios import all_scenarios

        for spec in all_scenarios():
            rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert rebuilt == spec


class TestValidation:
    def test_scenario_needs_name(self):
        with pytest.raises(SpecError):
            ScenarioSpec(name="", timeline=TimelineSpec(name="paper_indoor_day"))

    def test_scenario_step_must_be_positive(self):
        with pytest.raises(SpecError):
            ScenarioSpec(name="x", timeline=TimelineSpec(name="paper_indoor_day"),
                         step_s=0.0)

    def test_timeline_needs_exactly_one_form(self):
        with pytest.raises(SpecError):
            TimelineSpec()
        with pytest.raises(SpecError):
            TimelineSpec(name="paper_indoor_day",
                         segments=(SegmentSpec(1.0, 0.0, 22.0, 32.0),))

    def test_segment_validation(self):
        with pytest.raises(SpecError):
            SegmentSpec(duration_s=0.0, lux=0.0, ambient_c=22.0, skin_c=32.0)
        with pytest.raises(SpecError):
            SegmentSpec(duration_s=1.0, lux=-1.0, ambient_c=22.0, skin_c=32.0)
        with pytest.raises(SpecError):
            SegmentSpec(duration_s=1.0, lux=0.0, ambient_c=22.0, skin_c=32.0,
                        wind_ms=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("make, kwargs, field, error", [
        *((SegmentSpec, FINITE_SEGMENT, field, SpecError)
          for field in FINITE_SEGMENT),
        (LightingCondition, {"lux": 500.0}, "lux", HarvestModelError),
        *((ThermalCondition, FINITE_THERMAL, field, HarvestModelError)
          for field in FINITE_THERMAL),
        *((ScenarioSpec, NAMED_SCENARIO, field, SpecError)
          for field in ("step_s", "duration_s")),
        (SystemSpec, {}, "sleep_power_w", SpecError),
        *((BatterySpec, {}, field, SpecError)
          for field in ("capacity_mah", "internal_resistance_ohm",
                        "charge_efficiency")),
    ])
    def test_non_finite_physical_input_rejected(self, make, kwargs, field,
                                                error, value):
        """NaN or infinite light, temperature, wind or duration would
        otherwise run as darkness or a zero-length day, an infinite
        horizon would never end and a NaN capacity would fail mid-run;
        the error names the field."""
        make(**kwargs)  # the finite baseline builds
        with pytest.raises(error, match=field):
            make(**{**kwargs, field: value})

    def test_battery_soc_bounds(self):
        with pytest.raises(SpecError):
            BatterySpec(initial_soc=1.5)

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict({"name": "x",
                                    "timeline": {"name": "paper_indoor_day"},
                                    "bogus": 1})
        with pytest.raises(SpecError):
            BatterySpec.from_dict({"kind": "lipo", "volts": 3.7})
        with pytest.raises(SpecError):
            TimelineSpec.from_dict({"name": "d", "extra": True})

    def test_from_dict_requires_mapping(self):
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict(["not", "a", "dict"])

    def test_from_dict_requires_name_and_timeline(self):
        with pytest.raises(SpecError):
            ScenarioSpec.from_dict({"name": "x"})

    def test_sleep_power_cannot_be_negative(self):
        with pytest.raises(SpecError):
            SystemSpec(sleep_power_w=-1.0)


class TestPolicySpec:
    def test_round_trip_with_params(self):
        spec = PolicySpec(name="ewma_forecast",
                          params={"alpha": 0.5, "max_rate_per_min": 12.0})
        rebuilt = PolicySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.params == {"alpha": 0.5, "max_rate_per_min": 12.0}

    def test_default_is_energy_aware_with_no_params(self):
        spec = PolicySpec()
        assert spec.name == "energy_aware"
        assert spec.params == {}
        assert PolicySpec.from_dict({}) == spec

    def test_name_cannot_be_empty(self):
        with pytest.raises(SpecError):
            PolicySpec(name="")

    def test_params_must_be_scalars_or_nested_arrays(self):
        with pytest.raises(SpecError, match="JSON scalar"):
            PolicySpec(params={"table": {"a": 1.0}})
        with pytest.raises(SpecError, match="JSON scalar"):
            PolicySpec(params={"rates": [1.0, {"a": 1.0}]})
        with pytest.raises(SpecError, match="non-empty strings"):
            PolicySpec(params={"": 1.0})

    def test_nested_array_params_round_trip(self):
        """Weight-blob params (nested arrays) survive the JSON cycle."""
        weights = [[[0.25, -1.5, 3.0], [0.0, 2.0, -0.125]],
                   [[1.0, -2.0, 0.5]]]
        spec = PolicySpec(name="learned",
                          params={"weights": weights, "features": 1})
        rebuilt = PolicySpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.params["weights"] == weights

    def test_tuple_params_normalize_to_lists(self):
        """Sequence params compare and serialize as plain lists."""
        spec = PolicySpec(params={"rates": ((1.0, 2.0), (3.0,))})
        assert spec.params["rates"] == [[1.0, 2.0], [3.0]]
        assert spec == PolicySpec(params={"rates": [[1.0, 2.0], [3.0]]})

    def test_param_scalar_budget_is_capped(self):
        from repro.scenarios.spec import MAX_PARAM_SCALARS

        within = {"weights": [0.0] * (MAX_PARAM_SCALARS - 1), "tag": "ok"}
        assert PolicySpec(params=within).params["tag"] == "ok"
        over = {"weights": [0.0] * MAX_PARAM_SCALARS, "tag": "no"}
        with pytest.raises(SpecError, match="exceed .* scalar values"):
            PolicySpec(params=over)

    def test_param_nesting_depth_is_capped(self):
        from repro.scenarios.spec import MAX_PARAM_DEPTH

        nested: object = 1.0
        for _ in range(MAX_PARAM_DEPTH):
            nested = [nested]
        assert PolicySpec(params={"deep": nested}).params["deep"] == nested
        with pytest.raises(SpecError, match="nests arrays deeper"):
            PolicySpec(params={"deep": [nested]})

    def test_legacy_flat_form_gets_redesign_pointer(self):
        """Pre-protocol payloads fail with a message naming the new
        {'name', 'params'} shape, not a bare unknown-key error."""
        with pytest.raises(SpecError, match="redesigned"):
            PolicySpec.from_dict({"kind": "energy_aware",
                                  "max_rate_per_min": 24.0})

    def test_unknown_keys_rejected(self):
        with pytest.raises(SpecError, match="unknown PolicySpec keys"):
            PolicySpec.from_dict({"name": "energy_aware", "knobs": {}})
