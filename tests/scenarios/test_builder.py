"""Builder: spec -> live system, component by component."""

import json

import pytest

from repro.core import ManagerPolicy, StressDetectionApp
from repro.errors import RegistryError
from repro.harvest.dual import DualSourceHarvester
from repro.power.battery import LiPoBattery
from repro.scenarios import (
    AppSpec,
    BatterySpec,
    PolicySpec,
    ScenarioSpec,
    SegmentSpec,
    SystemSpec,
    TimelineSpec,
    build_app,
    build_battery,
    build_harvester,
    build_policy,
    build_simulation,
    build_timeline,
    get_scenario,
)
from tests.helpers import default_simulation


class TestComponentBuilders:
    def test_default_battery_matches_stock_cell(self):
        built = build_battery()
        stock = LiPoBattery()
        # Every constructor parameter: BatterySpec re-declares the
        # core defaults, so a retune of LiPoBattery must fail here.
        assert built.capacity_c == stock.capacity_c
        assert built.state_of_charge == stock.state_of_charge
        assert built.internal_resistance_ohm == stock.internal_resistance_ohm
        assert built.charge_efficiency == stock.charge_efficiency
        assert built.undervoltage_lockout_v == stock.undervoltage_lockout_v
        assert built.overvoltage_v == stock.overvoltage_v

    def test_default_policy_matches_paper_policy(self):
        from repro.policies import EnergyAwarePolicy

        built = build_policy()
        assert isinstance(built, EnergyAwarePolicy)
        assert built.manager.policy == ManagerPolicy()

    def test_unknown_policy_name_lists_registered(self):
        from repro.errors import SpecError
        from repro.scenarios import PolicySpec

        with pytest.raises(SpecError, match="energy_aware"):
            build_policy(PolicySpec(name="perpetual_motion"))

    def test_default_app_matches_stock_app(self):
        built = build_app()
        stock = StressDetectionApp()
        assert built.processor == stock.processor
        assert (built.energy_budget().total_j
                == pytest.approx(stock.energy_budget().total_j))

    def test_default_harvester_is_calibrated_dual(self):
        assert isinstance(build_harvester(), DualSourceHarvester)

    def test_unknown_component_raises(self):
        with pytest.raises(RegistryError):
            build_harvester("warp_core")
        with pytest.raises(RegistryError):
            build_battery(BatterySpec(kind="flux_capacitor"))
        with pytest.raises(RegistryError):
            build_app(AppSpec(network="network_z"))

    def test_named_timeline_matches_factory(self):
        from repro.scenarios.library import paper_indoor_day

        built = build_timeline(TimelineSpec(name="paper_indoor_day"))
        assert built.total_duration_s == paper_indoor_day().total_duration_s

    def test_inline_timeline_segments(self):
        spec = TimelineSpec(segments=(
            SegmentSpec(duration_s=600.0, lux=700.0, ambient_c=22.0,
                        skin_c=32.0),
            SegmentSpec(duration_s=1200.0, lux=0.0, ambient_c=15.0,
                        skin_c=30.0, wind_ms=3.0),
        ))
        timeline = build_timeline(spec)
        assert timeline.total_duration_s == 1800.0
        assert timeline.at(0.0).lighting.lux == 700.0
        assert timeline.at(900.0).thermal.wind_ms == 3.0


class TestBuildSimulation:
    def test_json_round_trip_produces_bit_identical_result(self):
        spec = get_scenario("sunny_office_worker")
        rebuilt = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert build_simulation(spec).run() == build_simulation(rebuilt).run()

    def test_spec_duration_reaches_run_default(self):
        """build_simulation(spec).run() honours the spec's horizon
        override, matching run_scenario(spec)."""
        import dataclasses

        from repro.scenarios import run_scenario

        spec = dataclasses.replace(get_scenario("paper_indoor_worst_case"),
                                   duration_s=3600.0)
        result = build_simulation(spec).run()
        assert result.duration_s == pytest.approx(3600.0)
        assert run_scenario(spec).duration_s == pytest.approx(3600.0)

    def test_spec_parameters_reach_components(self):
        spec = ScenarioSpec(
            name="custom",
            timeline=TimelineSpec(name="paper_indoor_day"),
            system=SystemSpec(
                battery=BatterySpec(initial_soc=0.25, capacity_mah=60.0),
                policy=PolicySpec(params={"max_rate_per_min": 10.0}),
                sleep_power_w=1e-5,
            ),
            step_s=450.0,
        )
        sim = build_simulation(spec)
        assert sim.battery.state_of_charge == pytest.approx(0.25)
        assert sim.policy.max_rate_per_min == 10.0
        assert sim.step_s == 450.0
        assert sim.sleep_power_w == 1e-5

    def test_bare_manager_policy_rejected(self):
        from repro.errors import SimulationError
        from repro.scenarios.library import paper_indoor_day

        with pytest.raises(SimulationError, match=r"EnergyAwarePolicy\("):
            default_simulation(paper_indoor_day(), policy=ManagerPolicy())

    def test_solar_only_harvester_ignores_teg(self):
        from repro.harvest.environment import DARKNESS, TEG_ROOM_15C_WIND_42KMH

        solar_only = build_harvester("calibrated_solar_only")
        assert solar_only.battery_intake_w(DARKNESS,
                                           TEG_ROOM_15C_WIND_42KMH) == 0.0

    def test_teg_only_harvester_ignores_light(self):
        from repro.harvest.environment import (
            OUTDOOR_SUN_30KLX,
            TEG_ROOM_22C_NO_WIND,
        )

        teg_only = build_harvester("calibrated_teg_only")
        dual = build_harvester("calibrated_dual")
        teg_w = teg_only.battery_intake_w(OUTDOOR_SUN_30KLX, TEG_ROOM_22C_NO_WIND)
        assert teg_w < dual.battery_intake_w(OUTDOOR_SUN_30KLX,
                                             TEG_ROOM_22C_NO_WIND)
        assert teg_w == pytest.approx(24.0e-6, rel=1e-6)
