"""Day-in-the-life simulation tests."""

import ast
import math
from pathlib import Path

import pytest

from repro.core.manager import EnergyAwareManager, ManagerPolicy
from repro.core.simulation import step_grid
from repro.errors import SimulationError
from repro.harvest.environment import (
    DARKNESS,
    EnvironmentSample,
    EnvironmentTimeline,
    INDOOR_OFFICE_700LX,
    OUTDOOR_SUN_30KLX,
    TEG_ROOM_22C_NO_WIND,
)
from repro.policies import EnergyAwarePolicy
from repro.power.battery import LiPoBattery
from repro.scenarios.builder import build_app
from tests.helpers import default_simulation


def office_day_timeline():
    """6 h lit office, 18 h darkness; body-worn TEG all day."""
    return EnvironmentTimeline([
        EnvironmentSample(6 * 3600.0, INDOOR_OFFICE_700LX, TEG_ROOM_22C_NO_WIND),
        EnvironmentSample(18 * 3600.0, DARKNESS, TEG_ROOM_22C_NO_WIND),
    ])


def energy_aware(thresholds: ManagerPolicy) -> EnergyAwarePolicy:
    """The default energy-aware policy with custom thresholds."""
    return EnergyAwarePolicy(EnergyAwareManager(
        build_app().energy_budget().total_j, thresholds))


class TestBasicRuns:
    def test_full_day_runs_to_horizon(self):
        sim = default_simulation(office_day_timeline(), step_s=300.0)
        result = sim.run()
        assert result.steps[-1].time_s == pytest.approx(86400.0 - 300.0)
        assert len(result.steps) == 288

    def test_detections_happen(self):
        result = default_simulation(office_day_timeline(), step_s=300.0).run()
        assert result.total_detections > 1000

    def test_harvest_recorded(self):
        result = default_simulation(office_day_timeline(), step_s=300.0).run()
        # ~21.5 J arrive per day in this scenario (minus charge losses).
        assert result.total_harvest_j == pytest.approx(21.5, rel=0.05)

    def test_horizon_override(self):
        result = default_simulation(office_day_timeline(), step_s=60.0,
                                    duration_s=3600.0).run()
        assert len(result.steps) == 60

    def test_invalid_horizon_rejected(self):
        with pytest.raises(SimulationError):
            default_simulation(office_day_timeline(), duration_s=0.0)

    def test_invalid_step_rejected(self):
        with pytest.raises(SimulationError):
            default_simulation(office_day_timeline(), step_s=0.0)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_non_finite_detection_energy_rejected_at_build(self, energy):
        """A NaN energy used to build and then fail mid-run with a
        misleading state-of-charge error."""
        with pytest.raises(SimulationError,
                           match="detection energy must be positive and "
                                 "finite"):
            default_simulation(office_day_timeline(),
                               policy=energy_aware(ManagerPolicy()),
                               detection_energy_j=energy, step_s=600.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["step_s", "sleep_power_w",
                                       "duration_s"])
    def test_non_finite_engine_scalar_rejected_at_build(self, field, value):
        """NaN slips past a plain ``step_s <= 0`` guard; the engine's
        guards are written so that NaN and +/-inf fail them too."""
        with pytest.raises(SimulationError, match="finite"):
            default_simulation(office_day_timeline(), **{field: value})

    @pytest.mark.parametrize("horizon_s, step_s", [
        (math.nan, 60.0), (math.inf, 60.0), (3600.0, math.nan),
        (3600.0, math.inf)])
    def test_step_grid_rejects_non_finite(self, horizon_s, step_s):
        with pytest.raises(SimulationError, match="finite"):
            step_grid(horizon_s, step_s)


class TestEnergyBehaviour:
    def test_sunny_day_charges_battery(self):
        sunny = EnvironmentTimeline([
            EnvironmentSample(86400.0, OUTDOOR_SUN_30KLX, TEG_ROOM_22C_NO_WIND),
        ])
        battery = LiPoBattery(initial_soc=0.5)
        result = default_simulation(sunny, battery=battery, step_s=600.0).run()
        assert result.final_soc > result.initial_soc

    def test_dark_day_at_floor_rate_drains_little(self):
        dark = EnvironmentTimeline([
            EnvironmentSample(86400.0, DARKNESS, TEG_ROOM_22C_NO_WIND),
        ])
        battery = LiPoBattery(initial_soc=0.5)
        result = default_simulation(dark, battery=battery, step_s=600.0).run()
        # TEG-only: the manager throttles to the floor; the 120 mAh
        # buffer loses only a small fraction in a day.
        assert result.final_soc > 0.45

    def test_office_scenario_energy_neutral_at_policy_rates(self):
        battery = LiPoBattery(initial_soc=0.5)
        result = default_simulation(office_day_timeline(), battery=battery,
                                    step_s=300.0).run()
        # The neutral-band policy keeps the day within ~2 % of SoC.
        assert abs(result.final_soc - result.initial_soc) < 0.02

    def test_low_battery_throttles_rate(self):
        dark = EnvironmentTimeline([
            EnvironmentSample(86400.0, DARKNESS, TEG_ROOM_22C_NO_WIND),
        ])
        battery = LiPoBattery(initial_soc=0.05)
        policy = energy_aware(
            ManagerPolicy(min_rate_per_min=1.0, max_rate_per_min=24.0))
        result = default_simulation(dark, battery=battery, policy=policy,
                                    step_s=600.0, duration_s=7200.0).run()
        assert all(step.detection_rate_per_min == 1.0 for step in result.steps)

    def test_full_battery_spends_at_ceiling(self):
        sunny = EnvironmentTimeline([
            EnvironmentSample(7200.0, OUTDOOR_SUN_30KLX, TEG_ROOM_22C_NO_WIND),
        ])
        battery = LiPoBattery(initial_soc=0.95)
        result = default_simulation(sunny, battery=battery, step_s=600.0).run()
        assert all(step.detection_rate_per_min == 24.0 for step in result.steps)

    def test_scaled_back_detections_stay_integral(self):
        """When the battery cannot cover a step, only whole detections
        execute and the remainder returns to the carry (regression:
        the scale-back used to book fractional detections)."""
        dark = EnvironmentTimeline([
            EnvironmentSample(86400.0, DARKNESS, TEG_ROOM_22C_NO_WIND),
        ])
        battery = LiPoBattery(capacity_mah=0.01, initial_soc=0.9)
        result = default_simulation(dark, battery=battery, step_s=600.0).run()
        assert all(float(step.detections).is_integer()
                   for step in result.steps)
        assert float(result.total_detections).is_integer()
        # The tiny cell must actually have hit the limit for this test
        # to exercise the scale-back path.
        requested = sum(step.detection_rate_per_min * 10 for step in result.steps)
        assert result.total_detections < requested

    def test_brownout_backlog_cannot_burst_past_rate_cap(self):
        """An outage must not bank unlimited detections and replay
        them in one step when energy returns: per-step executions stay
        at or below one step's worth at the policy ceiling."""
        outage_then_sun = EnvironmentTimeline([
            EnvironmentSample(86400.0, DARKNESS, TEG_ROOM_22C_NO_WIND),
            EnvironmentSample(86400.0, OUTDOOR_SUN_30KLX, TEG_ROOM_22C_NO_WIND),
        ])
        battery = LiPoBattery(capacity_mah=1.0, initial_soc=0.01)
        policy = energy_aware(ManagerPolicy(max_rate_per_min=24.0))
        result = default_simulation(outage_then_sun, battery=battery,
                                    policy=policy, step_s=300.0).run()
        step_cap = 24.0 * 300.0 / 60.0
        assert max(step.detections for step in result.steps) <= step_cap

    def test_constructor_duration_becomes_run_default(self):
        sim = default_simulation(office_day_timeline(), step_s=300.0,
                                 duration_s=3600.0)
        assert sim.run().duration_s == pytest.approx(3600.0)

    def test_result_records_duration(self):
        result = default_simulation(office_day_timeline(), step_s=300.0).run()
        assert result.duration_s == pytest.approx(86400.0)
        partial = default_simulation(office_day_timeline(), step_s=300.0,
                                     duration_s=3600.0).run()
        assert partial.duration_s == pytest.approx(3600.0)

    def test_consumed_energy_accounts_detections(self):
        result = default_simulation(office_day_timeline(), step_s=300.0).run()
        detection_j = 605.2e-6
        expected = result.total_detections * detection_j
        # Sleep overhead adds on top of the detection spend.
        assert result.total_consumed_j >= expected * 0.99
        assert result.total_consumed_j < expected + 1.0


class TestLayering:
    def test_engine_imports_nothing_from_the_layers_above(self):
        """The engine steps only the parts it is handed: it may not
        reach up into the spec layer or the policy library to build
        defaults of its own."""
        import repro.core.simulation as engine

        tree = ast.parse(Path(engine.__file__).read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
        upward = sorted(name for name in imported
                        if name.split(".")[:2] in (["repro", "scenarios"],
                                                   ["repro", "policies"]))
        assert upward == []
