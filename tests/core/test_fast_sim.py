"""Fast simulation core: segment-walk stepping and trace modes.

The segment-walk loop and the per-segment harvest hoisting are pure
speed changes — every test here pins that claim by comparing against a
straight-line reference implementation of the pre-optimization loop
(per-step linear segment scan, per-step harvest evaluation, full
trace).
"""

import pytest

from repro.core import TraceMode
from repro.errors import SimulationError
from repro.harvest.environment import (
    DARKNESS,
    EnvironmentSample,
    EnvironmentTimeline,
    INDOOR_OFFICE_700LX,
    OUTDOOR_SUN_30KLX,
    TEG_ROOM_15C_WIND_42KMH,
    TEG_ROOM_22C_NO_WIND,
)
from tests.helpers import default_simulation, legacy_reference_run


def irregular_timeline() -> EnvironmentTimeline:
    """Segment lengths chosen so no sane step size divides them."""
    return EnvironmentTimeline([
        EnvironmentSample(3601.0, INDOOR_OFFICE_700LX, TEG_ROOM_22C_NO_WIND),
        EnvironmentSample(130.0, OUTDOOR_SUN_30KLX, TEG_ROOM_15C_WIND_42KMH),
        EnvironmentSample(7000.5, DARKNESS, TEG_ROOM_22C_NO_WIND),
        EnvironmentSample(59.0, OUTDOOR_SUN_30KLX, TEG_ROOM_22C_NO_WIND),
        EnvironmentSample(9999.25, DARKNESS, TEG_ROOM_15C_WIND_42KMH),
    ])


class TestSegmentWalkEquivalence:
    @pytest.mark.parametrize("step_s", [60.0, 300.0, 700.0, 977.0])
    def test_matches_legacy_loop_on_irregular_boundaries(self, step_s):
        """Steps that straddle segment boundaries (and segments shorter
        than one step) must select the same segments and produce a
        bitwise-identical result."""
        fast = default_simulation(irregular_timeline(), step_s=step_s).run()
        reference = legacy_reference_run(
            default_simulation(irregular_timeline(), step_s=step_s))
        assert fast == reference

    def test_matches_legacy_loop_past_timeline_end(self):
        """A horizon beyond the timeline stays in the final segment,
        exactly as the legacy at() clamp did."""
        horizon = 3 * 86400.0
        fast = default_simulation(irregular_timeline(), step_s=450.0,
                                  duration_s=horizon).run()
        reference = legacy_reference_run(
            default_simulation(irregular_timeline(), step_s=450.0,
                               duration_s=horizon))
        assert fast == reference

    def test_matches_legacy_loop_with_partial_final_step(self):
        horizon = 5000.0  # not a multiple of 300
        fast = default_simulation(irregular_timeline(), step_s=300.0,
                                  duration_s=horizon).run()
        reference = legacy_reference_run(
            default_simulation(irregular_timeline(), step_s=300.0,
                               duration_s=horizon))
        assert fast == reference


class TestTraceModes:
    def run_with_trace(self, trace, step_s=300.0):
        return default_simulation(irregular_timeline(), step_s=step_s,
                                  trace=trace).run()

    def test_totals_identical_across_modes(self):
        full = self.run_with_trace("full")
        for trace in ("none", "decimated:2", "decimated:7", "decimated:1000"):
            lean = self.run_with_trace(trace)
            assert lean.total_detections == full.total_detections
            assert lean.total_harvest_j == full.total_harvest_j
            assert lean.total_consumed_j == full.total_consumed_j
            assert lean.initial_soc == full.initial_soc
            assert lean.final_soc == full.final_soc
            assert lean.duration_s == full.duration_s

    def test_none_records_no_steps(self):
        assert self.run_with_trace("none").steps == []

    def test_decimated_records_every_nth_and_the_last(self):
        full = self.run_with_trace("full")
        lean = self.run_with_trace("decimated:12")
        expected = full.steps[::12]
        if full.steps[-1] not in expected:
            expected = expected + [full.steps[-1]]
        assert lean.steps == expected

    def test_decimation_beyond_step_count_keeps_first_and_last(self):
        full = self.run_with_trace("full")
        lean = self.run_with_trace("decimated:100000")
        assert lean.steps == [full.steps[0], full.steps[-1]]

    def test_trace_mode_object_accepted(self):
        lean = self.run_with_trace(TraceMode(kind="decimated", every=3))
        full = self.run_with_trace("full")
        assert lean.total_detections == full.total_detections

    def test_invalid_trace_rejected(self):
        with pytest.raises(SimulationError):
            self.run_with_trace("hourly")
        with pytest.raises(SimulationError):
            self.run_with_trace("decimated:0")
        with pytest.raises(SimulationError):
            self.run_with_trace("decimated:x")
        with pytest.raises(SimulationError):
            TraceMode(kind="decimated", every=-3)

    def test_trace_mode_string_round_trip(self):
        for text in ("full", "none", "decimated:12"):
            assert str(TraceMode.parse(text)) == text
