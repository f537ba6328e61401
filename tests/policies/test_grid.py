"""Policy grids and grid search over scenarios."""

import json

import pytest

from repro.errors import SpecError
from repro.policies import (SCENARIO_STUDY, PolicyGrid, PolicyStudy,
                            policy_label)
from repro.scenarios import PolicySpec, ScenarioRunner, get_scenario


class TestPolicyGrid:
    def test_no_axes_is_a_single_default_point(self):
        grid = PolicyGrid("energy_aware")
        assert len(grid) == 1
        assert grid.specs() == [PolicySpec(name="energy_aware")]

    def test_cartesian_product_over_axes(self):
        grid = PolicyGrid("ewma_forecast",
                          axes={"alpha": (0.1, 0.5),
                                "max_rate_per_min": (12.0, 24.0)})
        points = grid.specs()
        assert len(grid) == len(points) == 4
        assert {(p.params["alpha"], p.params["max_rate_per_min"])
                for p in points} == {(0.1, 12.0), (0.1, 24.0),
                                     (0.5, 12.0), (0.5, 24.0)}

    def test_base_params_fixed_across_points(self):
        grid = PolicyGrid("ewma_forecast", base={"max_rate_per_min": 12.0},
                          axes={"alpha": (0.2, 0.8)})
        assert all(p.params["max_rate_per_min"] == 12.0 for p in grid)

    def test_empty_axis_rejected(self):
        with pytest.raises(SpecError, match="no values"):
            PolicyGrid("static_duty_cycle", axes={"rate_per_min": ()})

    def test_scalar_axis_rejected(self):
        with pytest.raises(SpecError, match="sequence"):
            PolicyGrid("static_duty_cycle", axes={"rate_per_min": 6.0})

    def test_param_cannot_be_fixed_and_swept(self):
        with pytest.raises(SpecError, match="both"):
            PolicyGrid("ewma_forecast", base={"alpha": 0.5},
                       axes={"alpha": (0.1, 0.9)})

    def test_labels_are_compact_and_distinct(self):
        grid = PolicyGrid("static_duty_cycle",
                          axes={"rate_per_min": (2.0, 24.0)})
        labels = [policy_label(p) for p in grid]
        assert labels == ["static_duty_cycle(rate_per_min=2)",
                          "static_duty_cycle(rate_per_min=24)"]
        assert policy_label(PolicySpec()) == "energy_aware"


class TestRunGrid:
    GRIDS = [
        PolicyGrid("energy_aware"),
        PolicyGrid("static_duty_cycle", axes={"rate_per_min": (2.0, 24.0)}),
        PolicyGrid("ewma_forecast", axes={"alpha": (0.1, 0.5)}),
        PolicyGrid("oracle_lookahead"),
    ]

    @pytest.fixture(scope="class")
    def result(self) -> PolicyStudy:
        scenario = get_scenario("paper_indoor_worst_case")
        return ScenarioRunner(backend="serial").run_grid(scenario, self.GRIDS)

    def test_one_entry_per_grid_point(self, result):
        assert len(result.entries) == sum(len(g) for g in self.GRIDS)
        assert result.subject == "paper_indoor_worst_case"
        assert result.kind is SCENARIO_STUDY
        assert result.backend == "serial"
        assert result.wall_time_s > 0.0

    def test_ranks_neutral_then_detections_then_soc(self, result):
        for entry in result.entries:
            o = entry.result
            assert SCENARIO_STUDY.rank_key(o) == (
                not o.energy_neutral, -o.detections_per_day, -o.final_soc)

    def test_distinct_policies_compete(self, result):
        assert result.policy_names == ["energy_aware", "ewma_forecast",
                                       "oracle_lookahead",
                                       "static_duty_cycle"]

    def test_to_dict_round_trips_through_json(self, result):
        payload = json.loads(json.dumps(result.to_dict()))
        assert payload["scenario"] == "paper_indoor_worst_case"
        assert len(payload["ranking"]) == len(result.entries)
        rebuilt = [PolicySpec.from_dict(entry["policy"])
                   for entry in payload["ranking"]]
        assert {spec.name for spec in rebuilt} == set(result.policy_names)

    def test_format_table_lists_every_label(self, result):
        table = result.format_table()
        assert "det/day" in table and "SoC end" in table
        for entry in result.entries:
            assert entry.label in table

    def test_single_grid_accepted_without_list(self):
        scenario = get_scenario("paper_indoor_worst_case")
        result = ScenarioRunner(backend="serial").run_grid(
            scenario, PolicyGrid("static_duty_cycle"))
        assert [e.policy.name for e in result.entries] == ["static_duty_cycle"]

    def test_duplicate_points_rejected(self):
        scenario = get_scenario("paper_indoor_worst_case")
        with pytest.raises(SpecError, match="duplicate"):
            ScenarioRunner().run_grid(
                scenario, [PolicyGrid("energy_aware"),
                           PolicyGrid("energy_aware")])

    def test_distinct_points_with_colliding_labels_still_run(self):
        """%g label rounding must not masquerade as duplicate points:
        values differing past six significant digits get positional
        suffixes and both run."""
        scenario = get_scenario("paper_indoor_worst_case")
        result = ScenarioRunner(backend="serial").run_grid(
            scenario, PolicyGrid("static_duty_cycle",
                                 axes={"rate_per_min": (1234567.0,
                                                        1234568.0)}))
        assert len(result.entries) == 2
        labels = [entry.label for entry in result.entries]
        assert len(set(labels)) == 2
        assert all("#" in label for label in labels)

    def test_empty_grid_list_rejected(self):
        with pytest.raises(SpecError, match="at least one"):
            ScenarioRunner().run_grid(
                get_scenario("paper_indoor_worst_case"), [])

    def test_process_backend_matches_serial(self):
        scenario = get_scenario("paper_indoor_worst_case")
        serial = ScenarioRunner(backend="serial").run_grid(scenario,
                                                           self.GRIDS)
        process = ScenarioRunner(workers=4, backend="process").run_grid(
            scenario, self.GRIDS)
        assert [e.result for e in process.entries] == \
            [e.result for e in serial.entries]


class TestProcessBackendAcceptance:
    def test_process_grid_ranks_three_policies_on_multi_day_scenario(self):
        """The acceptance bar: >= 3 distinct registered policies ranked
        over a multi-day scenario on the process backend, identical to
        a serial run of the same grid."""
        scenario = get_scenario("cloudy_week_multi_day")
        grids = [PolicyGrid("energy_aware"),
                 PolicyGrid("static_duty_cycle",
                            axes={"rate_per_min": (6.0, 24.0)}),
                 PolicyGrid("ewma_forecast"),
                 PolicyGrid("oracle_lookahead")]
        runner = ScenarioRunner(workers=2, backend="process")
        result = runner.run_grid(scenario, grids)
        assert result.backend == "process"
        assert scenario.duration_s is None  # runs the full 7-day timeline
        assert len(result.policy_names) >= 3
        serial = ScenarioRunner(backend="serial").run_grid(scenario, grids)
        assert [e.result for e in result.entries] == \
            [e.result for e in serial.entries]
        assert [e.label for e in result.ranked()] == \
            [e.label for e in serial.ranked()]
