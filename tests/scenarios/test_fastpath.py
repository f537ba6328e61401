"""Fast-path guarantees at the scenario layer.

The harvest memo, the lean traces and the process-pool backend are all
pure speed/footprint changes; these tests pin that every one of them is
numerically invisible.
"""

import dataclasses

import pytest

from repro.errors import SpecError
from repro.harvest.dual import CachedHarvester
from repro.scenarios import (
    ScenarioRunner,
    ScenarioSpec,
    all_scenarios,
    build_simulation,
    get_scenario,
    register_harvester,
    run_scenario,
    scenario_names,
)
from repro.scenarios.runner import ScenarioOutcome


class TestCachedHarvesterEquivalence:
    def test_all_library_scenarios_bitwise_identical(self):
        """Cached and uncached harvesters must produce bitwise-identical
        SimulationResults (steps included) on every library scenario."""
        assert len(scenario_names()) >= 8
        for spec in all_scenarios():
            cached = build_simulation(spec, cache_harvest=True).run()
            uncached = build_simulation(spec, cache_harvest=False).run()
            assert cached == uncached, spec.name

    def test_spec_built_harvester_is_cached(self):
        sim = build_simulation(get_scenario("paper_indoor_worst_case"))
        assert isinstance(sim.harvester, CachedHarvester)

    def test_cache_stats_count_hits_and_misses(self):
        spec = get_scenario("paper_indoor_worst_case")
        sim = build_simulation(spec)
        sim.run()
        stats = sim.harvester.stats
        # Two segments with distinct conditions: the segment-walk loop
        # evaluates once per segment entry; the memo sees 2 misses.
        assert stats.misses == 2
        assert stats.lookups == stats.hits + stats.misses
        assert 0.0 <= stats.hit_rate <= 1.0

    def test_cache_hits_across_repeated_runs(self):
        spec = get_scenario("paper_indoor_worst_case")
        sim = build_simulation(spec)
        sim.run()
        misses_after_first = sim.harvester.stats.misses
        sim.battery = build_simulation(spec).battery  # fresh battery
        sim.run()
        assert sim.harvester.stats.misses == misses_after_first
        assert sim.harvester.stats.hits >= 2

    def test_cache_clear_resets_memo_and_stats(self):
        sim = build_simulation(get_scenario("paper_indoor_worst_case"))
        sim.run()
        sim.harvester.cache_clear()
        assert sim.harvester.stats.lookups == 0

    def test_wrapper_delegates_to_inner_chain(self):
        sim = build_simulation(get_scenario("paper_indoor_worst_case"))
        # DualSourceHarvester attributes stay reachable through the memo.
        assert sim.harvester.solar is sim.harvester.inner.solar

    def test_wrapper_survives_pickle_and_deepcopy(self):
        """Regression: __getattr__ must not recurse when pickle/copy
        probe the instance before __init__ ran."""
        import copy
        import pickle

        from repro.harvest.environment import (
            DARKNESS,
            TEG_ROOM_22C_NO_WIND,
        )

        harvester = build_simulation(
            get_scenario("paper_indoor_worst_case")).harvester
        reference = harvester.battery_intake_w(DARKNESS,
                                               TEG_ROOM_22C_NO_WIND)
        for clone in (pickle.loads(pickle.dumps(harvester)),
                      copy.deepcopy(harvester)):
            assert clone.battery_intake_w(DARKNESS,
                                          TEG_ROOM_22C_NO_WIND) == reference


class TestLeanTraceScenarios:
    def test_run_scenario_is_lean_and_matches_full_trace(self):
        """run_scenario forces trace="none"; its outcome must equal the
        summary of a full-trace run of the same spec."""
        spec = get_scenario("cloudy_week_multi_day")
        full_result = build_simulation(spec).run()  # spec default: full
        assert len(full_result.steps) > 0
        lean_outcome = run_scenario(spec)
        assert lean_outcome == ScenarioOutcome.from_result(spec.name,
                                                           full_result)

    def test_trace_field_round_trips(self):
        spec = dataclasses.replace(get_scenario("outdoor_hiker"),
                                   trace="decimated:6")
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.trace == "decimated:6"

    def test_bad_trace_rejected_at_spec_time(self):
        with pytest.raises(SpecError):
            dataclasses.replace(get_scenario("outdoor_hiker"), trace="verbose")


class TestProcessBackend:
    BATCH = ["paper_indoor_worst_case", "sunny_office_worker",
             "dead_battery_cold_start", "sedentary_low_teg"]

    def test_process_sweep_matches_serial(self):
        specs = [get_scenario(name) for name in self.BATCH]
        serial = ScenarioRunner(backend="serial").run_batch(specs)
        process = ScenarioRunner(workers=2,
                                 backend="process").run_batch(specs)
        assert process.outcomes == serial.outcomes

    def test_runtime_registered_component_raises_spec_error(self):
        @register_harvester("test_fastpath_runtime_only")
        def _runtime_only():  # pragma: no cover - never buildable remotely
            raise AssertionError("workers must not see this factory")

        spec = dataclasses.replace(
            get_scenario("paper_indoor_worst_case"),
            name="runtime_component",
            system=dataclasses.replace(
                get_scenario("paper_indoor_worst_case").system,
                harvester="test_fastpath_runtime_only"),
        )
        with pytest.raises(SpecError, match="process backend"):
            ScenarioRunner(workers=2, backend="process").run_batch(
                [spec, get_scenario("night_shift")])

    def test_runtime_registered_policy_raises_spec_error(self):
        """A policy registered at runtime is just as invisible to
        spawned workers as any other component — the error must
        explain the process backend's contract, not look like a typo."""
        from repro.scenarios import POLICIES, PolicySpec, register_policy

        @register_policy("test_fastpath_runtime_policy")
        def _runtime_policy(params, context):  # pragma: no cover
            raise AssertionError("workers must not see this factory")

        base = get_scenario("paper_indoor_worst_case")
        spec = dataclasses.replace(
            base, name="runtime_policy",
            system=dataclasses.replace(
                base.system,
                policy=PolicySpec(name="test_fastpath_runtime_policy")),
        )
        try:
            with pytest.raises(SpecError, match="process backend"):
                ScenarioRunner(workers=2, backend="process").run_batch(
                    [spec, get_scenario("night_shift")])
        finally:
            # Drop the throwaway factory so whole-registry consumers
            # (`repro search` with no selection) stay order-independent.
            POLICIES.remove("test_fastpath_runtime_policy")

    def test_unknown_backend_rejected(self):
        with pytest.raises(SpecError, match="backend"):
            ScenarioRunner(backend="gpu")

    def test_outcome_dict_round_trip_is_exact(self):
        outcome = run_scenario(get_scenario("night_shift"))
        assert ScenarioOutcome.from_dict(outcome.to_dict()) == outcome
        with pytest.raises(SpecError):
            ScenarioOutcome.from_dict({**outcome.to_dict(), "bogus": 1})
        with pytest.raises(SpecError, match="missing"):
            ScenarioOutcome.from_dict({"name": "partial"})


class TestSweepResultIndex:
    def test_by_name_uses_lazy_index(self):
        specs = [get_scenario(n) for n in ("night_shift", "outdoor_hiker")]
        sweep = ScenarioRunner(backend="serial").run_batch(specs)
        assert "_by_name" not in sweep.__dict__  # built on first use
        assert sweep.by_name("outdoor_hiker").name == "outdoor_hiker"
        assert "_by_name" in sweep.__dict__
        assert sweep.by_name("night_shift") is sweep.outcomes[0]
        with pytest.raises(SpecError):
            sweep.by_name("absent")
