"""ScenarioRunner: parallel batches match serial runs exactly."""

import pytest

from repro.errors import SpecError
from repro.scenarios import (
    ScenarioRunner,
    SweepResult,
    get_scenario,
    run_scenario,
)

BATCH_NAMES = [
    "paper_indoor_worst_case",
    "sunny_office_worker",
    "dead_battery_cold_start",
    "sedentary_low_teg",
]


@pytest.fixture(scope="module")
def batch_specs():
    return [get_scenario(name) for name in BATCH_NAMES]


class TestRunBatch:
    def test_parallel_batch_matches_serial_runs(self, batch_specs):
        """The 4-scenario smoke test: worker results are identical to
        one-at-a-time runs (simulations share no mutable state)."""
        serial = [run_scenario(spec) for spec in batch_specs]
        sweep = ScenarioRunner(workers=4).run_batch(batch_specs)
        assert list(sweep.outcomes) == serial

    def test_batch_preserves_input_order(self, batch_specs):
        sweep = ScenarioRunner(workers=3).run_batch(batch_specs)
        assert [o.name for o in sweep.outcomes] == BATCH_NAMES

    def test_serial_worker_count_runs_inline(self, batch_specs):
        sweep = ScenarioRunner(workers=1).run_batch(batch_specs[:2])
        assert [o.name for o in sweep.outcomes] == BATCH_NAMES[:2]

    def test_workers_set_on_constructor(self, batch_specs):
        runner = ScenarioRunner(workers=2)
        sweep = runner.run_batch(batch_specs[:2])
        assert runner.workers == 2
        assert len(sweep.outcomes) == 2

    def test_duplicate_names_rejected(self, batch_specs):
        with pytest.raises(SpecError, match="unique"):
            ScenarioRunner().run_batch([batch_specs[0], batch_specs[0]])

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(SpecError):
            ScenarioRunner(workers=0)

    def test_empty_batch_is_empty_sweep(self):
        sweep = ScenarioRunner().run_batch([])
        assert sweep.outcomes == ()
        assert sweep.all_neutral  # vacuously


class TestSweepMetadata:
    def test_backend_and_wall_time_recorded(self, batch_specs):
        sweep = ScenarioRunner(workers=4, backend="process").run_batch(
            batch_specs)
        assert sweep.backend == "process"
        assert sweep.wall_time_s > 0.0

    def test_metadata_survives_to_dict(self, batch_specs):
        import json

        sweep = ScenarioRunner(workers=2).run_batch(batch_specs[:2])
        payload = json.loads(json.dumps(sweep.to_dict()))
        assert payload["backend"] == sweep.backend
        assert payload["wall_time_s"] == pytest.approx(sweep.wall_time_s)


class TestSweepResult:
    @pytest.fixture(scope="class")
    def sweep(self, batch_specs) -> SweepResult:
        return ScenarioRunner(workers=4).run_batch(batch_specs)

    def test_by_name_lookup(self, sweep):
        outcome = sweep.by_name("sunny_office_worker")
        assert outcome.name == "sunny_office_worker"
        with pytest.raises(SpecError):
            sweep.by_name("absent")

    def test_to_dict_is_json_ready(self, sweep):
        import json

        payload = json.loads(json.dumps(sweep.to_dict()))
        assert len(payload["outcomes"]) == len(BATCH_NAMES)
        for entry in payload["outcomes"]:
            assert isinstance(entry["energy_neutral"], bool)
            assert isinstance(entry["detections_per_day"], float)

    def test_format_table_lists_every_scenario(self, sweep):
        table = sweep.format_table()
        for name in BATCH_NAMES:
            assert name in table
        assert "det/day" in table


class TestEffectiveBackend:
    def test_single_spec_process_batch_routes_serial(self):
        """A one-spec process batch must not touch the pool — it runs
        inline and the result records the backend that actually ran."""
        runner = ScenarioRunner(workers=4, backend="process")
        sweep = runner.run_batch([get_scenario("night_shift")])
        assert sweep.backend == "serial"
        assert len(sweep.outcomes) == 1

    def test_one_worker_process_batch_routes_serial(self):
        runner = ScenarioRunner(workers=1, backend="process")
        sweep = runner.run_batch([get_scenario("night_shift"),
                                  get_scenario("sunny_office_worker")])
        assert sweep.backend == "serial"


class TestWorkerCrashSurfacing:
    def test_dead_worker_names_the_scenario(self, monkeypatch):
        """A worker killed mid-run (OOM, signal) must surface as a
        SpecError naming the crashed chunk's scenarios, not a bare
        BrokenProcessPool.

        The REPRO_WORKER_CRASH hook makes the worker ``os._exit`` when
        it picks up the named spec — the runner forwards the variable
        through the chunk context (persistent pool workers may predate
        it), so this simulates the kill without real memory
        pressure."""
        spec = get_scenario("dead_battery_cold_start")
        monkeypatch.setenv("REPRO_WORKER_CRASH", spec.name)
        runner = ScenarioRunner(workers=2, backend="process")
        with pytest.raises(SpecError) as excinfo:
            runner.run_batch([spec, get_scenario("night_shift")])
        message = str(excinfo.value)
        assert "worker died" in message
        assert "dead_battery_cold_start" in message

    def test_crash_hook_inert_for_other_scenarios(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKER_CRASH", "some_other_scenario")
        spec = get_scenario("sunny_office_worker")
        sweep = ScenarioRunner(workers=2, backend="process").run_batch(
            [spec, get_scenario("dead_battery_cold_start")])
        assert sweep.backend == "process"
        assert len(sweep.outcomes) == 2
