"""FleetRunner: backend equality, paired policy comparisons, the library."""

import json

import pytest

from repro.errors import SpecError
from repro.fleet import (
    FleetRunner,
    FleetSpec,
    SamplerSpec,
    all_fleets,
    fleet_names,
    get_fleet,
    wearer_scenarios,
)
from repro.policies import PolicyGrid
from repro.scenarios import get_scenario

SMALL = FleetSpec(name="small", base_scenario="sunny_office_worker",
                  n_wearers=4, horizon_days=2, seed=5,
                  sampler=SamplerSpec("daily_jitter"))


class TestRun:
    def test_two_runs_bitwise_identical(self):
        first = FleetRunner(workers=2, backend="process").run(SMALL)
        second = FleetRunner(workers=1, backend="serial").run(SMALL)
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())

    def test_result_shape(self):
        result = FleetRunner(workers=2).run(SMALL)
        assert result.fleet == "small"
        assert result.n_wearers == 4
        assert 0.0 <= result.fraction_energy_neutral <= 1.0
        assert 0.0 <= result.final_soc.p5 <= result.final_soc.p95 <= 1.0
        assert result.wall_time_s > 0.0

    def test_identity_fleet_collapses_to_base(self):
        fleet = SMALL.replace(sampler=SamplerSpec("identity"))
        result = FleetRunner(backend="serial").run(fleet)
        # Every wearer relives the same tiled base day, so the
        # population distribution is a point mass.
        assert result.final_soc.p5 == result.final_soc.p95
        assert result.detections_per_day.p5 == result.detections_per_day.p95

    def test_bad_backend_rejected(self):
        with pytest.raises(SpecError, match="unknown backend"):
            FleetRunner(backend="gpu")

    def test_unknown_backend_error_lists_every_backend(self):
        """The "unknown backend" message enumerates the fleet-level
        BACKENDS tuple — the superset including "vector" — and can
        never fall out of sync with it."""
        from repro.fleet import BACKENDS
        from repro.pool import BACKENDS as POOL_BACKENDS

        assert "vector" in BACKENDS
        assert set(POOL_BACKENDS) < set(BACKENDS)
        with pytest.raises(SpecError) as ctor_err:
            FleetRunner(backend="gpu")
        listed = str(ctor_err.value).split("known: ", 1)[1]
        assert listed == str(list(BACKENDS))

    def test_vector_backend_runs(self):
        vector = FleetRunner(backend="vector").run(SMALL)
        serial = FleetRunner(backend="serial").run(SMALL)
        assert vector.backend == "vector"
        assert vector.canonical_json() == serial.canonical_json()


class TestCompare:
    def test_paired_and_ranked(self):
        comparison = FleetRunner(workers=2).run_grid(
            SMALL, [PolicyGrid("energy_aware"),
                    PolicyGrid("static_duty_cycle",
                               base={"rate_per_min": 24.0})])
        assert comparison.subject == "small"
        assert len(comparison.entries) == 2
        # Paired design: every candidate saw the same population.
        for entry in comparison.entries:
            assert entry.result.n_wearers == SMALL.n_wearers
            assert entry.result.seed == SMALL.seed

    def test_policy_only_changes_policy(self):
        specs = wearer_scenarios(SMALL)
        comparison = FleetRunner(workers=1, backend="serial").run_grid(
            SMALL, [PolicyGrid("energy_aware")])
        entry = comparison.entries[0]
        assert entry.policy.name == "energy_aware"
        # The energy_aware candidate is the base system's own policy,
        # so the paired rerun reproduces the plain fleet run exactly.
        plain = FleetRunner(backend="serial").run(SMALL)
        assert entry.result.to_dict() == plain.to_dict()
        assert [s.name for s in specs] == [
            f"small::wearer_{i:04d}" for i in range(4)]

    def test_empty_and_duplicate_policies_rejected(self):
        runner = FleetRunner(workers=1, backend="serial")
        with pytest.raises(SpecError, match="at least one grid"):
            runner.run_grid(SMALL, [])
        with pytest.raises(SpecError, match="duplicate"):
            runner.run_grid(SMALL, [PolicyGrid("energy_aware"),
                                    PolicyGrid("energy_aware")])

    def test_to_dict_ranking_is_canonical(self):
        runner = FleetRunner(workers=1, backend="serial")
        payload = runner.run_grid(SMALL,
                                  [PolicyGrid("energy_aware")]).to_dict()
        assert set(payload) == {"fleet", "ranking"}
        assert payload["ranking"][0]["label"] == "energy_aware"


class TestLibrary:
    def test_builtin_fleets_resolve(self):
        assert len(fleet_names()) >= 3
        for fleet in all_fleets():
            get_scenario(fleet.base_scenario)  # base must exist
            assert fleet.description
            # Wearer generation works (1-wearer, 1-day miniature).
            mini = fleet.replace(n_wearers=1, horizon_days=1)
            assert len(wearer_scenarios(mini)) == 1

    def test_get_fleet_unknown_lists_menu(self):
        with pytest.raises(Exception, match="office_cohort_week"):
            get_fleet("no_such_fleet")
