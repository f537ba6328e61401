"""Fleet-level policy grid search: pairing, ranking, determinism.

:meth:`FleetRunner.run_grid` evaluates every grid candidate against
one seeded sampled population — the acceptance property is that its
ranking is exactly what a brute-force per-candidate scenario sweep of
the same population produces (same paired population, same ordering:
fraction energy-neutral, then p5 final SoC, then median
detections/day), and that the canonical payload is backend-invariant.
"""

import json

import pytest

from repro.errors import SpecError
from repro.fleet import (FLEET_STUDY, FleetResult, FleetRunner, FleetSpec,
                         SamplerSpec, wearer_scenarios)
from repro.fleet.population import with_policy
from repro.policies import PolicyGrid
from repro.policies.grid import expand_grids
from repro.scenarios import ScenarioRunner

SMALL = FleetSpec(name="grid_small", base_scenario="sunny_office_worker",
                  n_wearers=4, horizon_days=1, seed=21,
                  sampler=SamplerSpec("daily_jitter"))

# Eight candidates over three policy families — the acceptance shape.
GRIDS = [
    PolicyGrid("energy_aware"),
    PolicyGrid("static_duty_cycle",
               axes={"rate_per_min": (2.0, 8.0, 16.0, 24.0)}),
    PolicyGrid("ewma_forecast", axes={"alpha": (0.1, 0.3, 0.5)}),
]


class TestRunGrid:
    def test_ranks_eight_candidates(self):
        result = FleetRunner(workers=1, backend="serial").run_grid(
            SMALL, GRIDS)
        assert result.subject == "grid_small"
        assert result.kind is FLEET_STUDY
        assert len(result.entries) == 8
        assert result.policy_names == ["energy_aware", "ewma_forecast",
                                       "static_duty_cycle"]

    def test_matches_brute_force_reference(self):
        """The grid search is one plain scenario sweep of the sampled
        population per expanded candidate, reduced and ranked: same
        per-candidate results, same ranking, same best."""
        result = FleetRunner(workers=1, backend="serial").run_grid(
            SMALL, GRIDS)
        population = wearer_scenarios(SMALL)
        reference = {}
        for label, point in expand_grids(GRIDS):
            sweep = ScenarioRunner().run_batch(
                with_policy(population, point))
            reference[label] = FleetResult.from_outcomes(
                SMALL, sweep.outcomes).to_dict()
        expected = sorted(reference, key=lambda label: (
            -reference[label]["fraction_energy_neutral"],
            -reference[label]["final_soc"]["p5"],
            -reference[label]["detections_per_day"]["p50"]))
        assert [e.label for e in result.ranked()] == expected
        assert result.best.label == expected[0]
        assert [e.result.to_dict() for e in result.ranked()] == \
            [reference[label] for label in expected]

    def test_paired_population(self):
        """Every candidate saw the same sampled wearers, and the
        base policy's entry reproduces the plain fleet run exactly."""
        runner = FleetRunner(workers=1, backend="serial")
        result = runner.run_grid(SMALL, [PolicyGrid("energy_aware")])
        plain = runner.run(SMALL)
        [entry] = result.entries
        assert entry.result.to_dict() == plain.to_dict()

    def test_single_grid_accepted_bare(self):
        result = FleetRunner(workers=1, backend="serial").run_grid(
            SMALL, PolicyGrid("static_duty_cycle",
                              axes={"rate_per_min": (2.0, 24.0)}))
        assert len(result.entries) == 2

    def test_canonical_payload(self):
        payload = FleetRunner(workers=1, backend="serial").run_grid(
            SMALL, [PolicyGrid("energy_aware")]).to_dict()
        assert set(payload) == {"fleet", "ranking"}
        entry = payload["ranking"][0]
        assert set(entry) == {"label", "policy", "result"}
        # Per-candidate results are canonical fleet payloads too.
        assert "backend" not in entry["result"]

    def test_format_table_lists_candidates(self):
        result = FleetRunner(workers=1, backend="serial").run_grid(
            SMALL, GRIDS)
        table = result.format_table()
        assert "static_duty_cycle(rate_per_min=24)" in table
        assert "neutral" in table and "SoC p5" in table

    def test_duplicate_candidates_rejected(self):
        runner = FleetRunner(workers=1, backend="serial")
        with pytest.raises(SpecError, match="duplicate policy grid points"):
            runner.run_grid(SMALL, [PolicyGrid("energy_aware"),
                                    PolicyGrid("energy_aware")])

    def test_empty_grid_list_rejected(self):
        runner = FleetRunner(workers=1, backend="serial")
        with pytest.raises(SpecError, match="at least one grid"):
            runner.run_grid(SMALL, [])


class TestBackendInvariance:
    def test_full_grid_process_matches_serial_bitwise(self):
        serial = FleetRunner(workers=1, backend="serial").run_grid(
            SMALL, GRIDS)
        process = FleetRunner(workers=4, backend="process").run_grid(
            SMALL, GRIDS)
        assert (json.dumps(serial.to_dict())
                == json.dumps(process.to_dict()))

    def test_process_matches_serial_bitwise(self):
        grids = [PolicyGrid("energy_aware"),
                 PolicyGrid("static_duty_cycle",
                            axes={"rate_per_min": (2.0, 24.0)})]
        mini = SMALL.replace(n_wearers=2)
        serial = FleetRunner(workers=1, backend="serial").run_grid(
            mini, grids)
        process = FleetRunner(workers=2, backend="process").run_grid(
            mini, grids)
        assert (json.dumps(serial.to_dict())
                == json.dumps(process.to_dict()))


class TestCompareOrdering:
    def test_rank_key_prefers_neutral_fraction_first(self):
        """The comparison ordering is survival-first: a candidate that
        keeps more of the population energy-neutral outranks a higher
        p5 SoC."""
        import dataclasses

        runner = FleetRunner(workers=1, backend="serial")
        result = runner.run_grid(SMALL, [PolicyGrid("energy_aware")])
        [entry] = result.entries
        better_soc = dataclasses.replace(
            entry, label="drained",
            result=dataclasses.replace(
                entry.result,
                fraction_energy_neutral=0.5,
                final_soc=dataclasses.replace(entry.result.final_soc,
                                              p5=1.0)))
        assert (FLEET_STUDY.rank_key(entry.result)
                < FLEET_STUDY.rank_key(better_soc.result))
