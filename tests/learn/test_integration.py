"""Trained policies riding the existing machinery unchanged.

The weights live inside ``PolicySpec.params``, so a trained policy
must travel everywhere a spec travels: across the process backend's
pickle boundary, and through a chaos campaign.
"""

from repro.chaos import ChaosRunner, ChaosSpec
from repro.fleet import FleetRunner, FleetSpec
from repro.policies.grid import PolicyGrid
from repro.scenarios.spec import PolicySpec, canonical_json

TINY_FLEET = FleetSpec(name="learn_proc_tiny",
                       base_scenario="sunny_office_worker",
                       n_wearers=2, horizon_days=1, seed=13)


class TestProcessBackend:
    def test_learned_grid_matches_serial_backend(self, trained):
        grids = [PolicyGrid("static_duty_cycle"),
                 PolicyGrid("learned", base=trained.policy.params)]
        serial = FleetRunner(workers=2, backend="serial").run_grid(
            TINY_FLEET, grids)
        process = FleetRunner(workers=2, backend="process").run_grid(
            TINY_FLEET, grids)
        assert (canonical_json(process.to_dict())
                == canonical_json(serial.to_dict()))


class TestChaosCampaign:
    def test_learned_policy_survives_a_campaign(self, trained):
        spec = ChaosSpec(name="learned_case", n_cases=2, horizon_days=1,
                         seed=4)
        policies = (PolicySpec("static_duty_cycle"), trained.policy)
        result = ChaosRunner(workers=2).run(spec, policies=policies)
        assert len(result.records) == 2 * 2
        learned_records = [r for r in result.records
                           if r.policy.name == "learned"]
        assert len(learned_records) == 2
        # The full weight blob round-trips through the campaign payload.
        payload = result.canonical_json()
        from repro.chaos import CampaignResult
        import json

        again = CampaignResult.from_dict(json.loads(payload))
        assert again.canonical_json() == payload
