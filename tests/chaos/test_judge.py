"""The invariant judge: verdicts, the ledger, and broken-policy
classification."""

import dataclasses

import pytest

from repro.chaos import (
    JudgeRulesSpec,
    LedgerBattery,
    RunJudgement,
    judge_scenario,
    judge_simulation,
)
from repro.errors import SpecError
from repro.power import LiPoBattery
from repro.scenarios import build_simulation, get_scenario, register_policy
from repro.scenarios.registry import POLICIES
from repro.scenarios.runner import ScenarioOutcome
from repro.scenarios.spec import FaultSpec, PolicySpec


def _scenario(**overrides):
    base = get_scenario("sunny_office_worker")
    return dataclasses.replace(base, trace="none", **overrides)


class TestLedgerBattery:
    def test_books_balance_on_simple_cycle(self):
        inner = LiPoBattery(capacity_mah=10.0, initial_soc=0.5)
        ledger = LedgerBattery(inner)
        stored = ledger.charge(0.01, 60.0)
        delivered = ledger.discharge(0.005, 60.0)
        assert ledger.energy_in_j == stored
        assert ledger.energy_out_j == delivered
        assert ledger.coulombs_in > 0
        assert ledger.coulombs_out > 0
        assert ledger.state_of_charge == inner.state_of_charge


class TestRunJudgement:
    def test_round_trip_with_outcome(self):
        sim = build_simulation(_scenario())
        judgement = judge_simulation(sim, name="rt")
        again = RunJudgement.from_dict(judgement.to_dict())
        assert again == judgement
        assert isinstance(again.outcome, ScenarioOutcome)

    def test_round_trip_without_outcome(self):
        judgement = RunJudgement(verdict="violation",
                                 reasons=("engine error: boom",))
        assert RunJudgement.from_dict(judgement.to_dict()) == judgement

    def test_unknown_verdict_rejected(self):
        with pytest.raises(SpecError, match="verdict"):
            RunJudgement(verdict="meh")


class TestVerdicts:
    def test_healthy_run_passes(self):
        judgement = judge_scenario(_scenario())
        assert judgement.verdict == "pass"
        assert judgement.reasons == ()
        assert judgement.outcome is not None

    def test_survival_failure_on_strict_soc_floor(self):
        rules = JudgeRulesSpec(min_final_soc=1.0)
        judgement = judge_scenario(_scenario(), rules)
        assert judgement.verdict == "survival_failure"
        assert any("SoC" in reason for reason in judgement.reasons)

    def test_survival_failure_on_zero_detections(self):
        blind = _scenario(faults=(
            FaultSpec(kind="sensor_dropout", start_s=0.0,
                      duration_s=7 * 86400.0),))
        judgement = judge_scenario(blind)
        assert judgement.verdict == "survival_failure"
        assert any("zero detections" in reason
                   for reason in judgement.reasons)

    def test_detections_rule_can_be_waived(self):
        blind = _scenario(faults=(
            FaultSpec(kind="sensor_dropout", start_s=0.0,
                      duration_s=7 * 86400.0),))
        rules = JudgeRulesSpec(require_detections=False)
        assert judge_scenario(blind, rules).verdict == "pass"

    def test_invariants_hold_under_fault_injection(self):
        # The decomposition check must account for injected load.
        spiked = _scenario(faults=(
            FaultSpec(kind="load_spike", start_s=0.0, duration_s=7200.0,
                      magnitude=0.015),
            FaultSpec(kind="harvester_derate", start_s=3600.0,
                      duration_s=7200.0, magnitude=0.3),))
        judgement = judge_scenario(spiked)
        assert judgement.verdict != "violation", judgement.reasons


class TestBrokenPolicyClassification:
    """A policy that demands negative energy must be caught as a
    *violation* (a simulator-contract breach), never a pass and never
    a mere survival failure."""

    def test_negative_rate_policy_is_a_violation(self):
        class NegativeRatePolicy:
            max_rate_per_min = 24.0

            def decide(self, time_s, step_s, harvest_power_w,
                       state_of_charge):
                return -5.0

        @register_policy("test_negative_energy")
        def _build(params, context):
            return NegativeRatePolicy()

        try:
            broken = _scenario(
                system=dataclasses.replace(
                    _scenario().system,
                    policy=PolicySpec("test_negative_energy")))
            judgement = judge_scenario(broken)
            assert judgement.verdict == "violation"
            assert any("engine error" in reason
                       for reason in judgement.reasons)
            assert judgement.outcome is None
        finally:
            POLICIES.remove("test_negative_energy")
