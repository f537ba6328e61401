"""Reporting and promotion: failures become permanent regressions."""

import json

import pytest

from repro.chaos import (
    ChaosAxisSpec,
    ChaosRunner,
    ChaosSpec,
    JudgeRulesSpec,
    format_report,
    interesting_failures,
    judge_scenario,
    promote_failures,
    promotion_name,
)
from repro.errors import SpecError
from repro.scenarios.spec import PolicySpec, ScenarioSpec, canonical_json

# Guaranteed failures: an impossible survival floor means every run
# fails, deterministically, without needing a heavyweight campaign.
HARSH = ChaosSpec(
    name="harshcamp", n_cases=2, horizon_days=1, seed=4,
    axes=(ChaosAxisSpec("polar_winter",
                        {"min_scale": 0.01, "max_scale": 0.05}),),
    judge=JudgeRulesSpec(min_final_soc=1.0))

POLICIES_2 = (PolicySpec("static_duty_cycle"), PolicySpec("energy_aware"))


@pytest.fixture(scope="module")
def harsh_result():
    return ChaosRunner(workers=2).run(HARSH, policies=POLICIES_2)


class TestInterestingFailures:
    def test_every_failure_listed_most_severe_first(self, harsh_result):
        failures = interesting_failures(harsh_result)
        assert len(failures) == len(harsh_result.records)
        ranks = [0 if f.verdict == "violation" else 1 for f in failures]
        assert ranks == sorted(ranks)

    def test_deterministic_ordering(self, harsh_result):
        first = [(f.case_index, f.policy.name)
                 for f in interesting_failures(harsh_result)]
        second = [(f.case_index, f.policy.name)
                  for f in interesting_failures(harsh_result)]
        assert first == second


class TestPromotion:
    def test_promoted_files_are_loadable_and_fail_again(
            self, harsh_result, tmp_path):
        paths = promote_failures(harsh_result, tmp_path, limit=2)
        assert len(paths) == 2
        for path in paths:
            payload = json.loads(path.read_text())
            spec = ScenarioSpec.from_dict(payload)
            # Canonical bytes on disk.
            assert path.read_text() == canonical_json(payload) + "\n"
            # The promoted scenario reproduces its failure under the
            # campaign's judge rules, standalone.
            judgement = judge_scenario(spec, HARSH.judge)
            assert judgement.verdict != "pass"

    def test_one_promotion_per_case(self, harsh_result, tmp_path):
        paths = promote_failures(harsh_result, tmp_path, limit=10)
        cases = set()
        for path in paths:
            name = json.loads(path.read_text())["name"]
            case = name.split("_case")[1].split("_")[0]
            assert case not in cases
            cases.add(case)
        assert len(paths) == HARSH.n_cases  # one per case, both fail

    def test_promotion_name_is_filesystem_safe(self, harsh_result):
        record = harsh_result.records[0]
        name = promotion_name(harsh_result, record)
        assert "/" not in name and ":" not in name
        assert name.startswith("harshcamp_case")

    def test_promoted_policy_is_the_failing_one(self, harsh_result,
                                                tmp_path):
        paths = promote_failures(harsh_result, tmp_path, limit=1)
        payload = json.loads(paths[0].read_text())
        worst = interesting_failures(harsh_result)[0]
        assert payload["system"]["policy"]["name"] == worst.policy.name

    def test_limit_validation(self, harsh_result, tmp_path):
        with pytest.raises(SpecError, match="limit"):
            promote_failures(harsh_result, tmp_path, limit=0)


class TestFormatReport:
    def test_report_mentions_counts_and_policies(self, harsh_result):
        text = format_report(harsh_result)
        assert "harshcamp" in text
        assert "static_duty_cycle" in text
        assert "survival failures" in text
        assert "top failures" in text

    def test_all_pass_report(self):
        calm = ChaosSpec(
            name="calm", n_cases=1, horizon_days=1, seed=0,
            base_scenario="sunny_office_worker",
            axes=(ChaosAxisSpec("polar_winter",
                                {"min_scale": 0.99,
                                 "max_scale": 1.0}),))
        result = ChaosRunner().run(calm, policies=POLICIES_2)
        assert "every run passed" in format_report(result)
