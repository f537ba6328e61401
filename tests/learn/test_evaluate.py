"""Evaluation: the oracle-gap arithmetic and the fleet-scale report."""

from types import SimpleNamespace

import pytest

from repro.errors import SpecError
from repro.fleet import FleetRunner, FleetSpec
from repro.learn import BASELINE_POLICIES, evaluate_trained, oracle_gap
from repro.learn.evaluate import GAP_METRIC

TINY_FLEET = FleetSpec(name="learn_eval_tiny",
                       base_scenario="sunny_office_worker",
                       n_wearers=2, horizon_days=1, seed=9)


def _fake_comparison(**medians):
    entries = [
        SimpleNamespace(
            policy=SimpleNamespace(name=name),
            result=SimpleNamespace(
                detections_per_day=SimpleNamespace(p50=value)))
        for name, value in medians.items()
    ]
    return SimpleNamespace(entries=entries)


class TestOracleGap:
    def test_fraction_of_gap_closed(self):
        comparison = _fake_comparison(energy_aware=100.0,
                                      oracle_lookahead=200.0,
                                      learned=175.0)
        gap = oracle_gap(comparison)
        assert gap["gap_closed"] == pytest.approx(0.75)
        assert gap["metric"] == GAP_METRIC
        assert gap["baseline_value"] == 100.0
        assert gap["oracle_value"] == 200.0
        assert gap["candidate_value"] == 175.0

    def test_none_when_oracle_opens_no_gap(self):
        comparison = _fake_comparison(energy_aware=200.0,
                                      oracle_lookahead=200.0,
                                      learned=175.0)
        assert oracle_gap(comparison)["gap_closed"] is None

    def test_negative_when_candidate_trails_baseline(self):
        comparison = _fake_comparison(energy_aware=100.0,
                                      oracle_lookahead=200.0,
                                      learned=50.0)
        assert oracle_gap(comparison)["gap_closed"] == pytest.approx(-0.5)

    def test_missing_policy_rejected(self):
        comparison = _fake_comparison(energy_aware=100.0,
                                      oracle_lookahead=200.0)
        with pytest.raises(SpecError, match="learned"):
            oracle_gap(comparison)


class TestEvaluateTrained:
    @pytest.fixture(scope="class")
    def report(self, trained):
        return evaluate_trained(
            trained, fleet=TINY_FLEET,
            runner=FleetRunner(workers=2, backend="serial"))

    def test_races_baselines_and_both_variants(self, report):
        names = sorted({entry.policy.name
                        for entry in report.comparison.entries})
        assert names == sorted(BASELINE_POLICIES
                               + ("learned", "learned_q"))

    def test_learned_beats_static_duty_cycle(self, report):
        by_name = {entry.policy.name: entry.result.detections_per_day.p50
                   for entry in report.comparison.entries}
        assert by_name["learned"] > by_name["static_duty_cycle"]

    def test_gap_includes_quantized(self, report):
        assert report.gap["candidate"] == "learned"
        assert report.gap["quantized"]["candidate"] == "learned_q"

    def test_deployment_fits_the_paper_budget(self, report):
        assert report.deployment["fits_nrf52_ram"] is True
        assert report.deployment["fits_mrwolf_l1"] is True
        assert report.deployment["total_flash_bytes"] > 0

    def test_to_dict_shape(self, report):
        payload = report.to_dict()
        assert set(payload) == {"fleet", "search", "gap", "deployment"}
        assert payload["fleet"] == "learn_eval_tiny"

    def test_quantized_can_be_skipped(self, trained):
        report = evaluate_trained(
            trained, fleet=TINY_FLEET, include_quantized=False,
            runner=FleetRunner(workers=2, backend="serial"))
        names = {entry.policy.name for entry in report.comparison.entries}
        assert "learned_q" not in names
        assert "quantized" not in report.gap

    def test_defaults_to_the_datasets_full_fleet(self, trained):
        # No fleet argument: the dataset's source fleet, uncapped (the
        # evaluation is the generalization check).  A stub runner
        # records what would run without paying for the full sweep.
        calls = []

        class _StubRunner:
            def run_grid(self, fleet, grids):
                calls.append(fleet)
                return _fake_comparison(
                    static_duty_cycle=0.5, energy_aware=1.0,
                    ewma_forecast=1.2, oracle_lookahead=2.0,
                    learned=1.5, learned_q=1.4)

        evaluate_trained(trained, runner=_StubRunner())
        from repro.fleet import get_fleet

        assert calls == [get_fleet(trained.dataset.fleet)]
        assert calls[0].n_wearers > trained.dataset.wearers
