"""Campaign execution: backends agree bitwise, shards merge exactly."""

import json
import multiprocessing

import pytest

from repro.chaos import (
    CampaignResult,
    ChaosRunner,
    ChaosSpec,
    PartialCampaignResult,
    RunRecord,
    RunJudgement,
    default_policies,
    load_campaign_result,
)
from repro.errors import SpecError
from repro.scenarios.spec import PolicySpec, canonical_json

SPEC = ChaosSpec(name="camp", n_cases=3, horizon_days=1, seed=2)
POLICIES_2 = (PolicySpec("static_duty_cycle"), PolicySpec("energy_aware"))


@pytest.fixture(scope="module")
def full_result():
    return ChaosRunner(workers=2, backend="process").run(
        SPEC, policies=POLICIES_2)


class TestRunRecord:
    def test_round_trip(self, full_result):
        record = full_result.records[0]
        assert RunRecord.from_dict(record.to_dict()) == record

    def test_negative_case_index_rejected(self):
        with pytest.raises(SpecError, match="case_index"):
            RunRecord(case_index=-1, scenario="s",
                      policy=PolicySpec("static_duty_cycle"),
                      judgement=RunJudgement(verdict="pass"))


class TestCampaignResult:
    def test_complete_and_ordered(self, full_result):
        assert len(full_result.records) == 3 * 2
        keys = [(r.case_index, r.policy.name) for r in full_result.records]
        assert keys == sorted(keys, key=lambda k: (
            k[0], [p.name for p in POLICIES_2].index(k[1])))

    def test_round_trip(self, full_result):
        payload = json.loads(full_result.canonical_json())
        again = CampaignResult.from_dict(payload)
        assert again.canonical_json() == full_result.canonical_json()

    def test_incomplete_partition_rejected(self, full_result):
        with pytest.raises(SpecError, match="incomplete"):
            CampaignResult(spec=SPEC, policies=POLICIES_2,
                           records=full_result.records[:-1])

    def test_provenance_outside_canonical_payload(self, full_result):
        assert full_result.backend
        payload = full_result.to_dict()
        assert "backend" not in payload
        assert "wall_time_s" not in payload

    def test_counts_sum_to_total(self, full_result):
        counts = full_result.counts()
        assert sum(counts.values()) == len(full_result.records)

    def test_default_policies_are_all_registered_sorted(self):
        names = [p.name for p in default_policies()]
        assert names == sorted(names)
        assert "static_duty_cycle" in names


class TestBackendsAgree:
    def test_serial_equals_process(self, full_result):
        serial = ChaosRunner(backend="serial").run(SPEC,
                                                   policies=POLICIES_2)
        assert serial.canonical_json() == full_result.canonical_json()

    def test_default_backend_equals_process(self, full_result):
        default = ChaosRunner(workers=2).run(SPEC, policies=POLICIES_2)
        assert default.canonical_json() == full_result.canonical_json()

    def test_process_pool_pids_stable_across_runs(self, full_result):
        """Two consecutive runs on one runner must ride the same
        persistent workers — no fresh pool per campaign (the bug this
        PR fixes).  PID stability is asserted through the shared
        pool's observability, not timing."""
        from repro.pool import get_shared_pool

        runner = ChaosRunner(workers=2, backend="process")
        first = runner.run(SPEC, policies=POLICIES_2)
        pool = get_shared_pool()
        before = pool.stats
        # The live workers, not the PIDs the first run happened to
        # see: a fresh pool may serve that run from one worker.
        live = {child.pid for child in multiprocessing.active_children()}
        second = runner.run(SPEC, policies=POLICIES_2)
        after = pool.stats
        assert after.spawns == before.spawns  # no respawn between runs
        assert after.crashes == before.crashes
        assert pool.last_batch_pids and pool.last_batch_pids <= live
        assert first.canonical_json() == second.canonical_json()
        assert second.backend == "process"


class TestSharding:
    @pytest.mark.parametrize("shard_count", [1, 2, 3])
    def test_merge_is_bitwise_exact(self, full_result, shard_count):
        runner = ChaosRunner(workers=2)
        parts = [runner.run(SPEC, policies=POLICIES_2,
                            shard=(i, shard_count))
                 for i in range(shard_count)]
        # Round-trip every part through JSON — the on-disk shard format.
        parts = [PartialCampaignResult.from_dict(
            json.loads(canonical_json(part.to_dict()))) for part in parts]
        merged = CampaignResult.merge(parts)
        assert merged.canonical_json() == full_result.canonical_json()
        assert merged.backend == "merged"

    def test_records_must_belong_to_shard(self, full_result):
        stray = [r for r in full_result.records if r.case_index == 0]
        with pytest.raises(SpecError, match="belong"):
            PartialCampaignResult(spec=SPEC, shard_index=1, shard_count=2,
                                  policies=POLICIES_2,
                                  records=tuple(stray))

    def test_duplicate_shards_rejected(self):
        runner = ChaosRunner()
        part = runner.run(SPEC, policies=POLICIES_2, shard=(0, 2))
        with pytest.raises(SpecError, match="duplicate"):
            CampaignResult.merge([part, part])

    def test_mismatched_specs_rejected(self):
        runner = ChaosRunner()
        part0 = runner.run(SPEC, policies=POLICIES_2, shard=(0, 2))
        other = ChaosSpec(name="camp", n_cases=3, horizon_days=1, seed=3)
        part1 = runner.run(other, policies=POLICIES_2, shard=(1, 2))
        with pytest.raises(SpecError, match="different campaigns"):
            CampaignResult.merge([part0, part1])

    def test_merge_of_nothing_rejected(self):
        with pytest.raises(SpecError, match="zero"):
            CampaignResult.merge([])


class TestRunnerValidation:
    def test_unknown_backend(self):
        with pytest.raises(SpecError, match="backend"):
            ChaosRunner(backend="quantum")

    def test_unknown_policy_named(self):
        with pytest.raises(SpecError, match="warp_drive"):
            ChaosRunner().run(SPEC, policies=[PolicySpec("warp_drive")])

    def test_duplicate_policies_rejected(self):
        with pytest.raises(SpecError, match="unique"):
            ChaosRunner().run(SPEC, policies=[
                PolicySpec("static_duty_cycle"),
                PolicySpec("static_duty_cycle")])


class TestLoadCampaignResult:
    def test_full_result_file(self, full_result, tmp_path):
        path = tmp_path / "full.json"
        path.write_text(full_result.canonical_json() + "\n")
        loaded = load_campaign_result(path)
        assert isinstance(loaded, CampaignResult)
        assert loaded.canonical_json() == full_result.canonical_json()

    def test_partial_file_detected_by_shard_key(self, tmp_path):
        part = ChaosRunner().run(SPEC, policies=POLICIES_2, shard=(0, 3))
        path = tmp_path / "part.json"
        path.write_text(canonical_json(part.to_dict()) + "\n")
        loaded = load_campaign_result(path)
        assert isinstance(loaded, PartialCampaignResult)
        assert loaded.shard_index == 0

    def test_bad_file_names_path(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"records": []}')
        with pytest.raises(SpecError, match="junk.json"):
            load_campaign_result(path)
