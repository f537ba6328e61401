"""Conformance of the three sharded result types to one protocol.

Fleet partials, campaign partials and oracle-replay datasets all shard
strided and merge through :mod:`repro.shard`, so each must reject the
same malformed partitions with the same errors.  The parts here are
built directly from synthetic records (no simulation), which keeps
every case cheap and lets a test place any member in any shard.
"""

import pytest

from repro.chaos import (
    CampaignResult,
    ChaosSpec,
    PartialCampaignResult,
    RunJudgement,
    RunRecord,
)
from repro.errors import SpecError
from repro.fleet import (
    FleetResult,
    FleetSpec,
    PartialFleetResult,
    WearerRecord,
)
from repro.learn import Dataset, DatasetSpec, Sample
from repro.scenarios.spec import PolicySpec
from repro.shard import check_members, check_shard, members

POPULATION = 4
POLICIES = (PolicySpec("static_duty_cycle"), PolicySpec("energy_aware"))


def _fleet_part(spec, index, count, owned):
    return PartialFleetResult(
        spec=spec, shard_index=index, shard_count=count,
        records=tuple(WearerRecord(index=k, energy_neutral=True,
                                   final_soc=0.5, detections_per_day=1.0,
                                   downtime_s=0.0) for k in owned))


def _campaign_part(spec, index, count, owned):
    return PartialCampaignResult(
        spec=spec, shard_index=index, shard_count=count, policies=POLICIES,
        records=tuple(RunRecord(case_index=k, scenario=f"case{k}",
                                policy=policy,
                                judgement=RunJudgement(verdict="pass"))
                      for k in owned for policy in POLICIES))


def _dataset_part(spec, index, count, owned):
    return Dataset(
        spec=spec, shard_index=index, shard_count=count,
        samples=tuple(Sample(wearer=k, time_s=60.0 * step,
                             features=(0.0, 1.0, 0.5, 0.001), target=0.5)
                      for k in owned for step in range(2)))


#: kind -> (spec, a different spec, part builder, merge, member noun)
KINDS = {
    "fleet": (
        FleetSpec(name="conf", base_scenario="sunny_office_worker",
                  n_wearers=POPULATION, horizon_days=1, seed=1),
        FleetSpec(name="conf", base_scenario="sunny_office_worker",
                  n_wearers=POPULATION, horizon_days=1, seed=2),
        _fleet_part, FleetResult.merge, "wearer"),
    "campaign": (
        ChaosSpec(name="conf", n_cases=POPULATION, horizon_days=1, seed=1),
        ChaosSpec(name="conf", n_cases=POPULATION, horizon_days=1, seed=2),
        _campaign_part, CampaignResult.merge, "case"),
    "dataset": (
        DatasetSpec(fleet="office_cohort_week", wearers=POPULATION,
                    stride=20),
        DatasetSpec(fleet="office_cohort_week", wearers=POPULATION,
                    stride=7),
        _dataset_part, Dataset.merge, "wearer"),
}


@pytest.fixture(params=sorted(KINDS))
def kind(request):
    return KINDS[request.param]


def _partition(kind, count, spec=None):
    base, _, build, _, _ = kind
    spec = base if spec is None else spec
    return [build(spec, index, count, members(POPULATION, (index, count)))
            for index in range(count)]


class TestPartitionConformance:
    def test_complete_partition_merges(self, kind):
        merge = kind[3]
        merged = merge(_partition(kind, 3))
        assert merged == merge(_partition(kind, 1))

    @pytest.mark.parametrize("count,dropped", [(2, 1), (6, 5)])
    def test_missing_shard_named(self, kind, count, dropped):
        # (6, 5) drops a shard that owns no member: the population is
        # complete, but the partition is not.
        parts = _partition(kind, count)
        del parts[dropped]
        with pytest.raises(SpecError, match=rf"missing \[{dropped}\]"):
            kind[3](parts)

    def test_duplicated_shard_named(self, kind):
        parts = _partition(kind, 2)
        with pytest.raises(SpecError, match=r"duplicated \[0\]"):
            kind[3](parts + parts[:1])

    def test_mixed_counts_rejected(self, kind):
        parts = [_partition(kind, 2)[0], _partition(kind, 3)[1]]
        with pytest.raises(SpecError, match=r"partition size: \[2, 3\]"):
            kind[3](parts)

    def test_mixed_specs_rejected(self, kind):
        other = kind[1]
        parts = [_partition(kind, 2)[0], _partition(kind, 2, other)[1]]
        with pytest.raises(SpecError, match="describe different"):
            kind[3](parts)

    def test_foreign_member_rejected(self, kind):
        spec, _, build, _, noun = kind
        with pytest.raises(SpecError,
                           match=f"{noun} 0 does not belong to shard 1/2"):
            build(spec, 1, 2, [0, 1])

    def test_member_outside_population_rejected(self, kind):
        spec, _, build, _, noun = kind
        with pytest.raises(SpecError,
                           match=f"{noun} {POPULATION} outside the "
                                 f"population of {POPULATION}"):
            build(spec, 0, 1, [POPULATION])

    def test_bool_shard_index_rejected(self, kind):
        spec, _, build, _, _ = kind
        with pytest.raises(SpecError, match="shard index must be an integer"):
            build(spec, True, 2, [1])


class TestShardPosition:
    @pytest.mark.parametrize("shard,message", [
        ("0/2", r"\(index, count\) pair"),
        ((0, 1, 2), r"\(index, count\) pair"),
        ((0, True), "shard count must be an integer"),
        ((0, 0), "at least 1"),
        ((2, 2), "outside partition"),
        ((-1, 2), "outside partition"),
    ])
    def test_malformed_positions_rejected(self, shard, message):
        with pytest.raises(SpecError, match=message):
            check_shard(shard)

    def test_member_index_must_be_a_natural_number(self):
        for member in (-1, 1.0, True):
            with pytest.raises(SpecError, match="non-negative integer"):
                check_members([(member,)], (0, 1), None, "wearer")

    def test_unknown_population_size_skips_the_bound(self):
        check_members([(10**6,)], (0, 1), None, "wearer")
