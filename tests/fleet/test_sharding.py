"""Sharded fleet execution: merge must be exact, bit for bit.

The acceptance property of the sharding layer: for any shard
partition, reducing the :class:`PartialFleetResult` parts with
:meth:`FleetResult.merge` yields canonical JSON bitwise-identical to
the unsharded :meth:`FleetRunner.run` — partials carry raw per-wearer
records (percentiles do not compose), the reduction re-orders them by
wearer index, and JSON floats round-trip exactly.  Tested for
N ∈ {1, 2, 3, 7} partitions on the serial and process backends, with
every part pushed through its own JSON round trip (the on-disk shard
file format).
"""

import json

import pytest

from repro.errors import SpecError
from repro.fleet import (
    FleetResult,
    FleetRunner,
    FleetSpec,
    PartialFleetResult,
    SamplerSpec,
    WearerRecord,
    load_partial_file,
)
from repro.shard import members

FLEET = FleetSpec(name="sharded", base_scenario="sunny_office_worker",
                  n_wearers=7, horizon_days=1, seed=11,
                  sampler=SamplerSpec("daily_jitter"))

PARTITIONS = [1, 2, 3, 7]


def _round_trip(partial: PartialFleetResult) -> PartialFleetResult:
    """The on-disk path: partials travel as JSON files between runs."""
    return PartialFleetResult.from_dict(json.loads(
        json.dumps(partial.to_dict())))


class TestShardIndices:
    def test_strided_partition_covers_everyone_once(self):
        for count in PARTITIONS:
            indices = [i for shard in range(count)
                       for i in members(FLEET.n_wearers, (shard, count))]
            assert sorted(indices) == list(range(FLEET.n_wearers))

    def test_membership_is_strided(self):
        assert list(members(FLEET.n_wearers, (1, 3))) == [1, 4]

    def test_empty_shard_allowed(self):
        # More shards than wearers: the tail shards are legitimately
        # empty (a cluster can over-partition a small fleet).
        assert list(members(FLEET.n_wearers, (0, 100))) == [0]
        assert list(members(FLEET.n_wearers, (99, 100))) == []

    @pytest.mark.parametrize("index,count,message", [
        (3, 3, "outside partition"),
        (-1, 3, "outside partition"),
        (0, 0, "at least 1"),
        (True, 2, "must be an integer"),
    ])
    def test_bad_partitions_rejected(self, index, count, message):
        with pytest.raises(SpecError, match=message):
            members(FLEET.n_wearers, (index, count))


class TestMergeExact:
    @pytest.mark.parametrize("count", PARTITIONS)
    def test_serial_partition_merges_bitwise(self, count):
        runner = FleetRunner(workers=1, backend="serial")
        full = runner.run(FLEET)
        parts = [_round_trip(runner.run(FLEET, shard=(index, count)))
                 for index in range(count)]
        merged = FleetResult.merge(parts)
        assert json.dumps(merged.to_dict()) == json.dumps(full.to_dict())

    @pytest.mark.parametrize("count", PARTITIONS)
    def test_process_partition_merges_bitwise(self, count):
        """Shards on spawned workers still merge to the exact serial
        unsharded payload — sampling happens in the parent, and shard
        outcomes cross the pool as JSON just like full runs do."""
        serial_full = FleetRunner(workers=1, backend="serial").run(FLEET)
        runner = FleetRunner(workers=2, backend="process")
        parts = [_round_trip(runner.run(FLEET, shard=(index, count)))
                 for index in range(count)]
        merged = FleetResult.merge(parts)
        assert (json.dumps(merged.to_dict())
                == json.dumps(serial_full.to_dict()))

    def test_merge_order_does_not_matter(self):
        runner = FleetRunner(workers=1, backend="serial")
        full = runner.run(FLEET)
        parts = [runner.run(FLEET, shard=(index, 3)) for index in range(3)]
        merged = FleetResult.merge([parts[2], parts[0], parts[1]])
        assert json.dumps(merged.to_dict()) == json.dumps(full.to_dict())

    def test_shard_files_round_trip_via_loader(self, tmp_path):
        runner = FleetRunner(workers=1, backend="serial")
        paths = []
        for index in range(2):
            partial = runner.run(FLEET, shard=(index, 2))
            path = tmp_path / f"part{index}.json"
            path.write_text(json.dumps(partial.to_dict()))
            paths.append(path)
        merged = FleetResult.merge([load_partial_file(p) for p in paths])
        full = runner.run(FLEET)
        assert json.dumps(merged.to_dict()) == json.dumps(full.to_dict())

    def test_partial_records_match_full_population(self):
        """A shard's records are the same numbers the unsharded run
        produced for those wearers — per-wearer seeding means no
        cross-wearer coupling to get wrong."""
        runner = FleetRunner(workers=1, backend="serial")
        partial = runner.run(FLEET, shard=(1, 3))
        assert [r.index for r in partial.records] == [1, 4]
        # Regenerate wearer 4 alone via the 1-of-7 partition trick.
        lone = runner.run(FLEET, shard=(4, 7))
        assert lone.records[0] == partial.records[1]


class TestMergeValidation:
    def _parts(self, count=2):
        runner = FleetRunner(workers=1, backend="serial")
        return [runner.run(FLEET, shard=(index, count))
                for index in range(count)]

    def test_empty_merge_rejected(self):
        with pytest.raises(SpecError, match="zero fleet shards"):
            FleetResult.merge([])

    def test_missing_shard_rejected(self):
        parts = self._parts(3)
        with pytest.raises(SpecError, match=r"missing \[2\]"):
            FleetResult.merge(parts[:2])

    def test_duplicate_shard_rejected(self):
        parts = self._parts(2)
        with pytest.raises(SpecError, match=r"duplicated \[0\]"):
            FleetResult.merge([parts[0], parts[0], parts[1]])

    def test_mismatched_partition_size_rejected(self):
        runner = FleetRunner(workers=1, backend="serial")
        two = runner.run(FLEET, shard=(0, 2))
        three = runner.run(FLEET, shard=(1, 3))
        with pytest.raises(SpecError, match="partition size"):
            FleetResult.merge([two, three])

    def test_from_records_rejects_incomplete_population(self):
        # Same count, wrong membership: wearer 5 twice, wearer 6 never.
        records = [WearerRecord(index=i, energy_neutral=True, final_soc=0.5,
                                detections_per_day=1.0, downtime_s=0.0)
                   for i in (0, 1, 2, 3, 4, 5, 5)]
        with pytest.raises(SpecError, match=r"missing \[6\]"):
            FleetResult.from_records(FLEET, records)

    def test_mismatched_specs_rejected(self):
        runner = FleetRunner(workers=1, backend="serial")
        parts = self._parts(2)
        other = runner.run(FLEET.replace(name="other"), shard=(1, 2))
        with pytest.raises(SpecError, match="different fleets"):
            FleetResult.merge([parts[0], other])


class TestPartialShape:
    def test_shard_validation(self):
        record = WearerRecord(index=0, energy_neutral=True, final_soc=0.5,
                              detections_per_day=100.0, downtime_s=0.0)
        with pytest.raises(SpecError, match="outside partition"):
            PartialFleetResult(spec=FLEET, shard_index=2, shard_count=2,
                               records=())
        with pytest.raises(SpecError, match="does not belong to shard"):
            PartialFleetResult(spec=FLEET, shard_index=1, shard_count=2,
                               records=(record,))
        with pytest.raises(SpecError, match="outside the population"):
            PartialFleetResult(
                spec=FLEET, shard_index=0, shard_count=1,
                records=(WearerRecord(index=99, energy_neutral=True,
                                      final_soc=0.5,
                                      detections_per_day=1.0,
                                      downtime_s=0.0),))
        with pytest.raises(SpecError, match="duplicate wearer 0 record"):
            PartialFleetResult(spec=FLEET, shard_index=0, shard_count=1,
                               records=(record, record))

    def test_run_rejects_malformed_shard(self):
        runner = FleetRunner(workers=1, backend="serial")
        with pytest.raises(SpecError, match=r"\(index, count\) pair"):
            runner.run(FLEET, shard="0/2")

    def test_from_dict_rejects_malformed_payloads(self):
        with pytest.raises(SpecError, match="pair"):
            PartialFleetResult.from_dict(
                {"spec": FLEET.to_dict(), "shard": [1], "wearers": []})
        with pytest.raises(SpecError, match="list of records"):
            PartialFleetResult.from_dict(
                {"spec": FLEET.to_dict(), "shard": [0, 1],
                 "wearers": "nope"})
        with pytest.raises(SpecError, match="WearerRecord"):
            PartialFleetResult.from_dict(
                {"spec": FLEET.to_dict(), "shard": [0, 1],
                 "wearers": [{"index": 0}]})

    def test_record_round_trips(self):
        record = WearerRecord(index=3, energy_neutral=False,
                              final_soc=0.123456789012345,
                              detections_per_day=19782.428571428572,
                              downtime_s=1800.0)
        assert WearerRecord.from_dict(record.to_dict()) == record

    def test_record_rejects_corrupt_values(self):
        """Hand-edited shard files fail as SpecError, not a TypeError
        deep inside a percentile."""
        with pytest.raises(SpecError, match="final_soc must be a finite"):
            WearerRecord(index=0, energy_neutral=True, final_soc="0.5",
                         detections_per_day=1.0, downtime_s=0.0)
        with pytest.raises(SpecError, match="energy_neutral must be a bool"):
            WearerRecord(index=0, energy_neutral="yes", final_soc=0.5,
                         detections_per_day=1.0, downtime_s=0.0)
        # json.loads accepts NaN/Infinity literals; a NaN would
        # silently scramble sorted percentiles, so it must fail loudly.
        with pytest.raises(SpecError, match="final_soc must be a finite"):
            WearerRecord(index=0, energy_neutral=True,
                         final_soc=float("nan"),
                         detections_per_day=1.0, downtime_s=0.0)
        with pytest.raises(SpecError, match="downtime_s must be a finite"):
            WearerRecord(index=0, energy_neutral=True, final_soc=0.5,
                         detections_per_day=1.0,
                         downtime_s=float("inf"))

    def test_partial_provenance_survives_file_round_trip(self):
        """backend/wall_time_s travel with the shard file, so a merged
        result reports real shard wall time — and they stay out of the
        merged canonical payload."""
        runner = FleetRunner(workers=1, backend="serial")
        partial = runner.run(FLEET, shard=(0, 1))
        assert partial.wall_time_s > 0.0
        rebuilt = _round_trip(partial)
        assert rebuilt.backend == partial.backend
        assert rebuilt.wall_time_s == partial.wall_time_s
        merged = FleetResult.merge([rebuilt])
        assert merged.wall_time_s == partial.wall_time_s
        assert "wall_time_s" not in merged.to_dict()
