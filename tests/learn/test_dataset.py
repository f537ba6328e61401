"""Dataset generation: determinism, sharding, JSONL, recording."""

import dataclasses

import numpy as np
import pytest

from repro.errors import SpecError
from repro.learn import Dataset, RecordingPolicy, Sample, generate_dataset
from repro.learn.dataset import DATASET_KIND
from repro.policies.learned import FEATURE_NAMES

from tests.learn.conftest import TINY_DATASET_SPEC


class _ConstantPolicy:
    """A stateless teacher stub: always half the ceiling."""

    max_rate_per_min = 10.0

    def __init__(self):
        self.resets = 0

    def reset(self):
        self.resets += 1

    def decide(self, time_s, step_s, harvest_power_w, state_of_charge):
        return 5.0


def _obs(t=0.0):
    """The four ``decide`` arguments, in protocol order."""
    return t, 60.0, 0.005, 0.8


class TestRecordingPolicy:
    def test_transparent_delegation(self):
        recorder = RecordingPolicy(_ConstantPolicy(), wearer=0)
        assert recorder.decide(*_obs()) == 5.0
        assert recorder.max_rate_per_min == 10.0

    def test_records_normalized_target(self):
        recorder = RecordingPolicy(_ConstantPolicy(), wearer=3)
        recorder.decide(*_obs(t=120.0))
        (sample,) = recorder.samples
        assert sample.wearer == 3
        assert sample.time_s == 120.0
        assert sample.target == 0.5
        assert len(sample.features) == len(FEATURE_NAMES)

    def test_stride_skips_steps(self):
        recorder = RecordingPolicy(_ConstantPolicy(), wearer=0, stride=3)
        for step in range(7):
            recorder.decide(*_obs(t=60.0 * step))
        assert [s.time_s for s in recorder.samples] == [0.0, 180.0, 360.0]

    def test_reset_delegates_and_restarts_stride(self):
        inner = _ConstantPolicy()
        recorder = RecordingPolicy(inner, wearer=0, stride=2)
        recorder.decide(*_obs())
        recorder.reset()
        assert inner.resets == 1
        recorder.decide(*_obs(t=60.0))
        # The post-reset first call is recorded again (counter rewound).
        assert [s.time_s for s in recorder.samples] == [0.0, 60.0]


class TestGenerate:
    def test_deterministic(self, tiny_dataset):
        again = generate_dataset(TINY_DATASET_SPEC)
        assert again.to_jsonl() == tiny_dataset.to_jsonl()

    def test_covers_requested_wearers(self, tiny_dataset):
        assert tiny_dataset.wearers == [0, 1]

    def test_targets_are_fractions(self, tiny_dataset):
        _, y = tiny_dataset.matrices()
        assert np.all(y >= 0.0) and np.all(y <= 1.0)

    def test_matrices_shapes(self, tiny_dataset):
        x, y = tiny_dataset.matrices()
        assert x.shape == (len(tiny_dataset.samples), len(FEATURE_NAMES))
        assert y.shape == (len(tiny_dataset.samples), 1)

    def test_shards_merge_bitwise_exact(self, tiny_dataset):
        parts = [generate_dataset(TINY_DATASET_SPEC, shard=(i, 2))
                 for i in range(2)]
        assert parts[0].wearers == [0]
        assert parts[1].wearers == [1]
        merged = Dataset.merge(parts)
        assert merged.to_jsonl() == tiny_dataset.to_jsonl()

    def test_empty_dataset_has_no_matrices(self):
        with pytest.raises(SpecError, match="empty"):
            Dataset(spec=TINY_DATASET_SPEC).matrices()

    def test_invalid_shard_position_rejected(self):
        with pytest.raises(SpecError, match="shard"):
            Dataset(spec=TINY_DATASET_SPEC, shard_index=2, shard_count=2)


class TestJsonl:
    def test_round_trip(self, tiny_dataset):
        again = Dataset.from_jsonl(tiny_dataset.to_jsonl())
        assert again == tiny_dataset

    def test_header_carries_kind_and_features(self, tiny_dataset):
        header = tiny_dataset.to_jsonl().splitlines()[0]
        assert DATASET_KIND in header
        for name in FEATURE_NAMES:
            assert name in header

    def test_empty_text_rejected(self):
        with pytest.raises(SpecError, match="empty"):
            Dataset.from_jsonl("")

    def test_bad_header_json_rejected(self):
        with pytest.raises(SpecError, match="not valid JSON"):
            Dataset.from_jsonl("{nope\n")

    def test_wrong_kind_rejected(self):
        with pytest.raises(SpecError, match="repro.learn/dataset"):
            Dataset.from_jsonl('{"kind": "something_else"}\n')

    def test_wrong_version_rejected(self, tiny_dataset):
        text = tiny_dataset.to_jsonl().replace('"version":1', '"version":99')
        with pytest.raises(SpecError, match="version"):
            Dataset.from_jsonl(text)

    def test_feature_schema_mismatch_rejected(self, tiny_dataset):
        text = tiny_dataset.to_jsonl().replace("tod_sin", "tod_tan")
        with pytest.raises(SpecError, match="regenerate"):
            Dataset.from_jsonl(text)

    def test_bad_shard_header_rejected(self, tiny_dataset):
        text = tiny_dataset.to_jsonl().replace('"shard":[0,1]',
                                               '"shard":"all"')
        with pytest.raises(SpecError, match="index, count"):
            Dataset.from_jsonl(text)

    def test_malformed_sample_line_rejected(self, tiny_dataset):
        header = tiny_dataset.to_jsonl().splitlines()[0]
        with pytest.raises(SpecError, match="w/t/x/y"):
            Dataset.from_jsonl(header + '\n{"wrong": 1}\n')


class TestMerge:
    def test_needs_parts(self):
        with pytest.raises(SpecError, match="zero dataset shards"):
            Dataset.merge([])

    def test_mixed_specs_rejected(self, tiny_dataset):
        other = dataclasses.replace(
            tiny_dataset,
            spec=dataclasses.replace(TINY_DATASET_SPEC, stride=7))
        with pytest.raises(SpecError, match="different datasets"):
            Dataset.merge([tiny_dataset, other])

    def test_incomplete_partition_rejected(self):
        part = Dataset(spec=TINY_DATASET_SPEC, shard_index=0, shard_count=2)
        with pytest.raises(SpecError, match="each shard"):
            Dataset.merge([part])

    def test_duplicate_shard_rejected(self):
        part = Dataset(spec=TINY_DATASET_SPEC, shard_index=0, shard_count=2)
        with pytest.raises(SpecError, match="each shard"):
            Dataset.merge([part, part])

    def test_mixed_shard_counts_rejected(self):
        a = Dataset(spec=TINY_DATASET_SPEC, shard_index=0, shard_count=2)
        b = Dataset(spec=TINY_DATASET_SPEC, shard_index=0, shard_count=3)
        with pytest.raises(SpecError, match="partition size"):
            Dataset.merge([a, b])


class TestSample:
    def test_round_trip(self):
        sample = Sample(wearer=1, time_s=60.0,
                        features=(0.1, 0.2, 0.3, 0.4), target=0.5)
        assert Sample.from_dict(sample.to_dict()) == sample

    def test_missing_key_rejected(self):
        with pytest.raises(SpecError, match="w/t/x/y"):
            Sample.from_dict({"w": 1, "t": 0.0})
