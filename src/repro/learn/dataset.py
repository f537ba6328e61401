"""Oracle replay -> canonical JSONL supervision datasets.

Dataset generation replays the ``oracle_lookahead`` teacher over a
seeded sampled fleet and records, at every ``stride``-th decision
step, the :func:`~repro.policies.learned.extract_features` vector the
policy protocol exposes and the oracle's chosen rate as a fraction of
its ceiling.  Everything is deterministic — the fleet's wearers are
seeded, the engine is, the oracle is stateless — so the same
:class:`~repro.learn.spec.DatasetSpec` always produces the same bytes.

Sharding follows the strided-shard protocol of :mod:`repro.shard`,
with wearers as the members: ``shard=(i, n)`` replays only the wearers
shard ``i`` owns, and :meth:`Dataset.merge` sorts the samples of a
complete partition by ``(wearer, time_s)``.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

import numpy as np

from repro.errors import SpecError
from repro.learn.spec import DatasetSpec
from repro.policies.learned import FEATURE_NAMES, extract_features
from repro.scenarios.spec import canonical_json
from repro.shard import check_members, check_partition, check_shard, members

__all__ = ["Sample", "Dataset", "RecordingPolicy", "generate_dataset",
           "load_dataset_file"]

#: Format tag of the JSONL header line.
DATASET_KIND = "repro.learn/dataset"
DATASET_VERSION = 1


@dataclass(frozen=True)
class Sample:
    """One supervision pair: ``decide`` features -> oracle rate fraction.

    Attributes:
        wearer: 0-based wearer index in the fleet.
        time_s: simulation time of the decision step.
        features: the feature vector, in ``FEATURE_NAMES`` order.
        target: the oracle's rate divided by its ceiling, in [0, 1].
    """

    wearer: int
    time_s: float
    features: tuple[float, ...]
    target: float

    def to_dict(self) -> dict[str, Any]:
        return {"w": self.wearer, "t": self.time_s,
                "x": list(self.features), "y": self.target}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Sample":
        try:
            return cls(wearer=data["w"], time_s=data["t"],
                       features=tuple(data["x"]), target=data["y"])
        except (KeyError, TypeError):
            raise SpecError(
                f"malformed dataset sample line: {dict(data)!r} "
                f"(need keys w/t/x/y)") from None


class RecordingPolicy:
    """A transparent policy wrapper that captures supervision pairs.

    Delegates every decision to the wrapped teacher unchanged (the run
    is bitwise the teacher's run) and records every ``stride``-th
    decision as a :class:`Sample`.  The recorded target is the decided
    rate normalized by the teacher's ceiling — exactly what the
    ``learned`` policy's sigmoid output is trained to reproduce.
    """

    def __init__(self, inner, wearer: int, stride: int = 1) -> None:
        self.inner = inner
        self.wearer = wearer
        self.stride = stride
        self.samples: list[Sample] = []
        self._calls = 0

    @property
    def max_rate_per_min(self) -> float:
        return self.inner.max_rate_per_min

    def reset(self) -> None:
        reset = getattr(self.inner, "reset", None)
        if reset is not None:
            reset()
        self._calls = 0

    def decide(self, time_s: float, step_s: float, harvest_power_w: float,
               state_of_charge: float) -> float:
        rate = self.inner.decide(time_s, step_s, harvest_power_w,
                                 state_of_charge)
        if self._calls % self.stride == 0:
            ceiling = self.inner.max_rate_per_min
            fraction = min(max(rate / ceiling, 0.0), 1.0)
            self.samples.append(Sample(
                wearer=self.wearer,
                time_s=time_s,
                features=extract_features(time_s, step_s, harvest_power_w,
                                          state_of_charge),
                target=fraction,
            ))
        self._calls += 1
        return rate


@dataclass(frozen=True)
class Dataset:
    """A (possibly partial) supervision dataset plus its provenance.

    Attributes:
        spec: the generating :class:`DatasetSpec`.
        shard_index / shard_count: which strided wearer partition this
            dataset covers (``0/1`` = the whole fleet).
        samples: the supervision pairs, wearers in index order.
    """

    spec: DatasetSpec
    shard_index: int = 0
    shard_count: int = 1
    samples: tuple[Sample, ...] = ()

    def __post_init__(self) -> None:
        # The wearer cap bounds the population when one is set; the
        # uncapped size would need a fleet-registry lookup.
        check_members(((sample.wearer, sample.time_s)
                       for sample in self.samples),
                      (self.shard_index, self.shard_count),
                      self.spec.wearers or None, "wearer")

    @property
    def wearers(self) -> list[int]:
        """Distinct wearer indices present, sorted."""
        return sorted({sample.wearer for sample in self.samples})

    def matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """``(inputs, targets)`` training batches for the fann trainers."""
        if not self.samples:
            raise SpecError("cannot build training matrices from an "
                            "empty dataset")
        x = np.array([sample.features for sample in self.samples],
                     dtype=np.float64)
        y = np.array([[sample.target] for sample in self.samples],
                     dtype=np.float64)
        return x, y

    def to_jsonl(self) -> str:
        """Canonical JSONL: one header line, then one line per sample."""
        header = {
            "kind": DATASET_KIND,
            "version": DATASET_VERSION,
            "features": list(FEATURE_NAMES),
            "spec": self.spec.to_dict(),
            "shard": [self.shard_index, self.shard_count],
        }
        lines = [canonical_json(header)]
        lines.extend(canonical_json(sample.to_dict())
                     for sample in self.samples)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str, what: str = "dataset") -> "Dataset":
        """Parse :meth:`to_jsonl` output back, validating the header."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise SpecError(f"{what} is empty")
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise SpecError(f"{what} header is not valid JSON: {exc}") from None
        if not isinstance(header, dict) or header.get("kind") != DATASET_KIND:
            raise SpecError(
                f"{what} is not a {DATASET_KIND} file (header {lines[0][:80]!r})")
        if header.get("version") != DATASET_VERSION:
            raise SpecError(
                f"{what} uses dataset version {header.get('version')!r}; "
                f"this build reads version {DATASET_VERSION}")
        if header.get("features") != list(FEATURE_NAMES):
            raise SpecError(
                f"{what} was generated with features "
                f"{header.get('features')!r}, but this build extracts "
                f"{list(FEATURE_NAMES)} — regenerate the dataset")
        try:
            shard_index, shard_count = check_shard(header.get("shard", [0, 1]))
        except SpecError as exc:
            raise SpecError(f"{what} header: {exc}") from None
        samples = []
        for number, line in enumerate(lines[1:], start=2):
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise SpecError(
                    f"{what} line {number} is not valid JSON: {exc}") from None
            samples.append(Sample.from_dict(data))
        return cls(spec=DatasetSpec.from_dict(header.get("spec", {})),
                   shard_index=shard_index, shard_count=shard_count,
                   samples=tuple(samples))

    @classmethod
    def merge(cls, parts: Sequence["Dataset"]) -> "Dataset":
        """Reassemble a complete shard partition into the full dataset.

        Validates that the parts share one spec and form exactly the
        partition ``0..count-1``, then re-orders samples by wearer —
        producing the bitwise-identical unsharded dataset (wearer
        scenarios are independent, so sample values never depend on
        the partition).
        """
        parts = check_partition(parts, "dataset")
        merged = sorted(
            (sample for part in parts for sample in part.samples),
            key=lambda sample: (sample.wearer, sample.time_s))
        return cls(spec=parts[0].spec, samples=tuple(merged))


def generate_dataset(spec: DatasetSpec,
                     shard: tuple[int, int] | None = None) -> Dataset:
    """Replay the oracle teacher and collect supervision pairs.

    Args:
        spec: what to generate (fleet, wearer cap, stride, teacher
            window).
        shard: optional ``(index, count)`` strided wearer partition;
            the resulting partial datasets merge exactly
            (:meth:`Dataset.merge`).
    """
    from repro.fleet import wearer_scenarios
    from repro.scenarios import build_simulation

    fleet = spec.resolved_fleet()
    if shard is None:
        shard = (0, 1)
    indices = members(fleet.n_wearers, shard)
    teacher = spec.teacher_policy()
    samples: list[Sample] = []
    for index, scenario in zip(indices, wearer_scenarios(fleet, indices)):
        scenario = dataclasses.replace(
            scenario,
            system=dataclasses.replace(scenario.system, policy=teacher))
        simulation = build_simulation(scenario)
        recorder = RecordingPolicy(simulation.policy, wearer=index,
                                   stride=spec.stride)
        simulation.policy = recorder
        simulation.run()
        samples.extend(recorder.samples)
    return Dataset(spec=spec, shard_index=shard[0], shard_count=shard[1],
                   samples=tuple(samples))


def load_dataset_file(path: Any) -> Dataset:
    """Read a :meth:`Dataset.to_jsonl` file, naming it in errors."""
    from pathlib import Path

    file_path = Path(path)
    try:
        text = file_path.read_text()
    except OSError as exc:
        raise SpecError(f"cannot read dataset {file_path}: {exc}") from None
    return Dataset.from_jsonl(text, what=str(file_path))
