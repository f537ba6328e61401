"""Population statistics reduced from per-wearer outcomes.

A fleet run never retains per-step traces — each wearer reduces to a
:class:`~repro.scenarios.runner.ScenarioOutcome`, and the fleet
reduces those to a :class:`FleetResult`: distribution summaries
(p5/p50/p95/mean) of final state of charge, detections per day and
downtime hours, plus the fraction of wearers that finished
energy-neutral.

:meth:`FleetResult.to_dict` is the *canonical payload*: it contains
only values that are a pure function of the :class:`FleetSpec`, so its
JSON is bitwise-identical across backends and runs for a fixed seed
(the acceptance property the determinism tests assert).  Provenance
that legitimately varies — which backend ran, how long it took — lives
on the result object (``backend``, ``wall_time_s``) but stays out of
the canonical dict.

Sharded fleet runs follow the strided-shard protocol of
:mod:`repro.shard`: a :class:`PartialFleetResult` carries one raw
:class:`WearerRecord` per wearer of its shard, and
:meth:`FleetResult.merge` feeds a complete partition through
:meth:`FleetResult.from_records`, the reduction the unsharded path
uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Mapping, Sequence

from repro.errors import SpecError
from repro.fleet.spec import FleetSpec
from repro.scenarios.runner import ScenarioOutcome
from repro.scenarios.spec import canonical_json, check_mapping_keys
from repro.shard import check_members, check_partition, check_shard

__all__ = ["percentile", "DistributionSummary", "WearerRecord",
           "PartialFleetResult", "FleetResult", "load_partial_file"]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile with linear interpolation.

    Matches the classic "linear" definition (numpy's default): the
    percentile of a sorted sample ``x_0 .. x_{n-1}`` at rank
    ``q/100 * (n-1)``, interpolating between neighbours.

    >>> percentile([4.0, 1.0, 3.0, 2.0], 50)
    2.5
    >>> percentile([4.0, 1.0, 3.0, 2.0], 0)
    1.0
    >>> percentile([10.0], 95)
    10.0
    """
    if not values:
        raise SpecError("cannot take a percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise SpecError(f"percentile must lie in [0, 100], got {q!r}")
    ordered = sorted(values)
    rank = q / 100.0 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    fraction = rank - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-ish summary of one per-wearer quantity.

    Attributes:
        p5 / p50 / p95: percentiles of the population (p5 is the
            "planning" tail fleet rankings use — how the unlucky
            wearers fare).
        mean: population mean.
    """

    p5: float
    p50: float
    p95: float
    mean: float

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "DistributionSummary":
        """Summarise a non-empty sample.

        >>> DistributionSummary.from_values([1.0, 2.0, 3.0]).p50
        2.0
        """
        return cls(
            p5=percentile(values, 5),
            p50=percentile(values, 50),
            p95=percentile(values, 95),
            mean=sum(values) / len(values),
        )

    def to_dict(self) -> dict[str, float]:
        return {"p5": self.p5, "p50": self.p50, "p95": self.p95,
                "mean": self.mean}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DistributionSummary":
        known = {f.name for f in fields(cls)}
        check_mapping_keys("DistributionSummary", data, known, required=known)
        return cls(**data)


@dataclass(frozen=True)
class WearerRecord:
    """The raw per-wearer numbers a fleet reduction consumes.

    The smallest value that makes sharding merge-exact: percentiles
    and means do not compose across shards, so partial results carry
    one record per wearer and the reduction happens once, over the
    re-assembled population.

    Attributes:
        index: the wearer's 0-based index in the fleet.
        energy_neutral: battery ended no lower than it started.
        final_soc: final state of charge, in [0, 1].
        detections_per_day: detection rate normalised to a 24 h day.
        downtime_s: seconds the battery could not cover the demand.
    """

    index: int
    energy_neutral: bool
    final_soc: float
    detections_per_day: float
    downtime_s: float

    def __post_init__(self) -> None:
        if isinstance(self.index, bool) or not isinstance(self.index, int):
            raise SpecError(
                f"wearer index must be an integer, got {self.index!r}")
        if self.index < 0:
            raise SpecError(f"wearer index cannot be negative: {self.index}")
        # Shard files are hand-editable JSON: reject corrupt values here
        # so a bad file fails as a SpecError naming the path (via
        # load_partial_file), not as a TypeError deep in a percentile.
        if not isinstance(self.energy_neutral, bool):
            raise SpecError(
                f"wearer {self.index} energy_neutral must be a boolean, "
                f"got {self.energy_neutral!r}")
        for attr in ("final_soc", "detections_per_day", "downtime_s"):
            value = getattr(self, attr)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or not math.isfinite(value)):
                # isfinite matters: json.loads accepts NaN/Infinity
                # literals, and a NaN would silently scramble the
                # merged percentiles instead of failing loudly.
                raise SpecError(
                    f"wearer {self.index} {attr} must be a finite number, "
                    f"got {value!r}")

    @classmethod
    def from_outcome(cls, index: int,
                     outcome: ScenarioOutcome) -> "WearerRecord":
        """The record of wearer ``index`` from its scenario outcome."""
        return cls(
            index=index,
            energy_neutral=outcome.energy_neutral,
            final_soc=outcome.final_soc,
            detections_per_day=outcome.detections_per_day,
            downtime_s=outcome.downtime_s,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "energy_neutral": self.energy_neutral,
            "final_soc": self.final_soc,
            "detections_per_day": self.detections_per_day,
            "downtime_s": self.downtime_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WearerRecord":
        known = {f.name for f in fields(cls)}
        check_mapping_keys("WearerRecord", data, known, required=known)
        return cls(**data)


@dataclass(frozen=True)
class PartialFleetResult:
    """One shard's contribution to a fleet run.

    Produced by ``FleetRunner.run(fleet, shard=(index, count))``: the
    shard materialized and simulated only the wearers with
    ``wearer_index % count == index`` (a strided partition, so every
    shard carries a balanced slice of the seed sequence).  Partials
    hold raw :class:`WearerRecord` values — no premature statistics —
    and :meth:`FleetResult.merge` reduces a complete partition to the
    exact unsharded :class:`FleetResult`.

    Attributes:
        spec: the full fleet spec (every shard carries it, so merge
            can verify the parts describe the same experiment).
        shard_index / shard_count: this shard's position in the
            partition, ``0 <= shard_index < shard_count``.
        records: one record per wearer of this shard, in index order.
        backend: sweep backend that ran the shard (provenance).
        wall_time_s: wall-clock seconds of the shard run (provenance).
    """

    spec: FleetSpec
    shard_index: int
    shard_count: int
    records: tuple[WearerRecord, ...]
    backend: str = ""
    wall_time_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "records", tuple(self.records))
        check_members(((record.index,) for record in self.records),
                      (self.shard_index, self.shard_count),
                      self.spec.n_wearers, "wearer")

    def to_dict(self) -> dict[str, Any]:
        """The shard payload (``repro fleet run --shard`` writes it).

        ``backend``/``wall_time_s`` travel with the file as provenance
        — merge sums the shard wall times into the merged result's
        provenance — but stay out of the *canonical* payload, which is
        only ever the merged :meth:`FleetResult.to_dict`.
        """
        return {
            "spec": self.spec.to_dict(),
            "shard": [self.shard_index, self.shard_count],
            "wearers": [record.to_dict() for record in self.records],
            "backend": self.backend,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PartialFleetResult":
        """Rebuild a partial from :meth:`to_dict` output (exact)."""
        required = {"spec", "shard", "wearers"}
        check_mapping_keys("PartialFleetResult", data,
                           required | {"backend", "wall_time_s"},
                           required=required)
        shard_index, shard_count = check_shard(data["shard"])
        wearers = data["wearers"]
        if not isinstance(wearers, (list, tuple)):
            raise SpecError(
                f"wearers must be a list of records, got "
                f"{type(wearers).__name__}")
        return cls(
            spec=FleetSpec.from_dict(data["spec"]),
            shard_index=shard_index,
            shard_count=shard_count,
            records=tuple(WearerRecord.from_dict(r) for r in wearers),
            backend=data.get("backend", ""),
            wall_time_s=data.get("wall_time_s", 0.0),
        )


def load_partial_file(path: Any) -> PartialFleetResult:
    """The :class:`PartialFleetResult` stored in one JSON file.

    A shard file is exactly one :meth:`PartialFleetResult.to_dict`
    payload (what ``repro fleet run --shard I/N --out FILE`` writes).
    Failures surface as :class:`~repro.errors.SpecError` naming the
    path.
    """
    # Deferred: repro.scenarios.files owns the on-disk error reporting.
    from repro.scenarios.files import load_json_payload

    payload = load_json_payload(path, what="fleet shard")
    try:
        return PartialFleetResult.from_dict(payload)
    except SpecError as exc:
        raise SpecError(f"fleet shard file {path}: {exc}") from None


@dataclass(frozen=True)
class FleetResult:
    """Population outcome of one fleet run.

    Attributes:
        fleet: the fleet spec's name.
        base_scenario / n_wearers / horizon_days / seed / sampler:
            provenance copied from the spec (``sampler`` is its
            compact label) so a saved result is self-describing.
        fraction_energy_neutral: share of wearers whose battery ended
            no lower than it started.
        final_soc: distribution of final state of charge, in [0, 1].
        detections_per_day: distribution of per-wearer detection rate.
        downtime_hours: distribution of per-wearer hours in which the
            battery could not cover the demanded load.
        backend: the sweep backend that actually ran (provenance; not
            part of the canonical dict).
        wall_time_s: wall-clock seconds of the sweep (ditto).
    """

    fleet: str
    base_scenario: str
    n_wearers: int
    horizon_days: int
    seed: int
    sampler: str
    fraction_energy_neutral: float
    final_soc: DistributionSummary
    detections_per_day: DistributionSummary
    downtime_hours: DistributionSummary
    backend: str = ""
    wall_time_s: float = 0.0

    @classmethod
    def from_outcomes(cls, fleet_spec,
                      outcomes: Sequence[ScenarioOutcome],
                      backend: str = "",
                      wall_time_s: float = 0.0) -> "FleetResult":
        """Reduce per-wearer outcomes under a
        :class:`~repro.fleet.spec.FleetSpec`."""
        records = [WearerRecord.from_outcome(index, outcome)
                   for index, outcome in enumerate(outcomes)]
        return cls.from_records(fleet_spec, records,
                                backend=backend, wall_time_s=wall_time_s)

    @classmethod
    def from_records(cls, fleet_spec,
                     records: Sequence[WearerRecord],
                     backend: str = "",
                     wall_time_s: float = 0.0) -> "FleetResult":
        """Reduce a complete population of :class:`WearerRecord`.

        The single reduction both the unsharded and the merged path go
        through: records are re-ordered by wearer index first, so the
        arithmetic (and therefore every float in the canonical
        payload) is independent of how the population was partitioned.
        """
        records = sorted(records, key=lambda record: record.index)
        if len(records) != fleet_spec.n_wearers:
            raise SpecError(
                f"fleet {fleet_spec.name!r} expected "
                f"{fleet_spec.n_wearers} outcomes, got {len(records)}")
        expected = range(fleet_spec.n_wearers)
        if [record.index for record in records] != list(expected):
            missing = sorted(set(expected)
                             - {record.index for record in records})
            raise SpecError(
                f"fleet {fleet_spec.name!r} population is incomplete: "
                f"missing or duplicated wearer indices (missing {missing})")
        neutral = sum(1 for record in records if record.energy_neutral)
        return cls(
            fleet=fleet_spec.name,
            base_scenario=fleet_spec.base_scenario,
            n_wearers=fleet_spec.n_wearers,
            horizon_days=fleet_spec.horizon_days,
            seed=fleet_spec.seed,
            sampler=fleet_spec.sampler.label,
            fraction_energy_neutral=neutral / len(records),
            final_soc=DistributionSummary.from_values(
                [record.final_soc for record in records]),
            detections_per_day=DistributionSummary.from_values(
                [record.detections_per_day for record in records]),
            downtime_hours=DistributionSummary.from_values(
                [record.downtime_s / 3600.0 for record in records]),
            backend=backend,
            wall_time_s=wall_time_s,
        )

    @classmethod
    def merge(cls, parts: Sequence[PartialFleetResult]) -> "FleetResult":
        """Reduce a complete shard partition to the unsharded result.

        Any partition works — ``(i, N)`` shards for one ``N``, each
        present exactly once, together covering every wearer.  Because
        partials carry raw per-wearer records and the reduction
        re-orders them by index, the merged canonical payload is
        bitwise-identical to ``FleetRunner.run`` without sharding (the
        contract ``tests/fleet/test_sharding.py`` pins for
        N ∈ {1, 2, 3, 7} against JSON round-tripped parts).
        """
        parts = check_partition(parts, "fleet")
        records = [record for part in parts for record in part.records]
        return cls.from_records(
            parts[0].spec, records, backend="merged",
            wall_time_s=sum(part.wall_time_s for part in parts))

    def canonical_json(self) -> str:
        """The canonical payload through the one shared encoder.

        ``canonical_json(a) == canonical_json(b)`` is *the* fleet
        determinism contract — what the cross-backend and merge-exact
        tests compare, what the result store caches, and what the CLI
        prints under ``--json`` — all through
        :func:`repro.scenarios.spec.canonical_json_bytes`, so no two
        call sites can drift on encoder settings.
        """
        return canonical_json(self.to_dict())

    def to_dict(self) -> dict[str, Any]:
        """The canonical, backend-independent payload (see module doc)."""
        return {
            "fleet": self.fleet,
            "base_scenario": self.base_scenario,
            "n_wearers": self.n_wearers,
            "horizon_days": self.horizon_days,
            "seed": self.seed,
            "sampler": self.sampler,
            "fraction_energy_neutral": self.fraction_energy_neutral,
            "final_soc": self.final_soc.to_dict(),
            "detections_per_day": self.detections_per_day.to_dict(),
            "downtime_hours": self.downtime_hours.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FleetResult":
        """Rebuild a result from :meth:`to_dict` output (exact)."""
        known = {"fleet", "base_scenario", "n_wearers", "horizon_days",
                 "seed", "sampler", "fraction_energy_neutral", "final_soc",
                 "detections_per_day", "downtime_hours"}
        check_mapping_keys("FleetResult", data, known, required=known)
        payload = dict(data)
        for key in ("final_soc", "detections_per_day", "downtime_hours"):
            payload[key] = DistributionSummary.from_dict(payload[key])
        return cls(**payload)

    def format_summary(self) -> str:
        """A fixed-width population report."""
        lines = [
            f"Fleet: {self.fleet} — {self.n_wearers} wearer(s) x "
            f"{self.horizon_days} day(s), base {self.base_scenario}, "
            f"sampler {self.sampler}, seed {self.seed}",
            f"  energy-neutral : {100 * self.fraction_energy_neutral:5.1f} % "
            f"of wearers",
        ]
        rows = (("final SoC [%]", self.final_soc, 100.0, 1),
                ("detections/day", self.detections_per_day, 1.0, 0),
                ("downtime [h]", self.downtime_hours, 1.0, 1))
        for label, dist, scale, digits in rows:
            lines.append(
                f"  {label:15s}: p5 {scale * dist.p5:8.{digits}f}   "
                f"p50 {scale * dist.p50:8.{digits}f}   "
                f"p95 {scale * dist.p95:8.{digits}f}   "
                f"mean {scale * dist.mean:8.{digits}f}")
        return "\n".join(lines)
