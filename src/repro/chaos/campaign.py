"""Run chaos campaigns: every policy x every case, judged, shardable.

A campaign run is the cross product of the strategist's composed cases
(:mod:`repro.chaos.strategist`) and a policy list (default: every
registered policy), each run executed under the
:class:`~repro.chaos.judge.LedgerBattery` and classified by the judge.
Execution goes through the one executor :func:`repro.pool.execute`,
serial or process (the persistent shared pool of :mod:`repro.pool`):
the campaign spec is broadcast once per chunk and the chunk handler
regenerates its own cases from ``(case_index, policy_index)`` pairs,
wherever it runs.  Sharded campaigns follow the strided-shard
protocol of :mod:`repro.shard`, with cases as the members: a
:class:`PartialCampaignResult` carries the raw :class:`RunRecord`
values of its cases and :meth:`CampaignResult.merge` reassembles a
complete partition.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.chaos.judge import RunJudgement, judge_scenario
from repro.chaos.spec import ChaosSpec
from repro.chaos.strategist import case_name, chaos_cases
from repro.errors import SpecError
from repro.pool import check_backend, check_workers, execute
from repro.pool.worker import crash_hook
from repro.scenarios.registry import POLICIES
from repro.scenarios.spec import (
    PolicySpec,
    canonical_json,
    check_mapping_keys,
)
from repro.shard import check_members, check_partition, check_shard, members

__all__ = ["RunRecord", "PartialCampaignResult", "CampaignResult",
           "ChaosRunner", "run_chaos_chunk",
           "default_policies", "load_campaign_result"]


def default_policies() -> list[PolicySpec]:
    """Every default-buildable policy at default parameters, sorted.

    Trained policies (``learned``/``learned_q``) are excluded — they
    cannot build without weight params; pass them explicitly to stress
    a trained policy under chaos.
    """
    from repro.policies.learned import default_policy_names

    return [PolicySpec(name) for name in default_policy_names()]


@dataclass(frozen=True)
class RunRecord:
    """One judged (case, policy) run.

    Attributes:
        case_index: the case's 0-based index in the campaign.
        scenario: the composed case's scenario name.
        policy: the policy that ran.
        judgement: the judge's verdict, reasons and outcome metrics.
    """

    case_index: int
    scenario: str
    policy: PolicySpec
    judgement: RunJudgement

    def __post_init__(self) -> None:
        if (isinstance(self.case_index, bool)
                or not isinstance(self.case_index, int)
                or self.case_index < 0):
            raise SpecError(
                f"case_index must be a non-negative integer, "
                f"got {self.case_index!r}")

    @property
    def verdict(self) -> str:
        return self.judgement.verdict

    def to_dict(self) -> dict[str, Any]:
        return {
            "case_index": self.case_index,
            "scenario": self.scenario,
            "policy": self.policy.to_dict(),
            "judgement": self.judgement.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunRecord":
        required = ("case_index", "scenario", "policy", "judgement")
        data = check_mapping_keys("RunRecord", data, known=required,
                                  required=required)
        return cls(
            case_index=data["case_index"],
            scenario=data["scenario"],
            policy=PolicySpec.from_dict(data["policy"]),
            judgement=RunJudgement.from_dict(data["judgement"]),
        )


def _policy_key(policy: PolicySpec) -> str:
    """A policy's identity for ordering/equality across shards."""
    return canonical_json(policy.to_dict())


def _sorted_records(records: Sequence[RunRecord],
                    policies: Sequence[PolicySpec]) -> tuple[RunRecord, ...]:
    order = {_policy_key(policy): i for i, policy in enumerate(policies)}
    return tuple(sorted(
        records,
        key=lambda r: (r.case_index, order.get(_policy_key(r.policy), -1))))


def _check_policies(policies: Sequence[PolicySpec]) -> tuple[PolicySpec, ...]:
    policies = tuple(policies)
    if not policies:
        raise SpecError("a campaign needs at least one policy")
    keys = [_policy_key(policy) for policy in policies]
    if len(set(keys)) != len(keys):
        raise SpecError("campaign policies must be unique")
    return policies


@dataclass(frozen=True)
class PartialCampaignResult:
    """One shard's judged records — strided case subset, raw records.

    Attributes:
        spec: the full campaign spec (every shard carries it so merge
            can verify the parts describe the same campaign).
        shard_index / shard_count: this shard's position.
        policies: the policy list the shard ran (merge requires all
            shards to agree).
        records: one record per (case, policy) of this shard.
        backend / wall_time_s: provenance; outside the canonical
            payload.
    """

    spec: ChaosSpec
    shard_index: int
    shard_count: int
    policies: tuple[PolicySpec, ...]
    records: tuple[RunRecord, ...]
    backend: str = ""
    wall_time_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "policies",
                           _check_policies(self.policies))
        object.__setattr__(self, "records",
                           _sorted_records(self.records, self.policies))
        check_members(
            ((record.case_index, _policy_key(record.policy))
             for record in self.records),
            (self.shard_index, self.shard_count), self.spec.n_cases, "case")

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "shard": [self.shard_index, self.shard_count],
            "policies": [policy.to_dict() for policy in self.policies],
            "records": [record.to_dict() for record in self.records],
            "backend": self.backend,
            "wall_time_s": self.wall_time_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PartialCampaignResult":
        required = {"spec", "shard", "policies", "records"}
        check_mapping_keys("PartialCampaignResult", data,
                           required | {"backend", "wall_time_s"},
                           required=required)
        shard_index, shard_count = check_shard(data["shard"])
        return cls(
            spec=ChaosSpec.from_dict(data["spec"]),
            shard_index=shard_index,
            shard_count=shard_count,
            policies=tuple(PolicySpec.from_dict(p)
                           for p in data["policies"]),
            records=tuple(RunRecord.from_dict(r) for r in data["records"]),
            backend=data.get("backend", ""),
            wall_time_s=data.get("wall_time_s", 0.0),
        )


@dataclass(frozen=True)
class CampaignResult:
    """The judged outcome of a whole campaign.

    ``to_dict`` is the canonical payload — a pure function of the
    campaign spec and policy list, bitwise-identical across backends,
    shardings and runs (the chaos reproducibility contract).
    Provenance (``backend``, ``wall_time_s``) stays outside it.
    """

    spec: ChaosSpec
    policies: tuple[PolicySpec, ...]
    records: tuple[RunRecord, ...]
    backend: str = ""
    wall_time_s: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "policies",
                           _check_policies(self.policies))
        object.__setattr__(self, "records",
                           _sorted_records(self.records, self.policies))
        expected = {(case, _policy_key(policy))
                    for case in range(self.spec.n_cases)
                    for policy in self.policies}
        actual = [(record.case_index, _policy_key(record.policy))
                  for record in self.records]
        if len(actual) != len(set(actual)):
            raise SpecError("duplicate campaign records")
        if set(actual) != expected:
            missing = len(expected - set(actual))
            raise SpecError(
                f"campaign {self.spec.name!r} is incomplete: {missing} of "
                f"{len(expected)} (case, policy) runs missing")

    @classmethod
    def merge(cls, parts: Sequence[PartialCampaignResult],
              ) -> "CampaignResult":
        """Reduce a complete shard partition to the unsharded result."""
        parts = check_partition(parts, "campaign")
        policies = parts[0].policies
        if any(part.policies != policies for part in parts):
            raise SpecError("campaign shards disagree on the policy list")
        records = [record for part in parts for record in part.records]
        return cls(spec=parts[0].spec, policies=policies,
                   records=tuple(records), backend="merged",
                   wall_time_s=sum(part.wall_time_s for part in parts))

    def counts(self) -> dict[str, int]:
        """Verdict totals over every record."""
        totals = {"pass": 0, "survival_failure": 0, "violation": 0}
        for record in self.records:
            totals[record.verdict] += 1
        return totals

    @property
    def violations(self) -> tuple[RunRecord, ...]:
        return tuple(r for r in self.records if r.verdict == "violation")

    @property
    def survival_failures(self) -> tuple[RunRecord, ...]:
        return tuple(r for r in self.records
                     if r.verdict == "survival_failure")

    def canonical_json(self) -> str:
        """The canonical payload through the one shared encoder."""
        return canonical_json(self.to_dict())

    def to_dict(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "policies": [policy.to_dict() for policy in self.policies],
            "records": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignResult":
        required = ("spec", "policies", "records")
        data = check_mapping_keys("CampaignResult", data, known=required,
                                  required=required)
        return cls(
            spec=ChaosSpec.from_dict(data["spec"]),
            policies=tuple(PolicySpec.from_dict(p)
                           for p in data["policies"]),
            records=tuple(RunRecord.from_dict(r) for r in data["records"]),
        )


def run_chaos_chunk(context: Mapping[str, Any],
                    items: Sequence[Sequence[int]]) -> list[dict]:
    """Pool chunk handler: (case, policy) index pairs in, record dicts
    out.

    The chaos half of the chunked-dispatch protocol
    (:mod:`repro.pool`): the parent broadcasts the
    :class:`~repro.chaos.spec.ChaosSpec` dict and the policy list once
    per chunk, and each item is a ``[case_index, policy_index]`` pair.
    The worker regenerates its own cases (each case draws only from
    ``seed + index``, so any subset is independently generatable) and
    judges them under the spec's rules — bitwise-identical to
    parent-side composition.  Runs unchanged in-process: serial
    campaigns and the identity tests call it directly.
    """
    spec = ChaosSpec.from_dict(context["spec"])
    policies = [PolicySpec.from_dict(p) for p in context["policies"]]
    wanted = sorted({case_index for case_index, _ in items})
    cases = dict(zip(wanted, chaos_cases(spec, wanted)))
    results = []
    for case_index, policy_index in items:
        case = cases[case_index]
        policy = policies[policy_index]
        crash_hook(context, case.name)
        judgement = judge_scenario(
            dataclasses.replace(
                case, system=dataclasses.replace(case.system, policy=policy)),
            spec.judge)
        results.append(RunRecord(
            case_index=case_index, scenario=case.name,
            policy=policy, judgement=judgement).to_dict())
    return results


class ChaosRunner:
    """Executes chaos campaigns, optionally in parallel or sharded.

    Args:
        workers: parallelism ceiling for the process backend.
        backend: ``"serial"`` (default) or ``"process"``.
    """

    def __init__(self, workers: int = 1, backend: str = "serial") -> None:
        self.workers = check_workers(workers)
        self.backend = check_backend(backend)

    def run(self, spec: ChaosSpec,
            policies: Sequence[PolicySpec] | None = None,
            shard: tuple[int, int] | None = None,
            ) -> "CampaignResult | PartialCampaignResult":
        """Judge every (case, policy) run of the campaign.

        Args:
            spec: the campaign.
            policies: policies to sweep (default: every registered
                policy at default parameters).
            shard: ``(index, count)`` — generate and run only the
                strided case subset, returning a
                :class:`PartialCampaignResult`.
        """
        policies = _check_policies(default_policies()
                                   if policies is None else policies)
        for policy in policies:
            if policy.name not in POLICIES:
                from repro.policies.learned import unknown_policy_message

                raise SpecError(unknown_policy_message(policy.name))
        indices = (range(spec.n_cases) if shard is None
                   else members(spec.n_cases, shard))

        started = time.perf_counter()
        items = [[index, position] for index in indices
                 for position in range(len(policies))]
        results, used = execute(
            "chaos",
            {"spec": spec.to_dict(),
             "policies": [policy.to_dict() for policy in policies]},
            items,
            backend=self.backend, workers=self.workers,
            name_of=lambda i: (f"{case_name(spec, items[i][0])} x "
                               f"{policies[items[i][1]].name}"))
        records = tuple(RunRecord.from_dict(payload) for payload in results)
        wall = time.perf_counter() - started
        if shard is None:
            return CampaignResult(spec=spec, policies=policies,
                                  records=records, backend=used,
                                  wall_time_s=wall)
        return PartialCampaignResult(
            spec=spec, shard_index=shard[0], shard_count=shard[1],
            policies=policies, records=records, backend=used,
            wall_time_s=wall)


def load_campaign_result(
        path: str | Path,
        ) -> "CampaignResult | PartialCampaignResult":
    """A full or partial campaign result from a JSON file.

    Shard files carry a ``"shard"`` key; full results do not.
    Failures surface as :class:`~repro.errors.SpecError` naming the
    path.
    """
    from repro.scenarios.files import load_json_payload

    payload = load_json_payload(path, what="campaign result")
    try:
        if "shard" in payload:
            return PartialCampaignResult.from_dict(payload)
        return CampaignResult.from_dict(payload)
    except SpecError as exc:
        raise SpecError(f"campaign result file {path}: {exc}") from None
