"""Fan a fleet out over the sweep backends and reduce the population.

:class:`FleetRunner` is a thin orchestration layer over the one
executor :func:`repro.pool.execute`: every run, shard and grid is one
``execute`` call that hands the fleet spec, the policy list, the
engine and the wearer indices to the ``"fleet"`` chunk handler
(:func:`~repro.fleet.population.run_wearer_chunk`).  The handler
materializes each wearer from ``random.Random(seed + index)`` and
runs it — in the calling process on the ``serial`` and ``vector``
backends, inside the shared worker pool (:mod:`repro.pool`) on the
``process`` backend, where the context is broadcast once per chunk
and bare indices ride as items.  ``serial`` runs the scalar engine,
the oracle; ``vector`` and ``process`` run the array engine
(:mod:`repro.fleet.vector`), which reproduces the scalar payload
bitwise.  The per-wearer outcomes reduce into a
:class:`~repro.fleet.result.FleetResult`.  Sampling is a pure function
of the spec, so the result's canonical payload is identical on every
backend — the backends only change how fast you get it.

:meth:`FleetRunner.run_grid` is the one policy study: it reruns the
*same sampled population* under every
:class:`~repro.policies.grid.PolicyGrid` candidate (every wearer's
environment is held fixed while the policy varies — a paired
experiment), returning a :class:`FleetGridResult` ranked by survival
first: fraction of wearers that finished energy-neutral, then p5
final state of charge, then median detections per day.

Sharded execution splits one fleet across machines:
``run(fleet, shard=(i, N))`` materializes only the wearers shard ``i``
owns under :mod:`repro.shard` and returns a
:class:`~repro.fleet.result.PartialFleetResult`;
:meth:`~repro.fleet.result.FleetResult.merge` reduces a complete
partition to a result bitwise-identical to the unsharded run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.errors import SpecError
from repro.fleet.population import wearer_name
from repro.fleet.result import FleetResult, PartialFleetResult, WearerRecord
from repro.fleet.spec import FleetSpec
from repro.policies.grid import PolicyGrid, expand_grids
from repro.pool import BACKENDS as POOL_BACKENDS
from repro.pool import check_backend, check_workers, execute
from repro.scenarios.runner import ScenarioOutcome
from repro.scenarios.spec import PolicySpec
from repro.shard import members

__all__ = ["BACKENDS", "FleetRunner", "ComparisonEntry", "FleetGridResult"]

#: Every backend a fleet study can run on: the executor's backends
#: plus the fleet-only ``"vector"``.  All of them produce
#: bitwise-identical canonical payloads; they only change how fast you
#: get them.
BACKENDS = (*POOL_BACKENDS, "vector")

#: backend -> (executor backend, chunk-handler engine).  ``serial`` is
#: the scalar oracle and never touches the array engine; ``vector``
#: steps the population as numpy arrays in the calling process, and
#: ``process`` runs those array lanes inside pool workers.
_ENGINES = {
    "serial": ("serial", "scalar"),
    "vector": ("serial", "vector"),
    "process": ("process", "vector"),
}


@dataclass(frozen=True)
class ComparisonEntry:
    """One candidate policy and the fleet it produced."""

    label: str
    policy: PolicySpec
    result: FleetResult

    @property
    def rank_key(self) -> tuple:
        """Sort key: most wearers energy-neutral, then best p5 final
        SoC, then median detections/day."""
        return (-self.result.fraction_energy_neutral,
                -self.result.final_soc.p5,
                -self.result.detections_per_day.p50)

    def to_dict(self) -> dict[str, Any]:
        return {
            "label": self.label,
            "policy": self.policy.to_dict(),
            "result": self.result.to_dict(),
        }


@dataclass(frozen=True)
class FleetGridResult:
    """Outcome of a policy study over one sampled population.

    The fleet-level sibling of
    :class:`~repro.policies.grid.GridResult`: every candidate was
    evaluated against the *same* sampled wearer population (a paired
    experiment), and entries rank by fraction energy-neutral, then p5
    final SoC, then median detections/day.

    Attributes:
        fleet: the studied fleet's name.
        entries: one entry per candidate, in grid order.
        backend: the sweep backend that executed the runs.
        wall_time_s: wall-clock of the one batch that ran every
            candidate (each entry's result records the same).
    """

    fleet: str
    entries: tuple[ComparisonEntry, ...]
    backend: str = ""
    wall_time_s: float = 0.0

    def ranked(self) -> list[ComparisonEntry]:
        """Entries best-first: fraction energy-neutral, then p5 final
        SoC, then median detections/day (stable for exact ties)."""
        return sorted(self.entries, key=lambda entry: entry.rank_key)

    @property
    def best(self) -> ComparisonEntry:
        """The top-ranked candidate."""
        if not self.entries:
            raise SpecError("empty fleet grid result has no best entry")
        return self.ranked()[0]

    @property
    def policy_names(self) -> list[str]:
        """Distinct policy names evaluated, sorted."""
        return sorted({entry.policy.name for entry in self.entries})

    def to_dict(self) -> dict[str, Any]:
        """Canonical payload: ranking only, no timing provenance."""
        return {
            "fleet": self.fleet,
            "ranking": [entry.to_dict() for entry in self.ranked()],
        }

    def format_table(self) -> str:
        """A fixed-width best-first ranking report."""
        header = (f"{'rank':>4s} {'policy':42s} {'neutral':>8s} "
                  f"{'SoC p5':>7s} {'det/day p50':>11s} "
                  f"{'downtime p95':>12s}")
        lines = [header, "-" * len(header)]
        for position, entry in enumerate(self.ranked(), start=1):
            r = entry.result
            lines.append(
                f"{position:4d} {entry.label:42s} "
                f"{100 * r.fraction_energy_neutral:7.1f}% "
                f"{100 * r.final_soc.p5:6.1f}% "
                f"{r.detections_per_day.p50:11.0f} "
                f"{r.downtime_hours.p95:10.1f} h")
        return "\n".join(lines)


class FleetRunner:
    """Executes fleet studies, optionally in parallel.

    Args:
        workers: parallelism ceiling for the process backend.
        backend: ``"serial"`` (default: the scalar oracle in
            process), ``"vector"`` (the array engine,
            :mod:`repro.fleet.vector`, in process) or ``"process"``
            (the array engine inside the shared worker pool).  The
            array engine falls back to the scalar loop per wearer when
            a policy cannot batch.  On the process backend each worker
            samples its own wearers, so a sampler registered at
            runtime works on ``"serial"`` and ``"vector"`` only.
    """

    def __init__(self, workers: int = 4, backend: str = "serial") -> None:
        self.workers = check_workers(workers)
        self.backend = check_backend(backend, BACKENDS)

    def _sweep_wearers(self, fleet: FleetSpec, indices: Sequence[int],
                       policies: Sequence[PolicySpec | None],
                       ) -> tuple[list[tuple[ScenarioOutcome, ...]], str]:
        """Run the given wearers under every policy in one batch.

        The one dispatch point: a single :func:`repro.pool.execute`
        call ships the fleet spec, the policy list and the engine, and
        the ``"fleet"`` chunk handler samples each wearer once where it
        runs and steps it under every policy.  Returns one outcome
        tuple per policy (wearers in ``indices`` order) and the
        backend provenance.
        """
        executor, engine = _ENGINES[self.backend]
        indices = list(indices)
        context = {
            "fleet": fleet.to_dict(),
            "policies": [None if policy is None else policy.to_dict()
                         for policy in policies],
            "engine": engine,
        }
        results, used = execute(
            "fleet", context, indices, backend=executor,
            workers=self.workers,
            name_of=lambda i: wearer_name(fleet, indices[i]))
        outcomes = [
            tuple(ScenarioOutcome.from_dict(wearer[position])
                  for wearer in results)
            for position in range(len(policies))]
        return outcomes, "vector" if self.backend == "vector" else used

    def run(self, fleet: FleetSpec,
            shard: tuple[int, int] | None = None,
            ) -> FleetResult | PartialFleetResult:
        """Sample, sweep and reduce one fleet — whole or one shard.

        The canonical part of the returned result
        (:meth:`~repro.fleet.result.FleetResult.to_dict`) depends only
        on the spec; ``backend``/``wall_time_s`` record provenance.

        With ``shard=(index, count)`` only that shard's wearers
        (``wearer_index % count == index``) are materialized and
        simulated, and the return value is a
        :class:`~repro.fleet.result.PartialFleetResult` of raw
        per-wearer records.  Reducing a complete partition with
        :meth:`FleetResult.merge` reproduces the unsharded result
        bitwise — run shards on as many machines as you like.
        """
        started = time.perf_counter()
        indices = (range(fleet.n_wearers) if shard is None
                   else members(fleet.n_wearers, shard))
        (outcomes,), used = self._sweep_wearers(fleet, indices, [None])
        wall_time_s = time.perf_counter() - started
        if shard is None:
            return FleetResult.from_outcomes(fleet, outcomes, backend=used,
                                             wall_time_s=wall_time_s)
        return PartialFleetResult(
            spec=fleet,
            shard_index=shard[0],
            shard_count=shard[1],
            records=tuple(WearerRecord.from_outcome(index, outcome)
                          for index, outcome in zip(indices, outcomes)),
            backend=used,
            wall_time_s=wall_time_s,
        )

    def run_grid(self, fleet: FleetSpec,
                 grids: PolicyGrid | Iterable[PolicyGrid],
                 ) -> FleetGridResult:
        """Rerun one sampled population under every grid candidate.

        Every candidate of every
        :class:`~repro.policies.grid.PolicyGrid` sees exactly the same
        wearer environments with only ``system.policy`` replaced per
        wearer scenario (a paired experiment), and the entries rank by
        fraction energy-neutral, then p5 final SoC, then median
        detections/day.  To compare registered policies at their
        defaults, pass one ``PolicyGrid(name)`` per policy.  The whole
        grid ships as one batch: each chunk samples its wearers once
        and reruns them under every candidate, so a grid costs one
        executor round trip, not one per candidate.

        Args:
            fleet: the population description.
            grids: a :class:`PolicyGrid` or an iterable of them (one
                per policy family); duplicate (name, params) candidates
                across all grids are rejected.

        Returns:
            A :class:`FleetGridResult` whose canonical payload
            (:meth:`~FleetGridResult.to_dict`) is a pure function of
            the fleet spec and the grids — identical on every backend.
        """
        candidates = expand_grids(grids)
        started = time.perf_counter()
        outcomes, used = self._sweep_wearers(
            fleet, range(fleet.n_wearers),
            [policy for _, policy in candidates])
        wall_time_s = time.perf_counter() - started
        entries = tuple(
            ComparisonEntry(
                label=label,
                policy=policy,
                result=FleetResult.from_outcomes(
                    fleet, candidate, backend=used,
                    wall_time_s=wall_time_s))
            for (label, policy), candidate in zip(candidates, outcomes))
        return FleetGridResult(fleet=fleet.name, entries=entries,
                               backend=used, wall_time_s=wall_time_s)
