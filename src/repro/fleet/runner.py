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

:meth:`FleetRunner.run_grid` reruns the *same sampled population*
under every :class:`~repro.policies.grid.PolicyGrid` candidate (every
wearer's environment is held fixed while the policy varies — a paired
experiment), returning a :class:`~repro.policies.grid.PolicyStudy` of
kind :data:`FLEET_STUDY`, ranked by survival first: fraction of
wearers that finished energy-neutral, then p5 final state of charge,
then median detections per day.

Sharded execution splits one fleet across machines:
``run(fleet, shard=(i, N))`` materializes only the wearers shard ``i``
owns under :mod:`repro.shard` and returns a
:class:`~repro.fleet.result.PartialFleetResult`;
:meth:`~repro.fleet.result.FleetResult.merge` reduces a complete
partition to a result bitwise-identical to the unsharded run.
"""

from __future__ import annotations

import time
from typing import Iterable, Sequence

from repro.fleet.population import wearer_name
from repro.fleet.result import FleetResult, PartialFleetResult, WearerRecord
from repro.fleet.spec import FleetSpec
from repro.policies.grid import PolicyGrid, PolicyStudy, StudyKind
from repro.pool import BACKENDS as POOL_BACKENDS
from repro.pool import check_backend, check_workers, execute
from repro.scenarios.runner import ScenarioOutcome
from repro.scenarios.spec import PolicySpec
from repro.shard import members

__all__ = ["BACKENDS", "FLEET_STUDY", "FleetRunner"]

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


#: One sampled population under every candidate: the fraction of
#: wearers energy-neutral first, then the p5 final state of charge,
#: then median detections/day.
FLEET_STUDY = StudyKind(
    subject="fleet",
    payload="result",
    rank_key=lambda r: (-r.fraction_energy_neutral, -r.final_soc.p5,
                        -r.detections_per_day.p50),
    columns=(
        (f"{'neutral':>8s}",
         lambda r: f"{100 * r.fraction_energy_neutral:7.1f}%"),
        (f"{'SoC p5':>7s}", lambda r: f"{100 * r.final_soc.p5:6.1f}%"),
        (f"{'det/day p50':>11s}",
         lambda r: f"{r.detections_per_day.p50:11.0f}"),
        (f"{'downtime p95':>12s}",
         lambda r: f"{r.downtime_hours.p95:10.1f} h"),
    ),
)


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
                       ) -> tuple[list[tuple[ScenarioOutcome, ...]], str,
                                  float]:
        """Run the given wearers under every policy in one batch.

        The one dispatch point: a single :func:`repro.pool.execute`
        call ships the fleet spec, the policy list and the engine, and
        the ``"fleet"`` chunk handler samples each wearer once where it
        runs and steps it under every policy.  Returns one outcome
        tuple per policy (wearers in ``indices`` order) and the
        backend and wall-time provenance.
        """
        started = time.perf_counter()
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
        return (outcomes, "vector" if self.backend == "vector" else used,
                time.perf_counter() - started)

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
        indices = (range(fleet.n_wearers) if shard is None
                   else members(fleet.n_wearers, shard))
        (outcomes,), used, wall_time_s = self._sweep_wearers(
            fleet, indices, [None])
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
                 ) -> PolicyStudy:
        """Rerun one sampled population under every grid candidate.

        Every candidate of every
        :class:`~repro.policies.grid.PolicyGrid` sees exactly the same
        wearer environments with only ``system.policy`` replaced per
        wearer scenario (a paired experiment), and the entries rank by
        :data:`FLEET_STUDY`: fraction energy-neutral, then p5 final
        SoC, then median detections/day.  To compare registered
        policies at their defaults, pass one ``PolicyGrid(name)`` per
        policy.  The whole grid ships as one batch: each chunk samples
        its wearers once and reruns them under every candidate, so a
        grid costs one executor round trip, not one per candidate.

        Args:
            fleet: the population description.
            grids: a :class:`PolicyGrid` or an iterable of them (one
                per policy family); duplicate (name, params) candidates
                across all grids are rejected.

        Returns:
            A :class:`~repro.policies.grid.PolicyStudy` whose entries'
            results are :class:`~repro.fleet.result.FleetResult` and
            whose canonical payload is a pure function of the fleet
            spec and the grids — identical on every backend.
        """
        def sweep(candidates):
            outcomes, used, wall_time_s = self._sweep_wearers(
                fleet, range(fleet.n_wearers),
                [policy for _, policy in candidates])
            return ([FleetResult.from_outcomes(fleet, candidate,
                                               backend=used,
                                               wall_time_s=wall_time_s)
                     for candidate in outcomes], used, wall_time_s)

        return PolicyStudy.from_grids(FLEET_STUDY, fleet.name, grids, sweep)
