"""Run scenarios — single or in parallel batches — and aggregate results.

:class:`ScenarioRunner` executes a batch of
:class:`~repro.scenarios.spec.ScenarioSpec` through the one executor
:func:`repro.pool.execute`, on one of two backends:

* ``"serial"`` (default) — in the calling process, one scenario at a
  time;
* ``"process"`` — the persistent shared worker pool
  (:mod:`repro.pool`): *spawned* workers created once per process and
  reused across every ``run_batch``/``run_grid``/fleet/chaos call.
  Dispatch is chunked — a worker receives a strided block of specs,
  not one future per spec — and the batch's base spec is broadcast
  once per chunk with per-spec deltas riding alongside, so repeated
  structure (grid variants, fleet wearers) never ships twice.  Specs
  cross the process boundary through their JSON
  ``to_dict``/``from_dict`` round-trip, so every component must be
  resolvable by name in a fresh ``import repro.scenarios`` —
  components registered at runtime with ``@register_*`` are not
  visible to the workers, and referencing one raises a clear
  :class:`~repro.errors.SpecError`.  Use the serial backend for
  runtime-registered components.

Both backends run the same chunk handler (:func:`run_scenario_chunk`)
over the same base-plus-delta payloads, return a :class:`SweepResult`
with the per-scenario outcomes in input order plus provenance metadata
(which backend actually ran and how long it took), and produce
identical outcomes (simulations are deterministic and share no state).
:meth:`ScenarioRunner.run_grid` reuses the same backends to sweep one
scenario under a policy grid (:class:`~repro.policies.grid.PolicyGrid`),
returning a ranked :class:`~repro.policies.grid.PolicyStudy` of kind
:data:`~repro.policies.grid.SCENARIO_STUDY`.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, fields
from functools import cached_property
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from repro.core.simulation import DaySimulation, SimulationResult
from repro.errors import SpecError
from repro.pool import check_backend, check_workers, execute
from repro.pool.worker import crash_hook
from repro.scenarios.builder import build_simulation
from repro.scenarios.spec import ScenarioSpec, check_mapping_keys
from repro.units import SECONDS_PER_DAY

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.policies.grid import PolicyStudy

__all__ = ["ScenarioOutcome", "SweepResult", "lean_simulation",
           "run_scenario", "run_scenario_chunk", "spec_delta",
           "apply_spec_delta", "ScenarioRunner"]


@dataclass(frozen=True)
class ScenarioOutcome:
    """Summary of one scenario run.

    Attributes:
        name: the scenario's library/spec name.
        duration_s: simulated horizon.
        energy_neutral: battery ended no lower than it started.
        total_detections: detections executed over the horizon.
        detections_per_day: detections normalised to a 24 h day.
        initial_soc: battery state of charge at the start.
        final_soc: battery state of charge at the end.
        total_harvest_j: energy harvested into the battery.
        total_consumed_j: energy drawn by detections and sleep.
        downtime_s: time spent in steps where the battery could not
            cover the full demand (dropped detections / brown-out).
    """

    name: str
    duration_s: float
    energy_neutral: bool
    total_detections: float
    detections_per_day: float
    initial_soc: float
    final_soc: float
    total_harvest_j: float
    total_consumed_j: float
    downtime_s: float = 0.0

    @classmethod
    def from_result(cls, name: str,
                    result: SimulationResult) -> "ScenarioOutcome":
        """Summarise a :class:`SimulationResult` under a scenario name.

        Works in every trace mode — the summary reads only the exact
        totals, never the per-step trace.  Fields are coerced to plain
        ``float``/``bool``: the stock battery returns plain floats at
        the source, but registry-registered third-party components may
        not, and outcomes must stay JSON-serializable regardless.
        """
        duration_s = float(result.duration_s)
        days = duration_s / SECONDS_PER_DAY if duration_s > 0 else 1.0
        return cls(
            name=name,
            duration_s=duration_s,
            energy_neutral=bool(result.energy_neutral),
            total_detections=float(result.total_detections),
            detections_per_day=float(result.total_detections) / days,
            initial_soc=float(result.initial_soc),
            final_soc=float(result.final_soc),
            total_harvest_j=float(result.total_harvest_j),
            total_consumed_j=float(result.total_consumed_j),
            downtime_s=float(result.downtime_s),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "duration_s": self.duration_s,
            "energy_neutral": self.energy_neutral,
            "total_detections": self.total_detections,
            "detections_per_day": self.detections_per_day,
            "initial_soc": self.initial_soc,
            "final_soc": self.final_soc,
            "total_harvest_j": self.total_harvest_j,
            "total_consumed_j": self.total_consumed_j,
            "downtime_s": self.downtime_s,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioOutcome":
        """Rebuild an outcome from :meth:`to_dict` output (exact)."""
        known = {f.name for f in fields(cls)}
        check_mapping_keys("ScenarioOutcome", data, known, required=known)
        return cls(**data)


@dataclass(frozen=True)
class SweepResult:
    """Aggregate outcome of a scenario batch, in input order.

    Attributes:
        outcomes: per-scenario summaries, in input order.
        backend: the backend that actually executed the batch
            (``"serial"`` when a process request degenerated to an
            inline run), so a saved result file records its provenance.
        wall_time_s: wall-clock seconds the batch took end to end.
    """

    outcomes: tuple[ScenarioOutcome, ...]
    backend: str = ""
    wall_time_s: float = 0.0

    @property
    def all_neutral(self) -> bool:
        """True when every scenario in the sweep was energy-neutral."""
        return all(outcome.energy_neutral for outcome in self.outcomes)

    @cached_property
    def _by_name(self) -> dict[str, ScenarioOutcome]:
        # Lazily-built index; safe on a frozen dataclass because
        # cached_property writes to __dict__ directly, and outcomes
        # never change after construction.
        return {outcome.name: outcome for outcome in self.outcomes}

    def by_name(self, name: str) -> ScenarioOutcome:
        """The outcome of the named scenario (O(1) after first lookup)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SpecError(
                f"no outcome for scenario {name!r} in this sweep") from None

    def to_dict(self) -> dict[str, Any]:
        return {
            "outcomes": [outcome.to_dict() for outcome in self.outcomes],
            "backend": self.backend,
            "wall_time_s": self.wall_time_s,
        }

    def format_table(self) -> str:
        """A fixed-width neutrality / detections-per-day report."""
        header = (f"{'scenario':28s} {'neutral':>7s} {'det/day':>9s} "
                  f"{'SoC start':>9s} {'SoC end':>8s} {'harvest J':>10s}")
        lines = [header, "-" * len(header)]
        for o in self.outcomes:
            lines.append(
                f"{o.name:28s} {'yes' if o.energy_neutral else 'NO':>7s} "
                f"{o.detections_per_day:9.0f} {100 * o.initial_soc:8.1f}% "
                f"{100 * o.final_soc:7.1f}% {o.total_harvest_j:10.2f}"
            )
        return "\n".join(lines)


def lean_simulation(spec: ScenarioSpec) -> DaySimulation:
    """Build ``spec`` as a simulation that keeps no per-step trace.

    Summaries read only a run's exact totals, so every summary path
    (:func:`run_scenario`, the vector engine and its scalar fallback,
    ``repro simulate``) builds through here with ``trace="none"``
    forced — long horizons allocate no trace at all.  Callers who
    want the trace should ``build_simulation(spec).run()`` directly.
    """
    if spec.trace != "none":
        spec = dataclasses.replace(spec, trace="none")
    return build_simulation(spec)


def run_scenario(spec: ScenarioSpec) -> ScenarioOutcome:
    """Build and run one scenario lean, returning its summary outcome."""
    return ScenarioOutcome.from_result(spec.name,
                                       lean_simulation(spec).run())


def spec_delta(base: Mapping[str, Any],
               payload: Mapping[str, Any]) -> dict[str, Any]:
    """The top-level-key delta turning ``base`` into ``payload``.

    The broadcast half of the chunk protocol: a batch ships its first
    spec once per chunk as the base, and every other spec as
    ``{"set": {changed keys}, "drop": [absent keys]}``.  Grid variants
    (same scenario, different policy) and fleet wearers (same system,
    different timeline) compress to a fraction of their full payload;
    a batch of unrelated scenarios degrades to full dicts under
    ``"set"``.  Empty parts are omitted so identical specs ship as
    ``{}``.
    """
    delta: dict[str, Any] = {}
    changed = {key: value for key, value in payload.items()
               if key not in base or base[key] != value}
    dropped = [key for key in base if key not in payload]
    if changed:
        delta["set"] = changed
    if dropped:
        delta["drop"] = dropped
    return delta


def apply_spec_delta(base: Mapping[str, Any],
                     delta: Mapping[str, Any]) -> dict[str, Any]:
    """Rebuild a full spec dict from :func:`spec_delta` output (exact)."""
    payload = dict(base)
    for key in delta.get("drop", ()):
        payload.pop(key, None)
    payload.update(delta.get("set", {}))
    return payload


def run_scenario_chunk(context: Mapping[str, Any],
                       items: Sequence[Mapping[str, Any]]) -> list[dict]:
    """Pool chunk handler: base-plus-delta specs in, outcome dicts out.

    ``context`` carries the chunk's broadcast state — ``"base"`` (the
    batch's first spec dict) and optionally ``"crash"`` (the forwarded
    ``REPRO_WORKER_CRASH`` test hook); each item is a
    :func:`spec_delta`.  Plain dicts cross the pool so the payload
    pickles trivially on any start method.  Runs unchanged in-process:
    serial batches and the chunked-vs-unchunked bitwise-identity tests
    call it directly.
    """
    base = context.get("base") or {}
    outcomes = []
    for delta in items:
        spec = ScenarioSpec.from_dict(apply_spec_delta(base, delta))
        crash_hook(context, spec.name)
        outcomes.append(run_scenario(spec).to_dict())
    return outcomes


class ScenarioRunner:
    """Executes scenario batches, optionally in parallel.

    Args:
        workers: worker count for every batch; ``1`` runs in the
            calling process whatever the backend.
        backend: ``"serial"`` (default) or ``"process"`` — see the
            module docstring for the process backend's
            registry-visibility contract.
    """

    def __init__(self, workers: int = 1, backend: str = "serial") -> None:
        self.workers = check_workers(workers)
        self.backend = check_backend(backend)

    def run_batch(self, specs: Iterable[ScenarioSpec]) -> SweepResult:
        """Run every scenario, ``workers`` at a time, preserving order.

        The first spec is the chunk broadcast; every spec ships as a
        delta against it (grid variants and fleet wearers compress to
        near-nothing).
        """
        specs = list(specs)
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise SpecError("batch scenario names must be unique")
        started = time.perf_counter()
        base = specs[0].to_dict() if specs else {}
        items = [spec_delta(base, spec.to_dict()) for spec in specs]
        results, used = execute(
            "scenarios", {"base": base}, items,
            backend=self.backend, workers=self.workers,
            name_of=names.__getitem__)
        return SweepResult(
            outcomes=tuple(ScenarioOutcome.from_dict(payload)
                           for payload in results),
            backend=used, wall_time_s=time.perf_counter() - started)

    def run_grid(self, scenario: ScenarioSpec, grid) -> "PolicyStudy":
        """Run ``scenario`` under every point of a policy grid.

        Args:
            scenario: the scenario to hold fixed while policies vary.
            grid: a :class:`~repro.policies.grid.PolicyGrid` or an
                iterable of them (one per policy family to compare);
                grid points are independent scenarios, so they sweep
                on any backend, including the process pool.

        Returns:
            A ranked :class:`~repro.policies.grid.PolicyStudy` whose
            entries' results are :class:`ScenarioOutcome`.
        """
        # Deferred: repro.policies builds on this package.
        from repro.policies.grid import SCENARIO_STUDY, PolicyStudy

        def sweep(candidates):
            result = self.run_batch(
                dataclasses.replace(
                    scenario,
                    name=f"{scenario.name}::{label}",
                    system=dataclasses.replace(scenario.system,
                                               policy=point))
                for label, point in candidates)
            return result.outcomes, result.backend, result.wall_time_s

        return PolicyStudy.from_grids(SCENARIO_STUDY, scenario.name, grid,
                                      sweep)
