"""Turn a :class:`FleetSpec` into per-wearer scenario specs.

This is the deterministic heart of the fleet subsystem: every wearer's
environment is sampled *here*, by :func:`wearer_scenarios`, from
``random.Random(seed + index)``, and the result is an ordinary
self-contained :class:`~repro.scenarios.spec.ScenarioSpec` with inline
segments.  Every backend materializes through that one function
inside the ``"fleet"`` chunk handler (:func:`run_wearer_chunk`), the
one place a fleet runs on either engine — which is why a fleet's
outcome is bitwise-identical across ``serial``/``process``/``vector``
and across runs.

The base scenario's timeline (built once) is the *template*: the
sampler perturbs one copy per repetition until the wearer's segments
cover ``horizon_days``, and the wearer scenario's ``duration_s`` pins
the horizon exactly (a final over-long segment is simply cut off by
the engine).
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import SpecError
from repro.fleet.samplers import build_sampler
from repro.fleet.spec import FleetSpec
from repro.pool.worker import crash_hook
from repro.scenarios.builder import build_timeline
from repro.scenarios.library import get_scenario
from repro.scenarios.spec import (PolicySpec, ScenarioSpec, SegmentSpec,
                                  TimelineSpec)
from repro.units import SECONDS_PER_DAY

__all__ = [
    "run_wearer_chunk",
    "template_segments",
    "wearer_name",
    "wearer_scenario",
    "wearer_scenarios",
    "with_policy",
]


def template_segments(base: ScenarioSpec) -> tuple[SegmentSpec, ...]:
    """The base scenario's timeline as self-contained segment specs.

    Registry-named timelines are built and flattened, so the template
    works for inline and named timelines alike and the generated
    wearer specs never depend on timeline registrations.
    """
    timeline = build_timeline(base.timeline)
    return tuple(
        SegmentSpec(
            duration_s=seg.duration_s,
            lux=seg.lighting.lux,
            ambient_c=seg.thermal.ambient_c,
            skin_c=seg.thermal.skin_c,
            wind_ms=seg.thermal.wind_ms,
            label=seg.lighting.description,
        )
        for seg in timeline.segments
    )


def wearer_name(fleet: FleetSpec, index: int) -> str:
    """The generated scenario name of wearer ``index``.

    >>> wearer_name(FleetSpec(name="demo", base_scenario="night_shift"), 7)
    'demo::wearer_0007'
    """
    return f"{fleet.name}::wearer_{index:04d}"


def wearer_scenario(fleet: FleetSpec, index: int,
                    base: ScenarioSpec | None = None,
                    template: tuple[SegmentSpec, ...] | None = None,
                    ) -> ScenarioSpec:
    """The fully-sampled scenario of one wearer.

    Args:
        fleet: the population description.
        index: 0-based wearer index; seeds ``random.Random(seed + index)``.
        base / template: precomputed base scenario and template
            segments (resolved from the fleet spec when omitted —
            callers generating many wearers pass them to avoid
            rebuilding the timeline per wearer).
    """
    if index < 0 or index >= fleet.n_wearers:
        raise SpecError(
            f"wearer index {index} outside fleet of {fleet.n_wearers}")
    if base is None:
        base = get_scenario(fleet.base_scenario)
    if template is None:
        template = template_segments(base)
    rng = random.Random(fleet.seed + index)
    sampler = build_sampler(fleet.sampler)  # fresh: may hold wearer state
    horizon_s = fleet.horizon_days * SECONDS_PER_DAY
    segments: list[SegmentSpec] = []
    covered_s = 0.0
    day = 0
    while covered_s < horizon_s:
        sampled = tuple(sampler.sample_day(day, template, rng))
        day_duration = sum(seg.duration_s for seg in sampled)
        if not sampled or day_duration <= 0:
            raise SpecError(
                f"sampler {fleet.sampler.name!r} returned an empty day for "
                f"wearer {index} (day {day}); samplers must emit at least "
                "one segment with positive total duration")
        segments.extend(sampled)
        covered_s += day_duration
        day += 1
    return dataclasses.replace(
        base,
        name=wearer_name(fleet, index),
        timeline=TimelineSpec(segments=tuple(segments)),
        duration_s=horizon_s,
        description=(f"wearer {index} of fleet {fleet.name!r} "
                     f"({fleet.sampler.label}, seed {fleet.seed + index})"),
        trace="none",
    )


def wearer_scenarios(fleet: FleetSpec,
                     indices: Iterable[int] | None = None,
                     ) -> list[ScenarioSpec]:
    """The scenarios of ``indices`` (default: every wearer, in order).

    The base scenario and template are resolved once; each wearer then
    gets a fresh sampler and its own ``seed + index`` generator, so
    any wearer's scenario can also be regenerated alone
    (:func:`wearer_scenario`) and matches this list entry exactly.
    Sharded fleet runs pass :func:`repro.shard.members` to materialize
    only their own wearers — the other wearers' randomness is never
    drawn, and the generated specs are identical to the full run's
    entries.
    """
    base = get_scenario(fleet.base_scenario)
    template = template_segments(base)
    if indices is None:
        indices = range(fleet.n_wearers)
    return [wearer_scenario(fleet, index, base=base, template=template)
            for index in indices]


def with_policy(specs: Iterable[ScenarioSpec],
                policy: PolicySpec | None) -> list[ScenarioSpec]:
    """``specs`` with ``system.policy`` replaced (unchanged for
    ``None``) — how a paired comparison reruns one population."""
    if policy is None:
        return list(specs)
    return [dataclasses.replace(
                spec, system=dataclasses.replace(spec.system, policy=policy))
            for spec in specs]


def run_wearer_chunk(context: Mapping[str, Any],
                     items: Sequence[int]) -> list[list[dict]]:
    """Pool chunk handler: wearer indices in, per-policy outcomes out.

    The one place a fleet runs, on every backend.  The parent
    broadcasts the :class:`FleetSpec` dict, the ``"policies"`` list
    (``None`` keeps the base scenario's policy), the ``"engine"``
    (``"scalar"`` or ``"vector"``) and the forwarded ``"crash"`` test
    hook once per chunk, and ships only wearer indices per item.  The
    handler samples its wearers once through :func:`wearer_scenarios`
    — deterministic, so the outcomes are bitwise-identical to a parent
    materialization — and runs them as one batch per policy, on
    :func:`~repro.fleet.vector.simulate_specs_vector` or the scalar
    oracle.  On the vector engine every policy's batch prices through
    one shared harvest memo, so a grid prices each condition once per
    chunk; the scalar engine keeps each simulation's own memo.  Each
    item's result is its wearer's outcome dicts in
    policy order.  In a worker the base scenario and sampler resolve
    by name in a fresh ``import repro``, so runtime-registered
    components raise the process backend's usual explanatory
    :class:`~repro.errors.SpecError`.
    """
    # Deferred: the engines' imports stay off the fleet module's
    # import path until a chunk actually runs.
    from repro.fleet.vector import simulate_specs_vector
    from repro.scenarios.builder import build_harvester
    from repro.scenarios.runner import ScenarioOutcome, lean_simulation

    vector = context["engine"] == "vector"
    fleet = FleetSpec.from_dict(context["fleet"])
    policies = [None if policy is None else PolicySpec.from_dict(policy)
                for policy in context["policies"]]
    specs = wearer_scenarios(fleet, items)
    for spec in specs:
        crash_hook(context, spec.name)
    # Candidates differ only in their policy, so one harvest memo
    # serves every candidate: each condition is priced once per chunk.
    harvester = (build_harvester(specs[0].system.harvester, cached=True)
                 if vector and specs else None)
    outcomes: list[list[dict]] = [[] for _ in specs]
    for policy in policies:
        batch = with_policy(specs, policy)
        if vector:
            results = simulate_specs_vector(batch, harvester=harvester)
        else:
            results = [lean_simulation(spec).run() for spec in batch]
        for wearer, spec, result in zip(outcomes, batch, results):
            wearer.append(
                ScenarioOutcome.from_result(spec.name, result).to_dict())
    return outcomes
