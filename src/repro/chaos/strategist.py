"""The seeded strategist: compose fault axes into adversarial cases.

Case ``i`` of a campaign is generated *deterministically* from
``random.Random(spec.seed + i)``: the base scenario's timeline is
tiled to the horizon, then every participating axis mutates the draft
in registry order using only that generator.  The output is an
ordinary self-contained :class:`~repro.scenarios.spec.ScenarioSpec`
(inline segments, inline faults, ``trace="none"``) — JSON-shippable
across the process backend and regenerable one case at a time, which
is what makes campaigns shardable and bitwise-reproducible.
"""

from __future__ import annotations

import dataclasses
import random

from repro.chaos.axes import AXES, ScenarioDraft
from repro.chaos.spec import ChaosAxisSpec, ChaosSpec
from repro.errors import RegistryError, SpecError
from repro.fleet.population import template_segments
from repro.scenarios.library import get_scenario
from repro.scenarios.spec import ScenarioSpec, SegmentSpec, TimelineSpec
from repro.units import SECONDS_PER_DAY

__all__ = ["resolve_axes", "case_name", "chaos_case", "chaos_cases",
           "generate_payload"]


def resolve_axes(spec: ChaosSpec) -> list[tuple[str, object]]:
    """The campaign's ``(name, apply)`` pairs, factories already built.

    An empty ``spec.axes`` means every registered axis at default
    parameters, in sorted-name order (the registry is import-time
    stable, so this stays deterministic).
    """
    axis_specs = spec.axes or tuple(
        ChaosAxisSpec(name) for name in AXES.names())
    resolved = []
    for axis in axis_specs:
        try:
            factory = AXES.get(axis.name)
        except RegistryError:
            raise SpecError(
                f"unknown chaos axis {axis.name!r}; registered axes: "
                f"{AXES.names()}") from None
        resolved.append((axis.name, factory(axis.params)))
    return resolved


def case_name(spec: ChaosSpec, index: int) -> str:
    """The generated scenario name of case ``index``.

    >>> case_name(ChaosSpec(name="storm"), 7)
    'storm::case_0007'
    """
    return f"{spec.name}::case_{index:04d}"


def _tile_segments(template: tuple[SegmentSpec, ...],
                   horizon_s: float) -> list[SegmentSpec]:
    """Template repeated until it covers the horizon."""
    day_duration = sum(seg.duration_s for seg in template)
    if day_duration <= 0:
        raise SpecError("base scenario timeline has no duration")
    segments: list[SegmentSpec] = []
    covered = 0.0
    while covered < horizon_s:
        segments.extend(template)
        covered += day_duration
    return segments


def chaos_case(spec: ChaosSpec, index: int,
               base: ScenarioSpec | None = None,
               template: tuple[SegmentSpec, ...] | None = None,
               axes: list[tuple[str, object]] | None = None,
               ) -> ScenarioSpec:
    """The fully-composed adversarial scenario of one case.

    Args:
        spec: the campaign.
        index: 0-based case index; seeds ``random.Random(seed + index)``.
        base / template / axes: precomputed campaign-wide state
            (resolved from the spec when omitted — callers generating
            many cases pass them to avoid rebuilding per case).
    """
    if index < 0 or index >= spec.n_cases:
        raise SpecError(
            f"case index {index} outside campaign of {spec.n_cases}")
    if base is None:
        base = get_scenario(spec.base_scenario)
    if template is None:
        template = template_segments(base)
    if axes is None:
        axes = resolve_axes(spec)
    rng = random.Random(spec.seed + index)
    horizon_s = spec.horizon_days * SECONDS_PER_DAY
    draft = ScenarioDraft(
        segments=_tile_segments(template, horizon_s),
        faults=[],
        battery=base.system.battery,
        horizon_s=horizon_s,
        step_s=base.step_s,
    )
    for _, apply in axes:
        apply(draft, rng)
    axis_label = ",".join(name for name, _ in axes)
    return dataclasses.replace(
        base,
        name=case_name(spec, index),
        timeline=TimelineSpec(segments=tuple(draft.segments)),
        system=dataclasses.replace(base.system, battery=draft.battery),
        duration_s=horizon_s,
        description=(f"chaos case {index} of campaign {spec.name!r} "
                     f"(seed {spec.seed + index}; axes: {axis_label})"),
        trace="none",
        faults=tuple(draft.faults),
    )


def chaos_cases(spec: ChaosSpec, indices=None) -> list[ScenarioSpec]:
    """The composed scenarios of ``indices`` (default: every case).

    The base scenario, template and axis factories are resolved once;
    each case then draws from its own ``seed + index`` generator, so a
    shard's cases are identical to the full campaign's entries.
    """
    base = get_scenario(spec.base_scenario)
    template = template_segments(base)
    axes = resolve_axes(spec)
    if indices is None:
        indices = range(spec.n_cases)
    return [chaos_case(spec, index, base=base, template=template, axes=axes)
            for index in indices]


def generate_payload(spec: ChaosSpec) -> dict:
    """What ``repro chaos generate`` emits: the campaign spec plus
    every composed case, canonical-JSON-ready."""
    return {
        "campaign": spec.to_dict(),
        "cases": [case.to_dict() for case in chaos_cases(spec)],
    }
