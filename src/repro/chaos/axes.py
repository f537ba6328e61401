"""The chaos axis registry and the built-in fault axes.

An *axis* is one family of hostile-world mutations: polar-winter
light, sensor fault storms, harvester occlusion, brown-out load
cascades, battery aging.  Axis factories follow the policy-registry
contract — ``factory(params) -> apply`` where ``apply(draft, rng)``
mutates a :class:`ScenarioDraft` in place using only the supplied
``random.Random`` — so axes compose deterministically and third-party
code can register its own::

    from repro.chaos import register_axis

    @register_axis("solar_flare")
    def build_solar_flare(params):
        def apply(draft, rng):
            draft.faults.append(...)
        return apply

Every draw must come from ``rng`` (never the global ``random`` or the
clock): case ``i`` of a campaign is generated from
``random.Random(seed + i)``, which is what makes a seeded campaign
bitwise-reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.errors import SpecError
from repro.scenarios.registry import ComponentRegistry
from repro.scenarios.spec import (BatterySpec, FaultSpec, SegmentSpec,
                                  merge_numeric_params)

__all__ = ["AXES", "ScenarioDraft", "register_axis", "axis_names"]

#: Registry of chaos axis factories: ``name -> factory(params) -> apply``.
AXES = ComponentRegistry("chaos axis")


def register_axis(name: str):
    """Decorator registering a chaos axis factory under ``name``."""
    return AXES.register(name)


def axis_names() -> list[str]:
    """All registered axis names, sorted."""
    return AXES.names()


@dataclass
class ScenarioDraft:
    """The mutable scenario under construction that axes operate on.

    Attributes:
        segments: the case's environment segments (already tiled to
            the horizon); axes may rewrite them.
        faults: fault windows accumulated so far; axes append.
        battery: the storage cell spec; axes may replace it (aging).
        horizon_s: the case's pinned duration.
        step_s: the simulation step (for sizing windows sensibly).
    """

    segments: list[SegmentSpec]
    faults: list[FaultSpec] = field(default_factory=list)
    battery: BatterySpec = BatterySpec()
    horizon_s: float = 0.0
    step_s: float = 60.0


ApplyFn = Callable[[ScenarioDraft, Any], None]


def _check_range(what: str, low_key: str, high_key: str,
                 p: Mapping[str, float]) -> None:
    if p[low_key] > p[high_key]:
        raise SpecError(
            f"{what} axis: {low_key} ({p[low_key]!r}) exceeds "
            f"{high_key} ({p[high_key]!r})")


def _window(rng, horizon_s: float, min_s: float, max_s: float,
            ) -> tuple[float, float]:
    """One (start_s, duration_s) window drawn inside the horizon."""
    duration = rng.uniform(min_s, min(max_s, horizon_s))
    start = rng.uniform(0.0, max(0.0, horizon_s - duration))
    return start, duration


@register_axis("polar_winter")
def _build_polar_winter(params: Mapping[str, Any]) -> ApplyFn:
    """Scale every segment's illuminance down to arctic-winter levels.

    Params: ``min_scale``/``max_scale`` — the per-case lux multiplier
    is drawn uniformly from this range.
    """
    p = merge_numeric_params("polar_winter", "axis", params,
                             {"min_scale": 0.02, "max_scale": 0.3})
    _check_range("polar_winter", "min_scale", "max_scale", p)
    if p["min_scale"] < 0:
        raise SpecError("polar_winter axis: min_scale cannot be negative")

    def apply(draft: ScenarioDraft, rng) -> None:
        scale = rng.uniform(p["min_scale"], p["max_scale"])
        draft.segments = [
            SegmentSpec(duration_s=seg.duration_s, lux=seg.lux * scale,
                        ambient_c=seg.ambient_c, skin_c=seg.skin_c,
                        wind_ms=seg.wind_ms, label=seg.label)
            for seg in draft.segments
        ]

    return apply


@register_axis("sensor_fault_storm")
def _build_sensor_fault_storm(params: Mapping[str, Any]) -> ApplyFn:
    """A burst of sensor dropout windows scattered over the horizon.

    Params: ``max_windows`` (1..n drawn per case), window length range
    ``min_minutes``/``max_minutes``.
    """
    p = merge_numeric_params("sensor_fault_storm", "axis", params,
                             {"max_windows": 5, "min_minutes": 10.0,
                              "max_minutes": 120.0})
    _check_range("sensor_fault_storm", "min_minutes", "max_minutes", p)
    if p["max_windows"] < 1:
        raise SpecError(
            "sensor_fault_storm axis: max_windows must be at least 1")

    def apply(draft: ScenarioDraft, rng) -> None:
        for _ in range(rng.randint(1, int(p["max_windows"]))):
            start, duration = _window(rng, draft.horizon_s,
                                      p["min_minutes"] * 60.0,
                                      p["max_minutes"] * 60.0)
            draft.faults.append(FaultSpec(
                kind="sensor_dropout", start_s=start, duration_s=duration))

    return apply


@register_axis("harvester_occlusion")
def _build_harvester_occlusion(params: Mapping[str, Any]) -> ApplyFn:
    """Sleeves, pockets, grime: windows where intake is derated.

    Params: ``max_windows``, remaining-intake ``min_scale``/
    ``max_scale``, window length range ``min_hours``/``max_hours``.
    """
    p = merge_numeric_params("harvester_occlusion", "axis", params,
                             {"max_windows": 3, "min_scale": 0.0,
                              "max_scale": 0.5, "min_hours": 0.5,
                              "max_hours": 8.0})
    _check_range("harvester_occlusion", "min_scale", "max_scale", p)
    _check_range("harvester_occlusion", "min_hours", "max_hours", p)
    if not 0.0 <= p["min_scale"] <= 1.0 or not 0.0 <= p["max_scale"] <= 1.0:
        raise SpecError(
            "harvester_occlusion axis: scales must lie in [0, 1]")
    if p["max_windows"] < 1:
        raise SpecError(
            "harvester_occlusion axis: max_windows must be at least 1")

    def apply(draft: ScenarioDraft, rng) -> None:
        for _ in range(rng.randint(1, int(p["max_windows"]))):
            start, duration = _window(rng, draft.horizon_s,
                                      p["min_hours"] * 3600.0,
                                      p["max_hours"] * 3600.0)
            draft.faults.append(FaultSpec(
                kind="harvester_derate", start_s=start, duration_s=duration,
                magnitude=rng.uniform(p["min_scale"], p["max_scale"])))

    return apply


@register_axis("brownout_cascade")
def _build_brownout_cascade(params: Mapping[str, Any]) -> ApplyFn:
    """A ramping cluster of parasitic load spikes racing SoC to the
    UV floor — back-to-back windows whose extra draw escalates.

    Params: ``max_spikes``, extra draw range ``min_extra_w``/
    ``max_extra_w``, per-spike length range ``min_minutes``/
    ``max_minutes``.
    """
    p = merge_numeric_params("brownout_cascade", "axis", params,
                             {"max_spikes": 4, "min_extra_w": 0.002,
                              "max_extra_w": 0.02, "min_minutes": 15.0,
                              "max_minutes": 180.0})
    _check_range("brownout_cascade", "min_extra_w", "max_extra_w", p)
    _check_range("brownout_cascade", "min_minutes", "max_minutes", p)
    if p["min_extra_w"] <= 0:
        raise SpecError(
            "brownout_cascade axis: min_extra_w must be positive")
    if p["max_spikes"] < 1:
        raise SpecError(
            "brownout_cascade axis: max_spikes must be at least 1")

    def apply(draft: ScenarioDraft, rng) -> None:
        spikes = rng.randint(1, int(p["max_spikes"]))
        anchor = rng.uniform(0.0, draft.horizon_s * 0.5)
        t = anchor
        for i in range(spikes):
            duration = rng.uniform(p["min_minutes"] * 60.0,
                                   p["max_minutes"] * 60.0)
            # The cascade escalates: spike i draws a fraction of the
            # range that grows with i, modelling a failure that feeds
            # on itself (retry storms, a stuck radio).
            low = p["min_extra_w"]
            high = low + (p["max_extra_w"] - low) * (i + 1) / spikes
            draft.faults.append(FaultSpec(
                kind="load_spike", start_s=t, duration_s=duration,
                magnitude=rng.uniform(low, high)))
            t += duration

    return apply


@register_axis("battery_aging")
def _build_battery_aging(params: Mapping[str, Any]) -> ApplyFn:
    """An aged cell: capacity fade drawn per case.

    Params: ``min_fade``/``max_fade`` — fraction of nameplate capacity
    lost, each in [0, 1).
    """
    p = merge_numeric_params("battery_aging", "axis", params,
                             {"min_fade": 0.1, "max_fade": 0.6})
    _check_range("battery_aging", "min_fade", "max_fade", p)
    if not 0.0 <= p["min_fade"] < 1.0 or not 0.0 <= p["max_fade"] < 1.0:
        raise SpecError("battery_aging axis: fades must lie in [0, 1)")

    def apply(draft: ScenarioDraft, rng) -> None:
        import dataclasses

        draft.battery = dataclasses.replace(
            draft.battery,
            capacity_fade=rng.uniform(p["min_fade"], p["max_fade"]))

    return apply
