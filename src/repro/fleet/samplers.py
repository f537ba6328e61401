"""Seeded timeline samplers: per-wearer environment perturbation.

A :class:`TimelineSampler` turns the base scenario's template segments
into one wearer-day of segments, drawing every random number from the
``random.Random`` it is handed.  Samplers are registered by name in
:data:`SAMPLERS` (``@register_sampler("name")``) so a
:class:`~repro.fleet.spec.SamplerSpec` can reference them from JSON,
exactly like harvesters or policies.

Factory and state contract
--------------------------

* Factories take the spec's ``params`` mapping and return a sampler:
  ``(params: Mapping) -> TimelineSampler``.  Unknown or non-numeric
  params must raise :class:`~repro.errors.SpecError` naming the knobs.
* A **fresh sampler is built for every wearer**, and its
  :meth:`~TimelineSampler.sample_day` is called with ``day = 0, 1,
  ...`` in order, always with that wearer's own RNG — so samplers may
  keep per-wearer state across days (weather streaks do).
* Samplers must be pure functions of ``(params, rng draws)``: no wall
  clocks, no global randomness.  That is what makes a
  :class:`~repro.fleet.spec.FleetSpec` bitwise-reproducible across
  runs and across the serial/process/vector backends.
"""

from __future__ import annotations

import math
import random
from typing import Any, Mapping, Protocol, Sequence, runtime_checkable

from repro.errors import RegistryError, SpecError
from repro.fleet.spec import SamplerSpec
from repro.scenarios.registry import ComponentRegistry
from repro.scenarios.spec import SegmentSpec, merge_numeric_params

__all__ = [
    "TimelineSampler",
    "SAMPLERS",
    "register_sampler",
    "build_sampler",
    "IdentitySampler",
    "DailyJitterSampler",
    "CloudyStreaksSampler",
]

#: Shortest segment a sampler may emit: duration jitter can squeeze a
#: segment, but never below one simulation-relevant minute.
MIN_SEGMENT_S = 60.0

SAMPLERS = ComponentRegistry("sampler")
register_sampler = SAMPLERS.register


@runtime_checkable
class TimelineSampler(Protocol):
    """Structural protocol every timeline sampler implements."""

    def sample_day(self, day: int, base: Sequence[SegmentSpec],
                   rng: random.Random) -> Sequence[SegmentSpec]:
        """One wearer-repetition of the template, perturbed.

        Args:
            day: 0-based repetition index (the day number when the
                template covers exactly one day).
            base: the template segments (never mutated).
            rng: the wearer's own seeded generator.

        Returns:
            At least one segment with positive total duration.
        """
        ...


def build_sampler(spec: SamplerSpec) -> TimelineSampler:
    """The sampler described by ``spec``, freshly built.

    An unknown name raises :class:`~repro.errors.SpecError` listing
    the registered samplers, so a typo in a fleet file fails with the
    menu in hand.
    """
    try:
        factory = SAMPLERS.get(spec.name)
    except RegistryError:
        raise SpecError(
            f"unknown sampler {spec.name!r}; registered samplers: "
            f"{SAMPLERS.names()}") from None
    return factory(spec.params)


def _check_sigma(name: str, merged: Mapping[str, Any]) -> None:
    # "sigma" anywhere in the knob name: catches ambient_sigma_c and
    # skin_sigma_c, not just the *_sigma spellings.
    for key, value in merged.items():
        if "sigma" in key and value < 0:
            raise SpecError(
                f"{name} sampler param {key!r} cannot be negative: {value!r}")


class IdentitySampler:
    """The null perturbation: every wearer relives the template day.

    The control arm of a fleet study — with it, a fleet degenerates to
    ``n_wearers`` identical runs of the base scenario tiled over the
    horizon, which is exactly what the determinism tests pin.
    """

    def sample_day(self, day: int, base: Sequence[SegmentSpec],
                   rng: random.Random) -> Sequence[SegmentSpec]:
        return tuple(base)


class DailyJitterSampler:
    """Independent log-normal/Gaussian jitter on every segment.

    Each segment of each day is perturbed independently:

    * ``duration_s`` and ``lux`` are scaled by ``exp(N(0, sigma))`` —
      multiplicative, so they stay positive and skew realistically;
    * ``ambient_c`` and ``skin_c`` get additive Gaussian offsets;
    * ``wind_ms`` is scaled log-normally (still air stays still).

    Durations are floored at :data:`MIN_SEGMENT_S` so a deep negative
    draw cannot produce a degenerate segment.

    Args:
        duration_sigma: log-scale spread of segment lengths.
        lux_sigma: log-scale spread of illuminance.
        ambient_sigma_c: Gaussian spread of air temperature, °C.
        skin_sigma_c: Gaussian spread of skin temperature, °C.
        wind_sigma: log-scale spread of air speed.
    """

    def __init__(self, duration_sigma: float = 0.10,
                 lux_sigma: float = 0.35,
                 ambient_sigma_c: float = 2.0,
                 skin_sigma_c: float = 0.3,
                 wind_sigma: float = 0.5) -> None:
        self.duration_sigma = duration_sigma
        self.lux_sigma = lux_sigma
        self.ambient_sigma_c = ambient_sigma_c
        self.skin_sigma_c = skin_sigma_c
        self.wind_sigma = wind_sigma

    def sample_day(self, day: int, base: Sequence[SegmentSpec],
                   rng: random.Random) -> Sequence[SegmentSpec]:
        sampled = []
        for seg in base:
            duration = max(
                MIN_SEGMENT_S,
                seg.duration_s * math.exp(rng.gauss(0.0, self.duration_sigma)))
            lux = seg.lux * math.exp(rng.gauss(0.0, self.lux_sigma))
            ambient = seg.ambient_c + rng.gauss(0.0, self.ambient_sigma_c)
            skin = seg.skin_c + rng.gauss(0.0, self.skin_sigma_c)
            wind = seg.wind_ms * math.exp(rng.gauss(0.0, self.wind_sigma))
            sampled.append(SegmentSpec(
                duration_s=duration, lux=lux, ambient_c=ambient,
                skin_c=skin, wind_ms=wind, label=seg.label))
        return tuple(sampled)


class CloudyStreaksSampler:
    """Two-state (sunny/cloudy) daily weather with persistence.

    A Markov chain over whole days: each day the wearer is either in
    the *sunny* state (template unchanged) or the *cloudy* state
    (every segment's illuminance scaled down and the air cooled).
    Cloudy spells persist — the chain enters the cloudy state with
    probability ``p_enter`` and leaves it with ``p_exit`` — which is
    the multi-day pattern that separates forecast policies from
    instantaneous ones.

    Stateful per wearer (the current weather state), which the sampler
    contract allows: a fresh instance is built per wearer.

    Args:
        p_enter: sunny -> cloudy transition probability per day.
        p_exit: cloudy -> sunny transition probability per day.
        cloudy_lux_factor: illuminance multiplier on cloudy days.
        cloudy_ambient_offset_c: air-temperature offset on cloudy days.
    """

    def __init__(self, p_enter: float = 0.3, p_exit: float = 0.4,
                 cloudy_lux_factor: float = 0.25,
                 cloudy_ambient_offset_c: float = -2.0) -> None:
        for knob, value in (("p_enter", p_enter), ("p_exit", p_exit)):
            if not 0.0 <= value <= 1.0:
                raise SpecError(
                    f"cloudy_streaks {knob} must lie in [0, 1], got {value!r}")
        if cloudy_lux_factor < 0:
            raise SpecError(
                f"cloudy_streaks cloudy_lux_factor cannot be negative: "
                f"{cloudy_lux_factor!r}")
        self.p_enter = p_enter
        self.p_exit = p_exit
        self.cloudy_lux_factor = cloudy_lux_factor
        self.cloudy_ambient_offset_c = cloudy_ambient_offset_c
        self._cloudy: bool | None = None

    def sample_day(self, day: int, base: Sequence[SegmentSpec],
                   rng: random.Random) -> Sequence[SegmentSpec]:
        if self._cloudy is None:
            # First day: draw from the chain's stationary distribution
            # so short horizons are not biased toward sunny starts.
            denominator = self.p_enter + self.p_exit
            stationary = self.p_enter / denominator if denominator else 0.0
            self._cloudy = rng.random() < stationary
        elif self._cloudy:
            self._cloudy = rng.random() >= self.p_exit
        else:
            self._cloudy = rng.random() < self.p_enter
        if not self._cloudy:
            return tuple(base)
        return tuple(SegmentSpec(
            duration_s=seg.duration_s,
            lux=seg.lux * self.cloudy_lux_factor,
            ambient_c=seg.ambient_c + self.cloudy_ambient_offset_c,
            skin_c=seg.skin_c,
            wind_ms=seg.wind_ms,
            label=seg.label,
        ) for seg in base)


# --- registered factories ----------------------------------------------------
#
# Signature contract: SAMPLERS: (params: Mapping) -> TimelineSampler.
# Registered at import time, so fleet specs referencing them work on
# every backend, including pool workers, which sample their own
# wearers.


@register_sampler("identity")
def _build_identity(params: Mapping[str, Any]) -> IdentitySampler:
    merge_numeric_params("identity", "sampler", params, {})
    return IdentitySampler()


@register_sampler("daily_jitter")
def _build_daily_jitter(params: Mapping[str, Any]) -> DailyJitterSampler:
    merged = merge_numeric_params("daily_jitter", "sampler", params, {
        "duration_sigma": 0.10,
        "lux_sigma": 0.35,
        "ambient_sigma_c": 2.0,
        "skin_sigma_c": 0.3,
        "wind_sigma": 0.5,
    })
    _check_sigma("daily_jitter", merged)
    return DailyJitterSampler(**merged)


@register_sampler("cloudy_streaks")
def _build_cloudy_streaks(params: Mapping[str, Any]) -> CloudyStreaksSampler:
    merged = merge_numeric_params("cloudy_streaks", "sampler", params, {
        "p_enter": 0.3,
        "p_exit": 0.4,
        "cloudy_lux_factor": 0.25,
        "cloudy_ambient_offset_c": -2.0,
    })
    return CloudyStreaksSampler(**merged)
