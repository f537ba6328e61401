"""Built-in power policies, registered under their spec names.

Four decision-making strategies ship with the library, spanning the
space a policy study needs:

* ``energy_aware`` — :class:`EnergyAwarePolicy`, the paper-shaped
  manager (SoC hysteresis bands around the instantaneous
  energy-neutral rate).  The default, and bitwise-identical to the
  pre-protocol :class:`~repro.core.manager.EnergyAwareManager` path.
* ``static_duty_cycle`` — :class:`StaticDutyCyclePolicy`, a constant
  rate regardless of conditions; the baseline every adaptive policy
  must beat.
* ``ewma_forecast`` — :class:`EwmaForecastPolicy`, the neutral band
  priced against an exponentially-weighted harvest forecast instead of
  the instantaneous power, so short clouds/bursts stop whipsawing the
  rate.
* ``oracle_lookahead`` — :class:`OracleLookaheadPolicy`, which peeks
  at the environment timeline and spends against the *mean* harvest
  over a future window.  Not realizable on hardware; an upper bound
  for policy studies.

The three banded policies share one SoC band — floor, ceiling and
clamped energy-neutral rate — which lives only in
:mod:`repro.core.manager` (:class:`~repro.core.manager.ManagerPolicy`
validates and defaults its thresholds; the manager holds its scalar
and mask forms).  Each policy here supplies only the power estimate it
prices: instantaneous, EWMA or lookahead mean.

Every built-in but ``oracle_lookahead`` is a
:class:`~repro.policies.base.BatchPolicy`, and each of those three
also has the ``stack`` hook: k candidates of one family become one
object deciding a ``(k, wearers)`` block, their parameters stacked as
``(k, 1)`` columns, which is how a policy grid steps as one array pass
(:func:`repro.fleet.vector.simulate_grid_vector`).

Factories registered here take ``(params, context)`` — the
:class:`~repro.scenarios.spec.PolicySpec` params mapping plus a
:class:`~repro.policies.base.PolicyContext` — and raise
:class:`~repro.errors.SpecError` on unknown params, non-finite
values, inverted SoC bands, negative rates and other invalid
configurations, so a bad grid
point fails at build time with the registered knob names in the
message.
"""

from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from typing import Any, Mapping

import numpy as np

from repro.core.manager import (EnergyAwareManager, ManagerPolicy,
                                StackedBand)
from repro.errors import ConfigurationError, SpecError
from repro.policies.base import PolicyContext
from repro.scenarios.registry import POLICIES, register_policy
from repro.scenarios.spec import merge_numeric_params

__all__ = [
    "EnergyAwarePolicy",
    "StaticDutyCyclePolicy",
    "EwmaForecastPolicy",
    "OracleLookaheadPolicy",
    "policy_names",
]


def policy_names() -> list[str]:
    """All registered policy names, sorted."""
    return POLICIES.names()


def _column(values) -> np.ndarray:
    """One parameter of k stacked policies as a ``(k, 1)`` column."""
    return np.array(values, dtype=np.float64)[:, np.newaxis]


def _band_manager(name: str, detection_energy_j: float,
                  band: Mapping[str, Any]) -> EnergyAwareManager:
    """The SoC band of one banded policy, its errors as SpecError."""
    try:
        return EnergyAwareManager(detection_energy_j, ManagerPolicy(**band))
    except ConfigurationError as exc:
        raise SpecError(f"bad {name} policy params: {exc}") from None


class EnergyAwarePolicy:
    """The paper's energy-aware manager behind the Policy protocol.

    A thin adapter: :meth:`decide` calls the wrapped
    :class:`~repro.core.manager.EnergyAwareManager` verbatim, so the
    chosen rate is bit-for-bit the pre-protocol one (asserted by the
    throughput bench's legacy-equivalence check).

    Args:
        manager: the configured rate-choosing manager to wrap.
    """

    def __init__(self, manager: EnergyAwareManager) -> None:
        self.manager = manager

    @property
    def max_rate_per_min(self) -> float:
        return self.manager.policy.max_rate_per_min

    def decide(self, time_s: float, step_s: float, harvest_power_w: float,
               state_of_charge: float) -> float:
        return self.manager.detection_rate_per_min(harvest_power_w,
                                                   state_of_charge)

    def decide_batch(self, time_s: float, step_s: float,
                     harvest_power_w: np.ndarray,
                     state_of_charge: np.ndarray) -> np.ndarray:
        """Per-wearer rates, element-wise identical to :meth:`decide`.

        The :class:`~repro.policies.base.BatchPolicy` hook: the wrapped
        manager's mask form of the band
        (:meth:`~repro.core.manager.EnergyAwareManager.detection_rates_per_min`).
        """
        return self.manager.detection_rates_per_min(harvest_power_w,
                                                    state_of_charge)

    @classmethod
    def stack(cls, policies: list[EnergyAwarePolicy]) -> EnergyAwarePolicy:
        """The ``stack`` hook: k policies as one over ``(k, N)`` blocks.

        The wrapped managers become one
        :class:`~repro.core.manager.StackedBand`, whose mask form reads
        each threshold as a ``(k, 1)`` column.
        """
        return cls(StackedBand([policy.manager for policy in policies]))


class StaticDutyCyclePolicy:
    """A fixed detection rate, blind to harvest and battery state.

    The duty-cycling baseline: what a watch without a smart power unit
    would do.  Useful as the control arm of any policy grid search.

    Args:
        rate_per_min: the constant detection rate.
    """

    def __init__(self, rate_per_min: float = 6.0) -> None:
        if not 0.0 <= rate_per_min < math.inf:
            raise SpecError(
                f"static_duty_cycle rate must be finite and cannot be "
                f"negative: {rate_per_min!r}")
        self.rate_per_min = rate_per_min
        self.max_rate_per_min = max(rate_per_min, 1.0)

    def decide(self, time_s: float, step_s: float, harvest_power_w: float,
               state_of_charge: float) -> float:
        return self.rate_per_min

    def decide_batch(self, time_s: float, step_s: float,
                     harvest_power_w: np.ndarray,
                     state_of_charge: np.ndarray) -> np.ndarray:
        """The constant rate for every wearer (trivially batchable)."""
        return np.full_like(state_of_charge, self.rate_per_min)

    @classmethod
    def stack(cls, policies: list[StaticDutyCyclePolicy]) -> _RateColumn:
        """The ``stack`` hook: k constant rates as one ``(k, 1)`` column."""
        return _RateColumn(_column([policy.rate_per_min
                                    for policy in policies]))


class _RateColumn:
    """What :meth:`StaticDutyCyclePolicy.stack` returns: the stacked
    rates, one row per candidate, broadcast by the engine over its
    wearers."""

    def __init__(self, rates: np.ndarray) -> None:
        self.rates = rates

    def decide_batch(self, time_s: float, step_s: float,
                     harvest_power_w: np.ndarray,
                     state_of_charge: np.ndarray) -> np.ndarray:
        return self.rates


class EwmaForecastPolicy:
    """Energy-neutral rate priced against an EWMA harvest forecast.

    Same SoC hysteresis bands as ``energy_aware``, but the neutral
    band spends against an exponentially-weighted moving average of
    the observed harvest power rather than the instantaneous value —
    a 30 s sun burst no longer slams the rate to the ceiling, and a
    passing cloud no longer drops it to the floor.

    Args:
        detection_energy_j: energy of one detection.
        alpha: EWMA smoothing factor in (0, 1]; 1 reduces to the
            instantaneous policy.
        **band: the band thresholds, as in
            :class:`~repro.core.manager.ManagerPolicy`.
    """

    def __init__(self, detection_energy_j: float, alpha: float = 0.25,
                 **band: float) -> None:
        if not 0.0 < alpha <= 1.0:
            raise SpecError(
                f"ewma_forecast alpha must lie in (0, 1], got {alpha!r}")
        self._band = _band_manager("ewma_forecast", detection_energy_j, band)
        self.detection_energy_j = detection_energy_j
        self.max_rate_per_min = self._band.policy.max_rate_per_min
        self.alpha = alpha
        self._forecast_w: float | None = None
        self._lanes = _EwmaLanes(alpha, self._band)

    @property
    def forecast_w(self) -> float | None:
        """The current harvest forecast (None before any observation)."""
        return self._forecast_w

    def reset(self) -> None:
        """Forget the forecast (called by the engine at run start)."""
        self._forecast_w = None
        self._lanes.reset()

    def decide(self, time_s: float, step_s: float, harvest_power_w: float,
               state_of_charge: float) -> float:
        previous = self._forecast_w
        if previous is None:
            forecast = harvest_power_w
        else:
            forecast = (self.alpha * harvest_power_w
                        + (1.0 - self.alpha) * previous)
        self._forecast_w = forecast
        return self._band.detection_rate_per_min(forecast, state_of_charge)

    def decide_batch(self, time_s: float, step_s: float,
                     harvest_power_w: np.ndarray,
                     state_of_charge: np.ndarray) -> np.ndarray:
        """Per-wearer rates, one forecast per lane (cleared by
        :meth:`reset`); lane ``i`` evolves exactly as a fresh scalar
        run of :meth:`decide` on wearer ``i``'s floats."""
        return self._lanes.decide_batch(time_s, step_s, harvest_power_w,
                                        state_of_charge)

    @classmethod
    def stack(cls, policies: list[EwmaForecastPolicy]) -> _EwmaLanes:
        """The ``stack`` hook: k forecasts deciding a ``(k, N)`` block,
        ``alpha`` and the band thresholds as ``(k, 1)`` columns."""
        return _EwmaLanes(_column([policy.alpha for policy in policies]),
                          StackedBand([policy._band for policy in policies]))


class _EwmaLanes:
    """Per-lane EWMA forecasts feeding the band's mask form.

    ``alpha`` is a float and ``band`` a manager for one policy's
    wearers; for a stack of k policies, ``alpha`` is a ``(k, 1)``
    column, ``band`` a :class:`~repro.core.manager.StackedBand` and the
    lanes a ``(k, N)`` block.  Each lane runs the float operations of
    :meth:`EwmaForecastPolicy.decide`: the first observation is the
    forecast, then ``alpha * harvest + (1 - alpha) * previous``.
    """

    def __init__(self, alpha, band) -> None:
        self.alpha = alpha
        self.band = band
        self.forecast_w = None

    def reset(self) -> None:
        self.forecast_w = None

    def decide_batch(self, time_s: float, step_s: float,
                     harvest_power_w: np.ndarray,
                     state_of_charge: np.ndarray) -> np.ndarray:
        previous = self.forecast_w
        if previous is None:
            # A copy: the caller may reuse its harvest array.
            forecast = np.array(harvest_power_w, dtype=np.float64)
        else:
            forecast = (self.alpha * harvest_power_w
                        + (1.0 - self.alpha) * previous)
        self.forecast_w = forecast
        return self.band.detection_rates_per_min(forecast, state_of_charge)


class OracleLookaheadPolicy:
    """Spends against the mean harvest of a future timeline window.

    A clairvoyant planner: at build time it prices every timeline
    segment through the harvesting chain and keeps prefix sums, so
    each decision reads the *average* intake over the coming
    ``lookahead_s`` in O(log segments).  Beyond the timeline's end the
    final segment's conditions persist, exactly as the engine's
    clamped stepping does.  Physically unrealizable (the wearer's
    future is unknown) — the upper bound adaptive policies are
    measured against.

    Args:
        detection_energy_j: energy of one detection.
        timeline: the environment the run will be driven with.
        harvester: the chain pricing each segment's battery intake.
        lookahead_s: how far ahead the oracle averages.
        **band: the band thresholds, as in
            :class:`~repro.core.manager.ManagerPolicy`.
    """

    def __init__(self, detection_energy_j: float, timeline, harvester,
                 lookahead_s: float = 6 * 3600.0, **band: float) -> None:
        if not 0.0 < lookahead_s < math.inf:
            raise SpecError(
                f"oracle_lookahead lookahead_s must be positive and "
                f"finite, got {lookahead_s!r}")
        self._band = _band_manager("oracle_lookahead", detection_energy_j,
                                   band)
        self.detection_energy_j = detection_energy_j
        self.max_rate_per_min = self._band.policy.max_rate_per_min
        self.lookahead_s = lookahead_s
        # Price every segment once; prefix sums make any window mean
        # two lookups.
        powers = [harvester.battery_intake_w(seg.lighting, seg.thermal)
                  for seg in timeline.segments]
        self._powers = tuple(powers)
        self._boundaries = tuple(timeline.boundaries_s)
        cumulative = []
        total = 0.0
        start = 0.0
        for power, end in zip(powers, self._boundaries):
            total += power * (end - start)
            cumulative.append(total)
            start = end
        self._cum_energy = tuple(cumulative)

    def _energy_up_to(self, t_s: float) -> float:
        """Harvested joules over [0, t_s] (last segment extends forever)."""
        boundaries = self._boundaries
        if t_s <= 0:
            return 0.0
        if t_s >= boundaries[-1]:
            return (self._cum_energy[-1]
                    + self._powers[-1] * (t_s - boundaries[-1]))
        idx = bisect_right(boundaries, t_s)
        seg_start = boundaries[idx - 1] if idx else 0.0
        base = self._cum_energy[idx - 1] if idx else 0.0
        return base + self._powers[idx] * (t_s - seg_start)

    def mean_harvest_w(self, start_s: float) -> float:
        """Mean battery intake over [start_s, start_s + lookahead_s]."""
        window_j = (self._energy_up_to(start_s + self.lookahead_s)
                    - self._energy_up_to(start_s))
        return window_j / self.lookahead_s

    def decide(self, time_s: float, step_s: float, harvest_power_w: float,
               state_of_charge: float) -> float:
        return self._band.detection_rate_per_min(
            self.mean_harvest_w(time_s), state_of_charge)


# --- registered factories ----------------------------------------------------
#
# Signature contract (see repro.scenarios.registry):
#   POLICIES: (params: Mapping, context: PolicyContext) -> Policy

_BAND_DEFAULTS: dict[str, Any] = dataclasses.asdict(ManagerPolicy())


@register_policy("energy_aware")
def _build_energy_aware(params: Mapping[str, Any],
                        context: PolicyContext) -> EnergyAwarePolicy:
    merged = merge_numeric_params("energy_aware", "policy", params,
                                  _BAND_DEFAULTS)
    return EnergyAwarePolicy(_band_manager(
        "energy_aware", context.detection_energy_j, merged))


@register_policy("static_duty_cycle")
def _build_static_duty_cycle(params: Mapping[str, Any],
                             context: PolicyContext) -> StaticDutyCyclePolicy:
    merged = merge_numeric_params("static_duty_cycle", "policy", params,
                                  {"rate_per_min": 6.0})
    return StaticDutyCyclePolicy(**merged)


@register_policy("ewma_forecast")
def _build_ewma_forecast(params: Mapping[str, Any],
                         context: PolicyContext) -> EwmaForecastPolicy:
    merged = merge_numeric_params("ewma_forecast", "policy", params,
                                  {"alpha": 0.25, **_BAND_DEFAULTS})
    return EwmaForecastPolicy(context.detection_energy_j, **merged)


@register_policy("oracle_lookahead")
def _build_oracle_lookahead(params: Mapping[str, Any],
                            context: PolicyContext) -> OracleLookaheadPolicy:
    merged = merge_numeric_params(
        "oracle_lookahead", "policy", params,
        {"lookahead_s": 6 * 3600.0, **_BAND_DEFAULTS})
    if context.timeline is None or context.harvester is None:
        raise SpecError(
            "oracle_lookahead needs the built timeline and harvester in its "
            "PolicyContext — build it through build_simulation(spec), or "
            "pass PolicyContext(timeline=..., harvester=...) to build_policy")
    return OracleLookaheadPolicy(context.detection_energy_j,
                                 context.timeline, context.harvester, **merged)
