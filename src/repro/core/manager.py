"""Energy-aware power-manager policy: the one home of the SoC band.

The paper motivates "power management [that] can opportunistically take
advantage of periods of overabundant energy and survive intervals when
the system is starving for energy".  :class:`EnergyAwareManager`
implements that policy on top of the fuel gauge as one SoC band: the
floor rate below ``low_soc``, the ceiling rate above ``high_soc``, and
in between the energy-neutral rate of a harvest-power estimate,
clamped to the floor and ceiling.

The policy is deliberately simple enough to run on the nRF52832 (a few
integer comparisons on gauge readings) — that is the class of policy
the real smart power unit implements.

This module is the only place the band is written: its thresholds are
validated and defaulted once, by :class:`ManagerPolicy`, and the rule
exists once as a scalar
(:meth:`EnergyAwareManager.detection_rate_per_min`) and once as a mask
over per-wearer arrays
(:meth:`EnergyAwareManager.detection_rates_per_min`).  The mask reads
its thresholds as plain floats for one manager and as ``(k, 1)``
columns for a :class:`StackedBand` of k managers, so a policy grid
decides a ``(k, wearers)`` block in one call through the same
expression.  The banded
built-ins of :mod:`repro.policies.library` (``energy_aware``,
``ewma_forecast``, ``oracle_lookahead``) differ only in the power
estimate they pass in — instantaneous, EWMA or lookahead mean.

The three regimes, scalar and mask form:

>>> manager = EnergyAwareManager(570e-6)
>>> manager.detection_rate_per_min(1e-4, state_of_charge=0.05)  # starving
1.0
>>> manager.detection_rate_per_min(0.0, state_of_charge=0.95)  # abundant
24.0
>>> manager.detection_rate_per_min(1e-4, state_of_charge=0.5)  # neutral
10.0
>>> import numpy as np
>>> manager.detection_rates_per_min(np.array([1e-4, 0.0, 1e-4]),
...                                 np.array([0.05, 0.95, 0.5])).tolist()
[1.0, 24.0, 10.0]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["ManagerPolicy", "EnergyAwareManager", "StackedBand"]


@dataclass(frozen=True)
class ManagerPolicy:
    """Tunable thresholds of the SoC band, validated and defaulted here.

    Attributes:
        min_rate_per_min: floor detection rate kept even when starving
            (the watch must stay functional).
        max_rate_per_min: ceiling rate in energy abundance; the paper's
            self-sustained figure is 24/min, and running faster than
            the harvest sustains only drains the buffer.
        low_soc: below this state of charge the manager drops to the
            floor rate.
        high_soc: above this state of charge surplus harvest is spent
            at the ceiling rate.
        neutrality_margin: fraction of the harvest rate held back as
            safety margin when computing the energy-neutral rate.
    """

    min_rate_per_min: float = 1.0
    max_rate_per_min: float = 24.0
    low_soc: float = 0.15
    high_soc: float = 0.85
    neutrality_margin: float = 0.05

    def __post_init__(self) -> None:
        low_rate, high_rate = self.min_rate_per_min, self.max_rate_per_min
        # Chained comparisons are False for NaN, so NaN fails here too.
        if not (0.0 <= low_rate < math.inf and 0.0 < high_rate < math.inf):
            raise ConfigurationError(
                f"rates must be finite, non-negative (min {low_rate!r}) "
                f"and positive (max {high_rate!r})")
        if low_rate > high_rate:
            raise ConfigurationError(
                f"min rate {low_rate!r} cannot exceed max rate "
                f"{high_rate!r}")
        if not 0.0 <= self.low_soc < self.high_soc <= 1.0:
            raise ConfigurationError(
                f"need 0 <= low_soc < high_soc <= 1, got "
                f"[{self.low_soc!r}, {self.high_soc!r}]")
        if not 0.0 <= self.neutrality_margin < 1.0:
            raise ConfigurationError(
                f"neutrality_margin must lie in [0, 1), got "
                f"{self.neutrality_margin!r}")


class EnergyAwareManager:
    """Chooses the detection rate from a harvest estimate and the SoC.

    Args:
        detection_energy_j: energy of one detection (from
            :meth:`repro.core.application.StressDetectionApp.energy_budget`).
        policy: threshold configuration.
    """

    def __init__(self, detection_energy_j: float,
                 policy: ManagerPolicy | None = None) -> None:
        if not 0.0 < detection_energy_j < math.inf:
            raise ConfigurationError(
                f"detection energy must be positive and finite, got "
                f"{detection_energy_j!r}")
        self.detection_energy_j = detection_energy_j
        self.policy = policy if policy is not None else ManagerPolicy()

    def energy_neutral_rate_per_min(self, harvest_power_w: float) -> float:
        """Detection rate that exactly spends the harvest power.

        Applies the policy's safety margin; unclamped (the neutral
        regime of :meth:`detection_rate_per_min` clamps it to the band).
        """
        if harvest_power_w <= 0:
            return 0.0
        usable = harvest_power_w * (1.0 - self.policy.neutrality_margin)
        return usable * 60.0 / self.detection_energy_j

    def detection_rate_per_min(self, harvest_power_w: float,
                               state_of_charge: float) -> float:
        """The band, scalar form: the chosen rate for one reading.

        Three regimes:

        * starving (SoC below ``low_soc``): floor rate, regardless of
          the harvest estimate;
        * abundant (SoC above ``high_soc``): ceiling rate — the buffer
          is full, spend the surplus on detections;
        * neutral: the energy-neutral rate, clamped to the policy's
          floor and ceiling.
        """
        if not 0.0 <= state_of_charge <= 1.0:
            raise ConfigurationError("state of charge must lie in [0, 1]")
        p = self.policy
        if state_of_charge < p.low_soc:
            return p.min_rate_per_min
        if state_of_charge > p.high_soc:
            return p.max_rate_per_min
        # energy_neutral_rate_per_min, inlined: this line runs once per
        # decision of every banded policy on the scalar engine.
        if harvest_power_w <= 0:
            neutral = 0.0
        else:
            neutral = (harvest_power_w * (1.0 - p.neutrality_margin)
                       * 60.0 / self.detection_energy_j)
        return min(p.max_rate_per_min, max(p.min_rate_per_min, neutral))

    def detection_rates_per_min(self, harvest_power_w: np.ndarray,
                                state_of_charge: np.ndarray) -> np.ndarray:
        """The band, mask form: one rate per (harvest, SoC) lane.

        Entry ``i`` is bit-for-bit ``detection_rate_per_min(harvest[i],
        soc[i])``: the same regimes as masks, with the scalar form's
        float operations in the same order (``harvest * (1 - margin)``
        then ``usable * 60 / E``, then ``min(max, max(min, neutral))``).
        Any SoC outside [0, 1] (NaN included) raises, as the scalar
        form does.  :class:`StackedBand` runs this same method with
        every threshold a ``(k, 1)`` column.
        """
        if not np.all((state_of_charge >= 0.0) & (state_of_charge <= 1.0)):
            raise ConfigurationError("state of charge must lie in [0, 1]")
        p = self.policy
        usable = harvest_power_w * (1.0 - p.neutrality_margin)
        neutral = np.where(harvest_power_w > 0,
                           usable * 60.0 / self.detection_energy_j, 0.0)
        banded = np.minimum(p.max_rate_per_min,
                            np.maximum(p.min_rate_per_min, neutral))
        return np.where(state_of_charge < p.low_soc, p.min_rate_per_min,
                        np.where(state_of_charge > p.high_soc,
                                 p.max_rate_per_min, banded))

    def detection_period_s(self, harvest_power_w: float,
                           state_of_charge: float) -> float:
        """Seconds between detection starts under the chosen rate."""
        rate = self.detection_rate_per_min(harvest_power_w, state_of_charge)
        if rate <= 0:
            return float("inf")
        return 60.0 / rate


class StackedBand:
    """The bands of k managers as one, thresholds as ``(k, 1)`` columns.

    Row ``r`` of :meth:`detection_rates_per_min` on a ``(k, wearers)``
    SoC block is bit for bit manager ``r``'s mask form on that row: it
    is the same method, reading ``(k, 1)`` float64 columns where one
    manager reads floats (the column of a threshold holds exactly that
    threshold's float, so every lane runs the same float operations).

    >>> stacked = StackedBand([EnergyAwareManager(570e-6),
    ...                        EnergyAwareManager(570e-6, ManagerPolicy(
    ...                            max_rate_per_min=6.0))])
    >>> stacked.detection_rates_per_min(np.array([1e-4, 0.0]),
    ...                                 np.array([[0.5, 0.95],
    ...                                           [0.5, 0.95]])).tolist()
    [[10.0, 24.0], [6.0, 6.0]]
    """

    def __init__(self, managers: list[EnergyAwareManager]) -> None:
        def column(values) -> np.ndarray:
            return np.array(values, dtype=np.float64)[:, np.newaxis]

        self.policy = SimpleNamespace(**{
            field.name: column([getattr(manager.policy, field.name)
                                for manager in managers])
            for field in fields(ManagerPolicy)})
        self.detection_energy_j = column(
            [manager.detection_energy_j for manager in managers])

    detection_rates_per_min = EnergyAwareManager.detection_rates_per_min
