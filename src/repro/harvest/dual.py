"""Harvesting channels and the dual-source power intake.

A *harvester* pairs one transducer model with its converter IC and
answers "how much power reaches the battery under these conditions" —
the quantity Tables I and II report.  :class:`DualSourceHarvester`
combines the solar and TEG channels the way InfiniWolf's smart power
unit does (both charge the same battery independently) and integrates
intake over an environment timeline for the self-sustainability
analysis.

:class:`CachedHarvester` wraps any harvesting chain and memoizes the
intake per distinct ``(lighting, thermal)`` pair.  Both condition
types are frozen (hashable) dataclasses and a day-in-the-life timeline
only ever visits a handful of distinct pairs, so a multi-day
simulation pays for the Lambert-W diode solve and the TEG thermal
network once per pair instead of once per step.

:func:`price_conditions` is the batched form of that lookup: it
answers a whole list of pairs and *primes* the memo with the unseen
ones in one go.  For the stock :class:`DualSourceHarvester` the unseen
pairs' PV solves run as numpy lanes
(:meth:`~repro.harvest.photovoltaic.PVPanel.power_at_fraction_voc_lanes`),
bitwise equal to the scalar solver; any other chain is priced pair by
pair through its ``battery_intake_w``.  Priming keeps the
:class:`HarvestCacheStats` meaning of a per-pair lookup loop: each
primed pair (distinct and not yet memoized) is one miss, every other
pair of the list one hit, so ``lookups`` is the list's length and
``misses`` the number of pairs ever priced.  Later ``battery_intake_w``
calls on a primed pair are hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.harvest.converters import HarvesterConverter
from repro.harvest.environment import (
    EnvironmentTimeline,
    LightingCondition,
    ThermalCondition,
)
from repro.harvest.photovoltaic import PVPanel
from repro.harvest.teg import TEGDevice

__all__ = [
    "SolarHarvester",
    "TEGHarvester",
    "DualSourceHarvester",
    "HarvestCacheStats",
    "CachedHarvester",
    "price_conditions",
]


@dataclass(frozen=True)
class SolarHarvester:
    """PV panel + BQ25570 channel.

    Attributes:
        panel: the single-diode panel model.
        converter: the converter-IC model configured for solar.
    """

    panel: PVPanel
    converter: HarvesterConverter

    def transducer_power_w(self, lighting: LightingCondition) -> float:
        """Panel output power at the converter's MPPT operating point."""
        point = self.panel.operating_point_at_fraction_voc(
            lighting.lux, self.converter.mppt_fraction
        )
        return max(0.0, point.power_w)

    def battery_intake_w(self, lighting: LightingCondition) -> float:
        """Net power into the battery under a lighting condition."""
        return self.converter.battery_intake_w(self.transducer_power_w(lighting))


@dataclass(frozen=True)
class TEGHarvester:
    """TEG + BQ25505 channel.

    Attributes:
        device: the thermal-network TEG model.
        converter: the converter-IC model configured for the TEG.
    """

    device: TEGDevice
    converter: HarvesterConverter

    def transducer_power_w(self, thermal: ThermalCondition) -> float:
        """TEG output power at the converter's MPPT operating point."""
        point = self.device.operating_point_at_fraction_voc(
            thermal, self.converter.mppt_fraction
        )
        return max(0.0, point.power_w)

    def battery_intake_w(self, thermal: ThermalCondition) -> float:
        """Net power into the battery under a thermal condition."""
        return self.converter.battery_intake_w(self.transducer_power_w(thermal))


@dataclass(frozen=True)
class DualSourceHarvester:
    """Both harvesting channels charging one battery.

    Attributes:
        solar: the solar channel.
        teg: the TEG channel.
    """

    solar: SolarHarvester
    teg: TEGHarvester

    def battery_intake_w(self, lighting: LightingCondition,
                         thermal: ThermalCondition) -> float:
        """Combined net intake under joint conditions.

        The two ICs charge the battery through separate inductors, so
        their contributions add.
        """
        return self.solar.battery_intake_w(lighting) + self.teg.battery_intake_w(thermal)

    def harvested_energy_j(self, timeline: EnvironmentTimeline) -> float:
        """Energy delivered to the battery over a whole timeline."""
        return sum(
            self.battery_intake_w(seg.lighting, seg.thermal) * seg.duration_s
            for seg in timeline
        )


@dataclass
class HarvestCacheStats:
    """Hit/miss counters of a :class:`CachedHarvester`.

    Attributes:
        hits: lookups answered from the memo.
        misses: lookups that ran the wrapped chain's models, one per
            distinct pair priced (by a lookup or by
            :func:`price_conditions`).
    """

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total intake queries seen."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the memo (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0


class CachedHarvester:
    """Memoizes a harvesting chain's intake per condition pair.

    Args:
        inner: any object with ``battery_intake_w(lighting, thermal)``.

    The wrapper is transparent: unknown attributes delegate to the
    wrapped chain, so chain-specific helpers (``harvested_energy_j``,
    ``solar``/``teg`` channels) stay reachable.  ``stats`` counts hits
    and misses for the throughput benches.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.stats = HarvestCacheStats()
        self._memo: dict[tuple[LightingCondition, ThermalCondition], float] = {}

    def battery_intake_w(self, lighting: LightingCondition,
                         thermal: ThermalCondition) -> float:
        """Combined net intake, computed once per distinct pair."""
        key = (lighting, thermal)
        try:
            intake = self._memo[key]
        except KeyError:
            intake = self._memo[key] = self.inner.battery_intake_w(
                lighting, thermal)
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return intake

    def cache_clear(self) -> None:
        """Forget every memoized intake and reset the counters."""
        self._memo.clear()
        self.stats = HarvestCacheStats()

    def __getattr__(self, name: str):
        # Read through __dict__: during unpickling/copying this runs
        # before __init__ populated the instance, and touching
        # self.inner would recurse into __getattr__ forever.
        try:
            inner = self.__dict__["inner"]
        except KeyError:
            raise AttributeError(name) from None
        return getattr(inner, name)


def price_conditions(cache: CachedHarvester,
                     pairs: Sequence[tuple[LightingCondition, ThermalCondition]],
                     ) -> list[float]:
    """``cache.battery_intake_w(*pair)`` of every pair, priced in one go.

    The unseen distinct pairs are priced together (as PV lanes for the
    stock chain, see :func:`_chain_intakes`) and memoized; the stats
    count exactly what a per-pair ``battery_intake_w`` loop would.
    """
    memo = cache._memo
    intakes: list = []
    # Unseen pair -> its first position; later positions of the same
    # unseen pair go to ``repeats`` (no per-pair lists: a jittered
    # batch has one pending pair per segment).
    pending: dict[tuple[LightingCondition, ThermalCondition], int] = {}
    repeats: list[int] = []
    for position, key in enumerate(pairs):
        intake = memo.get(key)
        if intake is None and pending.setdefault(key, position) != position:
            repeats.append(position)
        intakes.append(intake)
    if pending:
        for (key, position), intake in zip(
                pending.items(), _chain_intakes(cache.inner, list(pending))):
            memo[key] = intakes[position] = intake
        for position in repeats:
            intakes[position] = memo[pairs[position]]
    cache.stats.misses += len(pending)
    cache.stats.hits += len(intakes) - len(pending)
    return intakes


def _chain_intakes(chain, pairs) -> list:
    """``chain.battery_intake_w(*pair)`` per pair, the solar channel of
    a stock :class:`DualSourceHarvester` priced as PV lanes.

    The stock chain's sum of its channels is replayed verbatim, so
    every intake equals the scalar chain's bitwise; any other chain
    is priced pair by pair.
    """
    if type(chain) is not DualSourceHarvester:
        return [chain.battery_intake_w(lighting, thermal)
                for lighting, thermal in pairs]
    lightings = list(dict.fromkeys(lighting for lighting, _ in pairs))
    solar_w = dict(zip(lightings, _solar_intakes(chain.solar, lightings)))
    teg_w = {thermal: chain.teg.battery_intake_w(thermal)
             for thermal in dict.fromkeys(thermal for _, thermal in pairs)}
    return [solar_w[lighting] + teg_w[thermal] for lighting, thermal in pairs]


def _solar_intakes(solar, lightings: list[LightingCondition]) -> list:
    """``solar.battery_intake_w(lighting)`` per lighting: one lane
    solve for a stock :class:`SolarHarvester`, else one call each."""
    if type(solar) is not SolarHarvester or type(solar.panel) is not PVPanel:
        return [solar.battery_intake_w(lighting) for lighting in lightings]
    converter = solar.converter
    powers = solar.panel.power_at_fraction_voc_lanes(
        [lighting.lux for lighting in lightings], converter.mppt_fraction)
    # SolarHarvester.transducer_power_w's clamp, then the converter.
    return [converter.battery_intake_w(max(0.0, power)) for power in powers]
