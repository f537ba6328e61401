"""Batched condition pricing (``repro.harvest.dual.price_conditions``).

The pricer must answer exactly what a per-pair ``battery_intake_w``
loop over a :class:`CachedHarvester` answers — bitwise, with the same
hit/miss counts — whether the chain is priced as PV lanes (the stock
dual chain) or pair by pair (anything else, the single-channel
ablations included).
"""

import random

import pytest

from repro.harvest.dual import (CachedHarvester, DualSourceHarvester,
                                price_conditions)
from repro.harvest.environment import LightingCondition, ThermalCondition
from repro.scenarios.builder import build_harvester


def sample_pairs(count: int, seed: int = 3) -> list:
    """Condition pairs with repeats, dark segments and bright sun."""
    rng = random.Random(seed)
    lightings = [LightingCondition(lux=0.0, description="dark"),
                 *(LightingCondition(lux=10 ** rng.uniform(-1, 5))
                   for _ in range(12))]
    thermals = [ThermalCondition(ambient_c=rng.uniform(-10.0, 30.0),
                                 skin_c=rng.uniform(30.0, 34.0),
                                 wind_ms=rng.uniform(0.0, 5.0))
                for _ in range(5)]
    return [(rng.choice(lightings), rng.choice(thermals))
            for _ in range(count)]


@pytest.mark.parametrize("name", ["calibrated_dual", "calibrated_solar_only",
                                  "calibrated_teg_only"])
def test_stock_chains_match_scalar_lookups(name):
    pairs = sample_pairs(60)
    batched = build_harvester(name, cached=True)
    looped = build_harvester(name, cached=True)
    intakes = price_conditions(batched, pairs)
    expected = [looped.battery_intake_w(*pair) for pair in pairs]
    assert intakes == expected
    assert [type(value) for value in intakes] == [type(value)
                                                  for value in expected]
    assert batched.stats == looped.stats
    assert batched.stats.misses == len(set(pairs))


def test_primed_pairs_are_hits_afterwards():
    pairs = sample_pairs(20)
    cache = build_harvester(cached=True)
    price_conditions(cache, pairs)
    misses = cache.stats.misses
    assert price_conditions(cache, pairs) == [
        cache.battery_intake_w(*pair) for pair in pairs]
    assert cache.stats.misses == misses
    assert cache.stats.lookups == 3 * len(pairs)


def test_other_chains_price_pair_by_pair():
    """Not a stock chain: priced through its own ``battery_intake_w``
    once per distinct unseen pair."""
    calls = []

    class Flat:
        def battery_intake_w(self, lighting, thermal):
            calls.append((lighting, thermal))
            return 1e-3 * lighting.lux

    pairs = sample_pairs(30)
    cache = CachedHarvester(Flat())
    assert price_conditions(cache, pairs) == [
        1e-3 * lighting.lux for lighting, _ in pairs]
    assert sorted(map(repr, calls)) == sorted(map(repr, set(pairs)))


def test_subclassed_stock_chain_is_not_laned():
    """A subclass may override the intake; only the exact stock type
    takes the lane path."""

    class Doubled(DualSourceHarvester):
        def battery_intake_w(self, lighting, thermal):
            return 2.0 * super().battery_intake_w(lighting, thermal)

    inner = build_harvester("calibrated_dual")
    pairs = sample_pairs(10)
    cache = CachedHarvester(Doubled(solar=inner.solar, teg=inner.teg))
    assert price_conditions(cache, pairs) == [
        2.0 * inner.battery_intake_w(*pair) for pair in pairs]


def test_empty_list_prices_nothing():
    cache = build_harvester(cached=True)
    assert price_conditions(cache, []) == []
    assert cache.stats.lookups == 0
