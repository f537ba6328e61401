"""Built-in named fleets.

Naming convention mirrors the scenario library: lowercase
``snake_case`` phrases describing the *population* and its horizon
(``office_cohort_week``), not the sampler configuration — sampler
variants belong in the spec.

Every fleet here is asserted runnable (and its determinism pinned) by
``tests/fleet``; keep new entries small enough that a serial run
stays interactive.
"""

from __future__ import annotations

from repro.errors import RegistryError
from repro.fleet.spec import FleetSpec, SamplerSpec

__all__ = [
    "register_fleet",
    "get_fleet",
    "fleet_names",
    "all_fleets",
]

_FLEETS: dict[str, FleetSpec] = {}


def register_fleet(spec: FleetSpec) -> FleetSpec:
    """Add a named fleet to the library; rejects duplicate names."""
    if spec.name in _FLEETS:
        raise RegistryError(f"fleet {spec.name!r} is already registered")
    _FLEETS[spec.name] = spec
    return spec


def get_fleet(name: str) -> FleetSpec:
    """The library fleet registered under ``name``."""
    try:
        return _FLEETS[name]
    except KeyError:
        raise RegistryError(
            f"unknown fleet {name!r}; known: {fleet_names()}"
        ) from None


def fleet_names() -> list[str]:
    """All library fleet names, sorted."""
    return sorted(_FLEETS)


def all_fleets() -> list[FleetSpec]:
    """All library fleets, sorted by name."""
    return [_FLEETS[name] for name in fleet_names()]


register_fleet(FleetSpec(
    name="office_cohort_week",
    base_scenario="sunny_office_worker",
    n_wearers=25,
    horizon_days=7,
    seed=2020,
    sampler=SamplerSpec("daily_jitter"),
    description="25 office commuters, one week of day-to-day jitter",
))

register_fleet(FleetSpec(
    name="overcast_commuters_fortnight",
    base_scenario="sunny_office_worker",
    n_wearers=40,
    horizon_days=14,
    seed=7,
    sampler=SamplerSpec("cloudy_streaks",
                        {"p_enter": 0.45, "p_exit": 0.35}),
    description="40 commuters through two weeks of persistent cloud spells",
))

register_fleet(FleetSpec(
    name="night_shift_ward_month",
    base_scenario="night_shift",
    n_wearers=30,
    horizon_days=30,
    seed=99,
    sampler=SamplerSpec("daily_jitter", {"lux_sigma": 0.2,
                                         "ambient_sigma_c": 1.0}),
    description="30 night-shift nurses over a month of ward light",
))
