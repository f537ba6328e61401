"""Turn declarative specs into live simulation objects.

:func:`build_simulation` is the one construction path from a
:class:`~repro.scenarios.spec.ScenarioSpec` to a runnable
:class:`~repro.core.simulation.DaySimulation`.  All component defaults
live here (resolved through the registries); the engine in
:mod:`repro.core.simulation` is a thin stepper that builds nothing and
steps exactly the parts this module hands it.

Every spec-built harvester chain is wrapped in a
:class:`~repro.harvest.dual.CachedHarvester` (pass
``cache_harvest=False`` to opt out), so repeated conditions across a
long horizon or a sweep hit the memo instead of re-running the
transducer models; the wrapper's ``stats`` feed the throughput bench.
"""

from __future__ import annotations

from repro.core.faults import build_fault_timeline
from repro.core.simulation import DaySimulation
from repro.errors import RegistryError, UnknownPolicyError
from repro.harvest.dual import CachedHarvester
from repro.harvest.environment import (
    EnvironmentSample,
    EnvironmentTimeline,
    LightingCondition,
    ThermalCondition,
)
from repro.policies.base import PolicyContext
from repro.scenarios.registry import (
    APPS,
    BATTERIES,
    HARVESTERS,
    POLICIES,
    TIMELINES,
)
from repro.scenarios.spec import (
    AppSpec,
    BatterySpec,
    PolicySpec,
    ScenarioSpec,
    SystemSpec,
    TimelineSpec,
)

__all__ = [
    "build_timeline",
    "build_harvester",
    "build_battery",
    "build_policy",
    "build_app",
    "build_simulation",
]


def build_timeline(spec: TimelineSpec) -> EnvironmentTimeline:
    """An :class:`EnvironmentTimeline` from a registry name or segments."""
    if spec.name:
        return TIMELINES.get(spec.name)()
    samples = [
        EnvironmentSample(
            duration_s=seg.duration_s,
            lighting=LightingCondition(lux=seg.lux, description=seg.label),
            thermal=ThermalCondition(
                ambient_c=seg.ambient_c,
                skin_c=seg.skin_c,
                wind_ms=seg.wind_ms,
                description=seg.label,
            ),
        )
        for seg in spec.segments
    ]
    return EnvironmentTimeline(samples)


def build_harvester(name: str = "calibrated_dual", cached: bool = False):
    """The named harvester chain, optionally memoized per condition pair."""
    harvester = HARVESTERS.get(name)()
    return CachedHarvester(harvester) if cached else harvester


def build_battery(spec: BatterySpec | None = None):
    """The battery described by ``spec`` (stock 120 mAh cell by default)."""
    spec = spec if spec is not None else BatterySpec()
    return BATTERIES.get(spec.kind)(spec)


def build_policy(spec: PolicySpec | None = None,
                 context: PolicyContext | None = None):
    """The decision policy described by ``spec``.

    Args:
        spec: the ``{name, params}`` policy choice (paper-default
            ``energy_aware`` when omitted).
        context: build-time facts the factory may need.  When omitted,
            a context is derived from the default app's energy budget —
            enough for context-light policies; timeline-peeking ones
            (``oracle_lookahead``) need the caller to supply the built
            timeline and harvester, as :func:`build_simulation` does.

    An unknown policy name raises :class:`~repro.errors.SpecError`
    listing the registered names, so a typo in a grid search fails
    with the menu in hand.
    """
    spec = spec if spec is not None else PolicySpec()
    try:
        factory = POLICIES.get(spec.name)
    except RegistryError:
        from repro.policies.learned import unknown_policy_message

        raise UnknownPolicyError(unknown_policy_message(spec.name)) from None
    if context is None:
        context = PolicyContext(
            detection_energy_j=build_app().energy_budget().total_j)
    return factory(spec.params, context)


def build_app(spec: AppSpec | None = None):
    """The application described by ``spec`` (Network A on the cluster)."""
    spec = spec if spec is not None else AppSpec()
    return APPS.get(spec.kind)(spec)


def build_simulation(scenario: ScenarioSpec, *,
                     cache_harvest: bool = True) -> DaySimulation:
    """A runnable :class:`DaySimulation` assembled from a scenario spec.

    Args:
        scenario: the spec to build.
        cache_harvest: wrap the harvester chain in a
            :class:`~repro.harvest.dual.CachedHarvester` (the default;
            numerically transparent).  ``False`` builds the raw chain —
            useful for benchmarking the memo itself.
    """
    system: SystemSpec = scenario.system
    timeline = build_timeline(scenario.timeline)
    harvester = build_harvester(system.harvester, cached=cache_harvest)
    detection_energy_j = build_app(system.app).energy_budget().total_j
    policy = build_policy(system.policy, PolicyContext(
        detection_energy_j=detection_energy_j,
        sleep_power_w=system.sleep_power_w,
        step_s=scenario.step_s,
        timeline=timeline,
        harvester=harvester,
    ))
    return DaySimulation(
        timeline=timeline,
        harvester=harvester,
        battery=build_battery(system.battery),
        policy=policy,
        detection_energy_j=detection_energy_j,
        step_s=scenario.step_s,
        sleep_power_w=system.sleep_power_w,
        duration_s=scenario.duration_s,
        trace=scenario.trace,
        faults=build_fault_timeline(scenario.faults),
    )
