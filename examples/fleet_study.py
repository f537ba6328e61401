#!/usr/bin/env python3
"""Fleet study: how does a *population* of wearers fare over a week?

One deterministic day-in-the-life says little about deployment risk;
what matters is the unlucky tail of a fleet of wearers with varied,
stochastic environments.  This example samples a seeded cohort of
office commuters, reduces it to population statistics (SoC
percentiles, downtime, detections/day), reruns the *same* population
under two power policies (a paired comparison), and registers a
custom timeline sampler to show the plug-in contract.  The same
studies are available from the command line::

    python -m repro fleet run office_cohort_week
    python -m repro fleet search office_cohort_week \
        --policy energy_aware --policy ewma_forecast

Run with::

    python examples/fleet_study.py
"""

from repro.fleet import (
    FleetRunner,
    FleetSpec,
    SamplerSpec,
    register_sampler,
    wearer_scenario,
)
from repro.policies import PolicyGrid
from repro.scenarios.spec import SegmentSpec


def main() -> None:
    # 1. A small seeded cohort: 12 office commuters, five days of
    #    day-to-day jitter, on the shared worker pool.  Same spec ->
    #    bitwise-identical result, on any backend, forever.
    fleet = FleetSpec(
        name="example_cohort",
        base_scenario="sunny_office_worker",
        n_wearers=12,
        horizon_days=5,
        seed=2020,
        sampler=SamplerSpec("daily_jitter", {"lux_sigma": 0.5}),
        description="12 commuters, five jittered days",
    )
    result = FleetRunner(workers=4, backend="process").run(fleet)
    print(result.format_summary())

    # 2. Every wearer is inspectable: regenerate wearer 7's scenario
    #    alone (seed + index) and look at its sampled morning.
    wearer = wearer_scenario(fleet, 7)
    first = wearer.timeline.segments[1]
    print(f"\nwearer 7, day 1, segment 2: {first.duration_s / 3600:.2f} h "
          f"at {first.lux:,.0f} lx ({first.label or 'unlabelled'})")

    # 3. Paired policy comparison: the same 12 sampled environments,
    #    decided by different managers, ranked by the p5 tail.
    comparison = FleetRunner(workers=4).run_grid(fleet, [
        PolicyGrid("energy_aware"),
        PolicyGrid("ewma_forecast", base={"alpha": 0.2}),
        PolicyGrid("static_duty_cycle", base={"rate_per_min": 24.0}),
    ])
    print()
    print(comparison.format_table())
    best = comparison.best
    print(f"best for the unlucky tail: {best.label} "
          f"(p5 final SoC {100 * best.result.final_soc.p5:.1f}%)")

    # 4. Third-party samplers plug in like any other component.  A
    #    "basement week": the wearer never sees daylight.  Registered
    #    at runtime, so only this process knows it: run it serially.
    @register_sampler("basement_week")
    def build_basement_week(params):
        class BasementWeek:
            def sample_day(self, day, base, rng):
                return tuple(SegmentSpec(
                    duration_s=seg.duration_s, lux=0.0,
                    ambient_c=seg.ambient_c, skin_c=seg.skin_c,
                    wind_ms=seg.wind_ms, label="basement",
                ) for seg in base)
        return BasementWeek()

    dark = FleetRunner(backend="serial").run(
        fleet.replace(name="example_basement",
                      sampler=SamplerSpec("basement_week")))
    print(f"\nbasement fleet: {100 * dark.fraction_energy_neutral:.0f}% "
          f"energy-neutral, p5 final SoC "
          f"{100 * dark.final_soc.p5:.1f}% (TEG-only survival)")


if __name__ == "__main__":
    main()
