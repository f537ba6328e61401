#!/usr/bin/env python3
"""Policy grid search: which power manager gets the most out of a day?

Holds one scenario fixed and sweeps the decision-making policy over a
grid — the paper's energy-aware manager, a fixed duty cycle, an
EWMA-forecast variant and a clairvoyant oracle — then ranks them by
energy-neutrality and detections delivered.  The same search is
available from the command line::

    python -m repro search cloudy_week_multi_day
    python -m repro search night_shift \
        --grid '{"static_duty_cycle": {"rate_per_min": [2, 8, 24]}}' --json

Run with::

    python examples/policy_search.py
"""

from repro.policies import PolicyGrid
from repro.scenarios import ScenarioRunner, build_policy, get_scenario
from repro.scenarios.spec import PolicySpec

GRIDS = [
    PolicyGrid("energy_aware"),
    PolicyGrid("static_duty_cycle", axes={"rate_per_min": (2.0, 8.0, 24.0)}),
    PolicyGrid("ewma_forecast", axes={"alpha": (0.1, 0.5)}),
    PolicyGrid("oracle_lookahead", axes={"lookahead_s": (2 * 3600.0,
                                                         12 * 3600.0)}),
]


def main() -> None:
    # 1. A single decision, by hand: what would the paper's policy do
    #    with 100 uW of harvest and a half-full battery?
    policy = build_policy(PolicySpec())  # default energy_aware
    rate = policy.decide(time_s=0.0, step_s=300.0, harvest_power_w=100e-6,
                         state_of_charge=0.5)
    print(f"energy_aware at 100 uW, SoC 50%: {rate:.1f} detections/min")

    # 2. The full grid over two very different days.
    runner = ScenarioRunner(workers=4, backend="process")
    for scenario_name in ("cloudy_week_multi_day", "dead_battery_cold_start"):
        scenario = get_scenario(scenario_name)
        result = runner.run_grid(scenario, GRIDS)
        print(f"\n{scenario.name} — {scenario.description}")
        print(result.format_table())
        best = result.best
        print(f"winner: {best.label} "
              f"({best.result.detections_per_day:.0f} det/day, "
              f"final SoC {100 * best.result.final_soc:.1f} %)")


if __name__ == "__main__":
    main()
