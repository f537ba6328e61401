"""Seeded workload inputs for the repo benchmark (stdlib only).

Every generator here is a pure function of the seed: the same seed
gives byte-identical inputs.  The program under test only ever sees
what these functions return: fleet specs and policy grids as plain
JSON-ready dicts, or the HTTP request stream of ``serve_mixed``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from typing import Any, Iterator

#: Library scenarios whose timeline is one day (a fleet tiles them).
DAY_SCENARIOS = (
    "arctic_commute",
    "night_shift",
    "outdoor_hiker",
    "paper_indoor_worst_case",
    "sedentary_low_teg",
    "sunny_office_worker",
)

#: Every library scenario ``/simulate`` may name.
LIBRARY_SCENARIOS = (*DAY_SCENARIOS, "cloudy_week_multi_day",
                     "dead_battery_cold_start")

#: Identity cohorts ignore their seed when sampling, so the seed only
#: picks one of these variants; their serial-oracle digests stay cached.
COHORT_VARIANTS = ("sunny_office_worker", "paper_indoor_worst_case",
                   "night_shift", "outdoor_hiker")

#: The ``fleet_search_pool`` grid: 5 batchable candidates (energy_aware
#: and static_duty_cycle x 4 rates) and 3 that are not (ewma_forecast).
SEARCH_GRID = {
    "energy_aware": {},
    "static_duty_cycle": {"rate_per_min": [2.0, 4.0, 6.0, 12.0]},
    "ewma_forecast": {"alpha": [0.1, 0.25, 0.5]},
}

#: Fleet sizes (wearers, days) per workload.
JITTERED_SHAPE = (20, 7)
COHORT_SHAPE = (1024, 7)
SEARCH_SHAPE = (8, 2)
SERVE_RUN_SHAPE = (4, 1)
SERVE_SEARCH_SHAPE = (3, 1)

#: ``/fleet/search`` and ``/recommend`` grid: 3 candidates, 2 of them
#: ``ewma_forecast`` (never batchable).
SERVE_GRID = {
    "ewma_forecast": {"alpha": [0.2, 0.5]},
    "static_duty_cycle": {"rate_per_min": [4.0]},
}

#: Consecutive requests per measuring window (20 whole cycles).
SERVE_WINDOW = 200

#: Requests the traced ``serve_mixed`` pass sends (fixed, so its
#: counters repeat exactly between runs of one seed).
SERVE_TRACE_REQUESTS = 200


def _fleet(name: str, base: str, shape: tuple[int, int], seed: int,
           sampler: str) -> dict[str, Any]:
    wearers, days = shape
    return {"name": name, "base_scenario": base, "n_wearers": wearers,
            "horizon_days": days, "seed": seed,
            "sampler": {"name": sampler, "params": {}}}


def grid_size(grid: dict[str, dict[str, list]]) -> int:
    """Candidates a ``{policy: {param: [values]}}`` grid expands to."""
    return sum(math.prod(len(values) for values in axes.values())
               for axes in grid.values())


def fleet_inputs(workload: str, seed: int) -> dict[str, Any]:
    """The fleet spec (and grid) one fleet workload runs for ``seed``."""
    if workload == "fleet_jittered":
        fleet = _fleet("bench_jittered", "sunny_office_worker",
                       JITTERED_SHAPE, seed, "daily_jitter")
        return {"fleet": fleet, "grid": None}
    if workload == "fleet_cohort":
        variant = seed % len(COHORT_VARIANTS)
        fleet = _fleet("bench_cohort", COHORT_VARIANTS[variant],
                       COHORT_SHAPE, variant, "identity")
        return {"fleet": fleet, "grid": None}
    if workload == "fleet_search_pool":
        fleet = _fleet("bench_search", "sunny_office_worker",
                       SEARCH_SHAPE, seed, "daily_jitter")
        return {"fleet": fleet, "grid": SEARCH_GRID}
    raise ValueError(f"not a fleet workload: {workload!r}")


def wearer_days(inputs: dict[str, Any]) -> float:
    """Simulated wearer-days one run of ``inputs`` covers."""
    fleet = inputs["fleet"]
    candidates = grid_size(inputs["grid"]) if inputs["grid"] else 1
    return float(fleet["n_wearers"] * fleet["horizon_days"] * candidates)


# -- serve_mixed ------------------------------------------------------------

#: One cycle of the closed loop: a fresh request (first time its body
#: is sent, so a store miss) alternates with a repeat of an earlier one
#: (a store hit).  The fixed pattern keeps the hit/miss mix, and so the
#: latency percentiles, the same for every seed.
CYCLE = ("simulate_library", "simulate_inline", "simulate_inline",
         "fleet_run", "fleet_search")


def _inline_scenario(rng: random.Random, name: str) -> dict[str, Any]:
    """A one-day inline scenario with seeded light and heat segments."""
    segments = []
    cuts = sorted(rng.uniform(0.0, 86400.0) for _ in range(rng.randint(3, 7)))
    edges = [0.0, *cuts, 86400.0]
    for index, (start, end) in enumerate(zip(edges, edges[1:])):
        if end - start < 1.0:
            continue
        segments.append({
            "duration_s": round(end - start, 3),
            "lux": round(10 ** rng.uniform(0.5, 4.3), 3),
            "ambient_c": round(rng.uniform(-5.0, 30.0), 3),
            "skin_c": round(rng.uniform(30.0, 34.5), 3),
            "wind_ms": round(rng.uniform(0.0, 3.0), 3),
            "label": f"segment {index}",
        })
    policy = rng.choice((
        {"name": "energy_aware", "params": {}},
        {"name": "static_duty_cycle",
         "params": {"rate_per_min": float(rng.randint(1, 12))}},
        {"name": "ewma_forecast",
         "params": {"alpha": round(rng.uniform(0.05, 0.9), 3)}},
    ))
    return {"name": name, "step_s": 300.0, "duration_s": 86400.0,
            "timeline": {"segments": segments},
            "system": {"policy": policy}}


def serve_requests(seed: int) -> Iterator[dict[str, Any]]:
    """The endless, seeded ``serve_mixed`` request stream.

    Yields ``{"path", "body", "repeat"}`` dicts with ``body`` already
    encoded.  Fresh requests are unique by construction (a per-request
    name or fleet seed), so the first send of each is a store miss and
    every repeat, an exact resend of an earlier request, is a hit.
    """
    rng = random.Random(seed)
    library = list(LIBRARY_SCENARIOS)
    rng.shuffle(library)
    sent: list[dict[str, Any]] = []
    fresh = 0
    for cycle in itertools.count():
        # Fleet requests walk the day scenarios in a fixed order, so the
        # mix of miss costs is the same for every seed.
        base = DAY_SCENARIOS[cycle % len(DAY_SCENARIOS)]
        for kind in CYCLE:
            fresh += 1
            if kind == "simulate_library" and library:
                path, body = "/simulate", {"scenario": library.pop()}
            elif kind.startswith("simulate"):
                path = "/simulate"
                body = {"scenario": _inline_scenario(
                    rng, f"bench_inline_{seed}_{fresh}")}
            elif kind == "fleet_run":
                path = "/fleet/run"
                body = {"spec": _fleet("bench_serve_run", base,
                                       SERVE_RUN_SHAPE, seed * 100_000 + fresh,
                                       "daily_jitter")}
            else:
                path = "/fleet/search" if fresh % 2 else "/recommend"
                body = {"spec": _fleet("bench_serve_search", base,
                                       SERVE_SEARCH_SHAPE,
                                       seed * 100_000 + fresh,
                                       "daily_jitter"),
                        "grid": SERVE_GRID}
            request = {"path": path,
                       "body": json.dumps(body, sort_keys=True).encode(),
                       "repeat": False}
            sent.append(request)
            yield request
            yield {**rng.choice(sent), "repeat": True}
