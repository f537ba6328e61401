"""Fleet-scale stochastic wearer studies.

The population layer on top of the scenario API: instead of one
deterministic day-in-the-life, simulate *n* wearers with varied,
seeded-stochastic environments over week-to-month horizons and reduce
them to population statistics.

* :mod:`repro.fleet.spec` — frozen, JSON-round-trippable
  :class:`FleetSpec`/:class:`SamplerSpec`;
* :mod:`repro.fleet.samplers` — the :class:`TimelineSampler` registry
  (``@register_sampler``) and built-ins (``identity``,
  ``daily_jitter``, ``cloudy_streaks``);
* :mod:`repro.fleet.population` — deterministic per-wearer scenario
  generation (``random.Random(seed + index)``) and the ``"fleet"``
  chunk handler, the one place a fleet runs on either engine;
* :mod:`repro.fleet.runner` — :class:`FleetRunner` over the
  serial/process/vector backends (one :func:`repro.pool.execute`
  call per run, shard or grid), the paired fleet-level policy study
  :meth:`FleetRunner.run_grid` (a
  :class:`~repro.policies.grid.PolicyStudy` ranked by
  :data:`FLEET_STUDY`), and sharded execution
  (``run(fleet, shard=(i, N))``);
* :mod:`repro.fleet.vector` — the array engine behind the ``vector``
  and ``process`` backends: a chunk's wearers, under every batchable
  candidate of a grid, stepped simultaneously as one numpy lane block,
  bitwise-identical to the scalar oracle (scalar fallback for
  unbatchable policies);
* :mod:`repro.fleet.result` — :class:`FleetResult` population
  statistics (SoC percentiles, fraction energy-neutral, downtime
  hours, detections/day distribution), plus the sharding types
  :class:`WearerRecord`/:class:`PartialFleetResult` and the
  merge-exact reducer :meth:`FleetResult.merge`;
* :mod:`repro.fleet.library` — named built-in fleets
  (``office_cohort_week``, ...);
* :mod:`repro.fleet.orchestrate` — manifest-driven shard
  orchestration with per-shard timeout, bounded retry with backoff,
  and crash-safe resume (:func:`orchestrate`).

CLI: ``repro fleet list | run [--shard I/N] | search | merge |
orchestrate`` — see ``docs/cli.md``.
"""

from repro.fleet.spec import FleetSpec, SamplerSpec, load_fleet_file
from repro.fleet.samplers import (
    SAMPLERS,
    TimelineSampler,
    build_sampler,
    register_sampler,
)
from repro.fleet.population import (
    template_segments,
    wearer_name,
    wearer_scenario,
    wearer_scenarios,
)
from repro.fleet.result import (
    DistributionSummary,
    FleetResult,
    PartialFleetResult,
    WearerRecord,
    load_partial_file,
    percentile,
)
from repro.fleet.runner import (
    BACKENDS,
    FLEET_STUDY,
    FleetRunner,
)
from repro.fleet.vector import (
    batchable,
    simulate_grid_vector,
    simulate_specs_vector,
)
from repro.fleet.library import (
    all_fleets,
    fleet_names,
    get_fleet,
    register_fleet,
)
from repro.fleet.orchestrate import (
    load_manifest,
    orchestrate,
    plan_manifest,
    write_manifest,
)

__all__ = [
    "FleetSpec",
    "SamplerSpec",
    "load_fleet_file",
    "SAMPLERS",
    "TimelineSampler",
    "build_sampler",
    "register_sampler",
    "template_segments",
    "wearer_name",
    "wearer_scenario",
    "wearer_scenarios",
    "DistributionSummary",
    "FleetResult",
    "PartialFleetResult",
    "WearerRecord",
    "load_partial_file",
    "percentile",
    "BACKENDS",
    "FLEET_STUDY",
    "FleetRunner",
    "batchable",
    "simulate_grid_vector",
    "simulate_specs_vector",
    "all_fleets",
    "fleet_names",
    "get_fleet",
    "register_fleet",
    "load_manifest",
    "orchestrate",
    "plan_manifest",
    "write_manifest",
]
