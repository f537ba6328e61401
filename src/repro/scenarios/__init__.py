"""Declarative scenario API: specs, registries, builder, library, runner.

The subsystem that turns "hand-wire a :class:`DaySimulation` in every
script" into "name a scenario and run it":

* :mod:`repro.scenarios.spec` — frozen, JSON-round-trippable
  :class:`ScenarioSpec`/:class:`SystemSpec` dataclasses;
* :mod:`repro.scenarios.registry` — string-keyed component registries
  (``@register_harvester("calibrated_dual")``, batteries, policies,
  apps, networks, processors, timelines) so specs reference components
  by name and third-party code can plug in its own;
* :mod:`repro.scenarios.builder` — ``build_simulation(spec)``, the one
  construction path from spec to live system;
* :mod:`repro.scenarios.library` — named built-in scenarios
  (``paper_indoor_worst_case``, ``sunny_office_worker``, ...);
* :mod:`repro.scenarios.files` — scenario specs on disk
  (``load_scenario_file``/``load_scenario_dir``, the ``repro sweep
  --from-json dir/`` loader);
* :mod:`repro.scenarios.runner` — ``ScenarioRunner.run_batch`` parallel
  sweeps, the :class:`SweepResult` aggregate, and
  ``ScenarioRunner.run_grid`` policy grid search.

Power policies live in their own subsystem, :mod:`repro.policies`
(the ``decide`` protocol, built-in policies, parameter grids); they
share the ``POLICIES`` registry exported here, and importing this
package registers the built-ins.
"""

from repro.scenarios.spec import (
    AppSpec,
    BatterySpec,
    PolicySpec,
    ScenarioSpec,
    SegmentSpec,
    SystemSpec,
    TimelineSpec,
    canonical_json,
    canonical_json_bytes,
    spec_digest,
)
from repro.scenarios.registry import (
    APPS,
    BATTERIES,
    ComponentRegistry,
    HARVESTERS,
    NETWORKS,
    POLICIES,
    PROCESSORS,
    TIMELINES,
    register_app,
    register_battery,
    register_harvester,
    register_network,
    register_policy,
    register_processor,
    register_timeline,
)
from repro.scenarios.builder import (
    build_app,
    build_battery,
    build_harvester,
    build_policy,
    build_simulation,
    build_timeline,
)
from repro.scenarios.files import (
    load_scenario_dir,
    load_scenario_file,
)
from repro.scenarios.library import (
    all_scenarios,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.scenarios.runner import (
    ScenarioOutcome,
    ScenarioRunner,
    SweepResult,
    run_scenario,
)

__all__ = [
    "AppSpec",
    "BatterySpec",
    "PolicySpec",
    "ScenarioSpec",
    "SegmentSpec",
    "SystemSpec",
    "TimelineSpec",
    "canonical_json",
    "canonical_json_bytes",
    "spec_digest",
    "ComponentRegistry",
    "APPS",
    "BATTERIES",
    "HARVESTERS",
    "NETWORKS",
    "POLICIES",
    "PROCESSORS",
    "TIMELINES",
    "register_app",
    "register_battery",
    "register_harvester",
    "register_network",
    "register_policy",
    "register_processor",
    "register_timeline",
    "register_scenario",
    "build_app",
    "build_battery",
    "build_harvester",
    "build_policy",
    "build_simulation",
    "build_timeline",
    "all_scenarios",
    "get_scenario",
    "scenario_names",
    "load_scenario_dir",
    "load_scenario_file",
    "ScenarioOutcome",
    "ScenarioRunner",
    "SweepResult",
    "run_scenario",
]
