"""Pluggable power-manager policies and policy grid search.

The decision-making layer of the day-in-the-life simulation, split out
of the engine behind one call shape,
``decide(time_s, step_s, harvest_power_w, state_of_charge) -> rate``
(and its element-wise array twin ``decide_batch``):

* :mod:`repro.policies.base` — the :class:`Policy` protocol and the
  build-time :class:`PolicyContext`;
* :mod:`repro.policies.library` — the built-in policies
  (``energy_aware``, ``static_duty_cycle``, ``ewma_forecast``,
  ``oracle_lookahead``), registered in the shared ``POLICIES``
  registry so any :class:`~repro.scenarios.spec.PolicySpec` can name
  them and round-trip through JSON and the process backend;
* :mod:`repro.policies.learned` — the oracle-supervised ``learned`` /
  ``learned_q`` trained policies (weights ride inside
  ``PolicySpec.params``; training lives in :mod:`repro.learn`);
* :mod:`repro.policies.grid` — :class:`PolicyGrid` cartesian parameter
  grids and :class:`PolicyStudy`, the one ranked result of a grid
  search over a scenario
  (:meth:`repro.scenarios.runner.ScenarioRunner.run_grid`,
  ``repro search``) or a fleet
  (:meth:`repro.fleet.runner.FleetRunner.run_grid`,
  ``repro fleet search``).

Third-party policies plug in exactly like other components::

    from repro.scenarios import register_policy

    @register_policy("solar_greedy")
    def build_solar_greedy(params, context):
        return MyPolicy(context.detection_energy_j, **params)
"""

from repro.policies.base import Policy, PolicyContext
from repro.policies.library import (
    EnergyAwarePolicy,
    EwmaForecastPolicy,
    OracleLookaheadPolicy,
    StaticDutyCyclePolicy,
    policy_names,
)
from repro.policies.learned import (
    LearnedPolicy,
    LearnedQPolicy,
    default_policy_names,
    extract_features,
    network_from_params,
    network_to_params,
    unknown_policy_message,
)
from repro.policies.grid import (
    SCENARIO_STUDY,
    PolicyGrid,
    PolicyStudy,
    StudyEntry,
    StudyKind,
    grids_from_mapping,
    policy_label,
)

__all__ = [
    "Policy",
    "PolicyContext",
    "EnergyAwarePolicy",
    "EwmaForecastPolicy",
    "OracleLookaheadPolicy",
    "StaticDutyCyclePolicy",
    "LearnedPolicy",
    "LearnedQPolicy",
    "policy_names",
    "default_policy_names",
    "extract_features",
    "network_from_params",
    "network_to_params",
    "unknown_policy_message",
    "SCENARIO_STUDY",
    "PolicyGrid",
    "PolicyStudy",
    "StudyEntry",
    "StudyKind",
    "grids_from_mapping",
    "policy_label",
]
