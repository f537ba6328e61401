"""Fleet-scale evaluation: how much of the oracle gap did we close?

The question the whole subsystem answers: between the deployable
baseline (``energy_aware``, the paper's manager) and the unrealizable
upper bound (``oracle_lookahead``, the teacher), where does the
trained policy land?  :func:`evaluate_trained` reruns one seeded
population under every built-in policy plus the trained candidates via
:meth:`~repro.fleet.runner.FleetRunner.run_grid` (paired wearers, like
any policy study) and reports:

* the full survival-first ranking (the fleet
  :class:`~repro.policies.grid.PolicyStudy`, canonical);
* the **gap closed**: ``(learned - baseline) / (oracle - baseline)``
  on median detections/day, ``None`` when the oracle opens no gap;
* the quantized network's :func:`~repro.fann.deploy.deployment_summary`
  — whether the trained net actually fits the paper's MCU budget.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.errors import SpecError
from repro.fann.deploy import deployment_summary
from repro.learn.train import TrainedPolicy
from repro.policies.grid import PolicyGrid, PolicyStudy
from repro.policies.learned import network_from_params

__all__ = ["BASELINE_POLICIES", "GAP_METRIC", "EvalReport",
           "evaluate_trained", "oracle_gap"]

#: Built-ins every evaluation runs against, at default params.
BASELINE_POLICIES = ("static_duty_cycle", "energy_aware", "ewma_forecast",
                     "oracle_lookahead")

#: The scalar the gap is measured on.
GAP_METRIC = "detections_per_day.p50"


def _median_detections(comparison: PolicyStudy, policy_name: str) -> float:
    for entry in comparison.entries:
        if entry.policy.name == policy_name:
            return entry.result.detections_per_day.p50
    raise SpecError(
        f"policy {policy_name!r} is not part of the comparison "
        f"({sorted({e.policy.name for e in comparison.entries})})")


def oracle_gap(comparison: PolicyStudy, candidate: str = "learned",
               baseline: str = "energy_aware",
               oracle: str = "oracle_lookahead") -> dict[str, Any]:
    """The fraction of the oracle-vs-baseline gap the candidate closed.

    Measured on :data:`GAP_METRIC`; ``gap_closed`` is ``None`` when
    the oracle does not beat the baseline (no gap to close — dividing
    would report noise as skill).
    """
    baseline_value = _median_detections(comparison, baseline)
    oracle_value = _median_detections(comparison, oracle)
    candidate_value = _median_detections(comparison, candidate)
    opened = oracle_value - baseline_value
    gap_closed = ((candidate_value - baseline_value) / opened
                  if opened > 0 else None)
    return {
        "metric": GAP_METRIC,
        "baseline": baseline,
        "oracle": oracle,
        "candidate": candidate,
        "baseline_value": baseline_value,
        "oracle_value": oracle_value,
        "candidate_value": candidate_value,
        "gap_closed": gap_closed,
    }


@dataclass(frozen=True)
class EvalReport:
    """One trained policy's fleet evaluation, canonical-serializable.

    Attributes:
        fleet: the evaluated fleet's name.
        comparison: the fleet study over baselines + trained policies.
        gap: the :func:`oracle_gap` payload for ``learned`` (and the
            quantized variant under ``"quantized"`` when evaluated).
        deployment: the quantized network's MCU footprint summary.
    """

    fleet: str
    comparison: PolicyStudy
    gap: dict[str, Any]
    deployment: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        return {
            "fleet": self.fleet,
            "search": self.comparison.to_dict(),
            "gap": self.gap,
            "deployment": self.deployment,
        }


def evaluate_trained(trained: TrainedPolicy,
                     fleet: Any = None,
                     include_quantized: bool = True,
                     workers: int = 4,
                     backend: str = "serial",
                     runner: Any = None) -> EvalReport:
    """Run the trained policy against every built-in on one fleet.

    Args:
        trained: the :func:`~repro.learn.train.train_policy` bundle.
        fleet: a :class:`~repro.fleet.spec.FleetSpec` or fleet name;
            defaults to the *full* fleet the dataset was drawn from
            (even when training used a wearer cap — evaluation is the
            generalization check).
        include_quantized: also race the ``learned_q`` fixed-point
            variant.
        workers / backend: sweep parallelism, as everywhere else.
        runner: inject a preconfigured
            :class:`~repro.fleet.runner.FleetRunner` (tests); wins
            over ``workers``/``backend``.
    """
    from repro.fleet import FleetRunner, get_fleet

    if fleet is None:
        fleet = get_fleet(trained.dataset.fleet)
    elif isinstance(fleet, str):
        fleet = get_fleet(fleet)
    if runner is None:
        runner = FleetRunner(workers=workers, backend=backend)
    grids = [PolicyGrid(name) for name in BASELINE_POLICIES]
    grids.append(PolicyGrid("learned", base=trained.policy.params))
    if include_quantized:
        grids.append(PolicyGrid("learned_q", base=trained.quantized.params))
    comparison = runner.run_grid(fleet, grids)
    gap = oracle_gap(comparison)
    if include_quantized:
        gap = dict(gap)
        gap["quantized"] = oracle_gap(comparison, candidate="learned_q")
    network, _ = network_from_params(trained.policy.params)
    deployment = dataclasses.asdict(deployment_summary(network))
    return EvalReport(fleet=fleet.name, comparison=comparison, gap=gap,
                      deployment=deployment)
