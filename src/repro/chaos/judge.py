"""The invariant judge: accounting cross-checks + survival rules.

This is the PR 5 invariant suite (``tests/integration/
test_invariants.py``) as library code.  A :class:`LedgerBattery`
wrapper keeps independent books on every battery event; after a run,
:func:`check_invariants` compares the engine's summary totals against
the ledger:

* engine ``total_harvest_j`` / ``total_consumed_j`` / ``final_soc``
  equal the ledger's numbers **float-exactly** (same additions in the
  same order — ``==``, not approx);
* coulomb conservation: ``ΔSoC x capacity_c`` equals charge in minus
  charge out within float tolerance;
* energy conservation: ``harvested x charge_efficiency - consumed``
  equals the stored-energy delta priced at event-time OCV;
* the ``energy_neutral`` flag is exactly the SoC comparison;
* delivery decomposition: with zero downtime, consumption equals
  detections x E_det + overhead x horizon (overhead includes injected
  fault load); with brown-outs it can only *under*-deliver, up to a
  principled slack of one partially-covered detection per degraded
  step.

:func:`judge_scenario` then classifies a (scenario, policy) run:

* ``"violation"`` — an invariant broke, or the engine raised: the
  *simulator* is wrong (or a policy returned garbage).  These are the
  bugs chaos exists to find.
* ``"survival_failure"`` — the books balance but the watch died:
  downtime above the rules' ceiling, battery at the floor, or zero
  detections.  These are *policy/hardware* failures worth promoting
  to regression scenarios.
* ``"pass"`` — books balance and the watch survived.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

from repro.chaos.spec import JudgeRulesSpec
from repro.errors import ReproError, SpecError
from repro.scenarios.runner import ScenarioOutcome, lean_simulation
from repro.scenarios.spec import ScenarioSpec, check_mapping_keys

__all__ = ["VERDICTS", "LedgerBattery", "Violation", "RunJudgement",
           "check_invariants", "judge_simulation", "judge_scenario"]

#: The three judge outcomes, in severity order.
VERDICTS = ("violation", "survival_failure", "pass")


class LedgerBattery:
    """Wraps a battery and keeps independent books on every event.

    Coulombs are measured from ``charge_c`` deltas (not the return
    values) and energy is priced at the event's open-circuit voltage,
    so the ledger's ΔE is an independent restatement of the battery's
    own bookkeeping — agreement with the engine's totals is a real
    cross-check, not a tautology.
    """

    def __init__(self, inner) -> None:
        self._inner = inner
        self.energy_in_j = 0.0    # what charge() reported accepting
        self.energy_out_j = 0.0   # what discharge() reported delivering
        self.coulombs_in = 0.0
        self.coulombs_out = 0.0
        self.banked_j = 0.0       # ΔE: stored energy at event-time OCV

    @property
    def capacity_c(self):
        return self._inner.capacity_c

    @property
    def charge_efficiency(self):
        return self._inner.charge_efficiency

    @property
    def state_of_charge(self):
        return self._inner.state_of_charge

    def charge(self, power_w, duration_s):
        voltage = self._inner.open_circuit_voltage()
        before_c = self._inner.charge_c
        stored_j = self._inner.charge(power_w, duration_s)
        accepted_c = self._inner.charge_c - before_c
        self.energy_in_j += stored_j
        self.coulombs_in += accepted_c
        self.banked_j += accepted_c * voltage
        return stored_j

    def discharge(self, power_w, duration_s):
        voltage = self._inner.open_circuit_voltage()
        before_c = self._inner.charge_c
        delivered_j = self._inner.discharge(power_w, duration_s)
        removed_c = before_c - self._inner.charge_c
        self.energy_out_j += delivered_j
        self.coulombs_out += removed_c
        self.banked_j -= removed_c * voltage
        return delivered_j


@dataclass(frozen=True)
class Violation:
    """One broken invariant: a stable name plus the numbers."""

    name: str
    detail: str

    def __str__(self) -> str:
        return f"{self.name}: {self.detail}"


def _close(a: float, b: float, rel: float, abs_tol: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


def check_invariants(sim, ledger: LedgerBattery,
                     result) -> list[Violation]:
    """Every accounting invariant, checked; empty list means all hold.

    Args:
        sim: the :class:`~repro.core.simulation.DaySimulation` that ran
            (supplies ``detection_energy_j`` / ``sleep_power_w``).
        ledger: the :class:`LedgerBattery` that was the run's battery.
        result: the run's ``SimulationResult``.
    """
    violations: list[Violation] = []

    # Engine totals are exactly the sums of the battery's own return
    # values — same floats added in the same order, so ==, not approx.
    if result.total_harvest_j != ledger.energy_in_j:
        violations.append(Violation(
            "harvest_total",
            f"engine total_harvest_j {result.total_harvest_j!r} != "
            f"ledger energy_in_j {ledger.energy_in_j!r}"))
    if result.total_consumed_j != ledger.energy_out_j:
        violations.append(Violation(
            "consumed_total",
            f"engine total_consumed_j {result.total_consumed_j!r} != "
            f"ledger energy_out_j {ledger.energy_out_j!r}"))
    if result.final_soc != ledger.state_of_charge:
        violations.append(Violation(
            "final_soc",
            f"engine final_soc {result.final_soc!r} != battery "
            f"state_of_charge {ledger.state_of_charge!r}"))

    # Coulomb conservation: the SoC swing is exactly the net charge
    # through the terminals (different association order -> tolerance).
    delta_c = (result.final_soc - result.initial_soc) * ledger.capacity_c
    net_c = ledger.coulombs_in - ledger.coulombs_out
    if not _close(delta_c, net_c, rel=1e-9, abs_tol=1e-9):
        violations.append(Violation(
            "coulomb_conservation",
            f"ΔSoC x capacity = {delta_c!r} C but net terminal charge "
            f"= {net_c!r} C"))

    # Energy conservation: harvested minus consumed lands in the
    # battery as stored energy ΔE, less the coulombic charging loss.
    delta_e = (result.total_harvest_j * ledger.charge_efficiency
               - result.total_consumed_j)
    if not _close(delta_e, ledger.banked_j, rel=1e-9, abs_tol=1e-6):
        violations.append(Violation(
            "energy_conservation",
            f"harvest x eff - consumed = {delta_e!r} J but stored "
            f"ΔE = {ledger.banked_j!r} J"))

    # The neutrality flag is the SoC comparison, nothing else.
    if result.energy_neutral != (
            result.final_soc >= result.initial_soc - 1e-9):
        violations.append(Violation(
            "neutrality_flag",
            f"energy_neutral={result.energy_neutral!r} contradicts "
            f"final_soc {result.final_soc!r} vs initial "
            f"{result.initial_soc!r}"))

    # Delivery decomposition.  Demand includes injected fault load
    # (result.fault_demand_j is 0 on healthy runs, so this is the PR 5
    # check verbatim there).
    demand_j = (result.total_detections * sim.detection_energy_j
                + sim.sleep_power_w * result.duration_s
                + result.fault_demand_j)
    if result.downtime_s == 0.0:
        if not _close(result.total_consumed_j, demand_j,
                      rel=1e-9, abs_tol=1e-6):
            violations.append(Violation(
                "full_delivery",
                f"downtime is zero but consumed {result.total_consumed_j!r} "
                f"J != demanded {demand_j!r} J"))
    else:
        # Brown-outs only ever under-deliver whole detections, but a
        # degraded step may deliver a *fraction* of one detection the
        # accounting does not execute — so the bound carries one
        # detection's slack per degraded step.
        degraded_steps = result.downtime_s / sim.step_s
        slack = sim.detection_energy_j * (degraded_steps + 1.0) + 1e-6
        if result.total_consumed_j > demand_j + slack:
            violations.append(Violation(
                "overdelivery",
                f"consumed {result.total_consumed_j!r} J exceeds demanded "
                f"{demand_j!r} J by more than the brown-out slack "
                f"{slack!r} J"))
    return violations


@dataclass(frozen=True)
class RunJudgement:
    """The judge's verdict on one (scenario, policy) run.

    Attributes:
        verdict: one of :data:`VERDICTS`.
        reasons: why — broken invariant descriptions, survival-rule
            breaches, or an engine error message.  Empty on a pass.
        outcome: the run's summary metrics; ``None`` when the engine
            raised before producing a result.
    """

    verdict: str
    reasons: tuple[str, ...] = ()
    outcome: ScenarioOutcome | None = None

    def __post_init__(self) -> None:
        if self.verdict not in VERDICTS:
            raise SpecError(
                f"unknown verdict {self.verdict!r} (known: {list(VERDICTS)})")
        object.__setattr__(self, "reasons", tuple(self.reasons))

    def to_dict(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "reasons": list(self.reasons),
            "outcome": (self.outcome.to_dict()
                        if self.outcome is not None else None),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunJudgement":
        data = check_mapping_keys("RunJudgement", data,
                                  known=("verdict", "reasons", "outcome"),
                                  required=("verdict",))
        outcome = data.get("outcome")
        return cls(
            verdict=data["verdict"],
            reasons=tuple(data.get("reasons", ())),
            outcome=(ScenarioOutcome.from_dict(outcome)
                     if outcome is not None else None))


def _survival_reasons(sim, result, rules: JudgeRulesSpec) -> list[str]:
    reasons: list[str] = []
    downtime_frac = (result.downtime_s / result.duration_s
                     if result.duration_s > 0 else 0.0)
    if downtime_frac > rules.max_downtime_fraction:
        reasons.append(
            f"downtime {result.downtime_s / 3600.0:.2f} h is "
            f"{downtime_frac:.1%} of the horizon "
            f"(ceiling {rules.max_downtime_fraction:.1%})")
    if result.final_soc < rules.min_final_soc:
        reasons.append(
            f"final SoC {result.final_soc:.3f} below the "
            f"{rules.min_final_soc:.3f} survival floor")
    if rules.require_detections and result.total_detections == 0.0:
        reasons.append("zero detections executed over the horizon")
    return reasons


def judge_simulation(sim, rules: JudgeRulesSpec | None = None,
                     name: str = "") -> RunJudgement:
    """Run a built simulation under the ledger and judge it.

    The simulation's battery is wrapped in a :class:`LedgerBattery`
    before the run, so this must be called on a freshly-built
    simulation.
    """
    rules = rules if rules is not None else JudgeRulesSpec()
    ledger = LedgerBattery(sim.battery)
    sim.battery = ledger
    try:
        result = sim.run()
    except ReproError as exc:
        return RunJudgement(
            verdict="violation",
            reasons=(f"engine error: {exc}",))
    violations = check_invariants(sim, ledger, result)
    outcome = ScenarioOutcome.from_result(name or "run", result)
    if violations:
        return RunJudgement(
            verdict="violation",
            reasons=tuple(str(v) for v in violations),
            outcome=outcome)
    survival = _survival_reasons(sim, result, rules)
    if survival:
        return RunJudgement(verdict="survival_failure",
                            reasons=tuple(survival), outcome=outcome)
    return RunJudgement(verdict="pass", outcome=outcome)


def judge_scenario(spec: ScenarioSpec,
                   rules: JudgeRulesSpec | None = None) -> RunJudgement:
    """Build ``spec`` lean (no per-step trace), run it and judge the run."""
    return judge_simulation(lean_simulation(spec), rules, name=spec.name)
