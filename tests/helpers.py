"""Shared helpers for the test suite."""

import os
from pathlib import Path

from repro.core.simulation import (DaySimulation, SimulationResult,
                                   SimulationStep)
from repro.policies.base import PolicyContext
from repro.scenarios import builder

REPO_ROOT = Path(__file__).resolve().parents[1]

# Subprocesses (examples, ``python -m repro``) import repro from the
# source tree; make that work even when the suite runs without
# PYTHONPATH=src (pytest's own path comes from pyproject's pythonpath
# setting, which subprocesses don't inherit).
SUBPROCESS_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    ),
}


def default_simulation(timeline, *, harvester=None, battery=None,
                       policy=None, detection_energy_j=None,
                       **engine) -> DaySimulation:
    """A :class:`DaySimulation` over ``timeline`` from the default parts.

    Any part not passed is built through :mod:`repro.scenarios.builder`
    exactly as a default spec builds it: the cached calibrated dual
    harvester, the stock battery, the default app's detection energy
    and the paper-default ``energy_aware`` policy.  ``engine`` carries
    the engine's scalar keywords (``step_s``, ``duration_s``, ...).
    """
    if detection_energy_j is None:
        detection_energy_j = builder.build_app().energy_budget().total_j
    if policy is None:
        policy = builder.build_policy(
            context=PolicyContext(detection_energy_j=detection_energy_j))
    return DaySimulation(
        timeline,
        builder.build_harvester(cached=True) if harvester is None
        else harvester,
        builder.build_battery() if battery is None else battery,
        policy, detection_energy_j, **engine)


def legacy_reference_run(sim) -> SimulationResult:
    """The pre-PR-2 stepping loop, kept verbatim as ground truth.

    Rescans the timeline from ``t=0`` and re-evaluates the harvester
    on every step, and always records a full trace.  The equivalence
    tests (``tests/core/test_fast_sim.py``) and the throughput bench
    (``benchmarks/test_ablation_sim_throughput.py``) both pin the fast
    path against this single copy — any semantic change to the engine
    must be mirrored here, in one place, or the bitwise-identity
    assertions fail.
    """
    horizon = (sim.timeline.total_duration_s
               if sim.duration_s is None else sim.duration_s)
    result = SimulationResult(initial_soc=sim.battery.state_of_charge,
                              duration_s=horizon)
    manager = sim.policy.manager  # the EnergyAwareManager it wraps
    detection_j = manager.detection_energy_j
    t = 0.0
    carry_detections = 0.0
    while t < horizon - 1e-9:
        dt = min(sim.step_s, horizon - t)
        elapsed = 0.0
        segment = sim.timeline.segments[-1]
        for seg in sim.timeline.segments:          # O(segments) rescan
            elapsed += seg.duration_s
            if t < elapsed:
                segment = seg
                break
        harvest_w = sim.harvester.battery_intake_w(segment.lighting,
                                                   segment.thermal)
        stored_j = sim.battery.charge(harvest_w, dt)
        result.total_harvest_j += stored_j

        rate = manager.detection_rate_per_min(
            harvest_w, sim.battery.state_of_charge)
        step_cap = max(1.0, manager.policy.max_rate_per_min * dt / 60.0)
        carry_detections += rate * dt / 60.0
        detections_now = float(int(min(carry_detections, step_cap)))
        carry_detections -= detections_now

        demand_j = detections_now * detection_j + sim.sleep_power_w * dt
        delivered_j = sim.battery.discharge(demand_j / dt, dt)
        if delivered_j + 1e-12 < demand_j:
            covered = max(0.0, delivered_j - sim.sleep_power_w * dt)
            executed = (float(int(covered / detection_j))
                        if detection_j > 0 else 0.0)
            carry_detections = min(
                carry_detections + detections_now - executed, step_cap)
            detections_now = executed
            result.downtime_s += dt
        result.total_consumed_j += delivered_j
        result.total_detections += detections_now

        result.steps.append(SimulationStep(
            time_s=t,
            harvest_w=harvest_w,
            detection_rate_per_min=rate,
            detections=detections_now,
            state_of_charge=sim.battery.state_of_charge,
        ))
        t += dt

    result.final_soc = sim.battery.state_of_charge
    return result
