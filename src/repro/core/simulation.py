"""Time-stepped day-in-the-life simulation of the whole watch.

Steps the system over an environment timeline: each step harvests into
the battery through the harvesting chain, asks the power policy for a
detection rate (:meth:`repro.policies.base.Policy.decide`: time, step,
intake and state of charge in, a rate out), charges the battery
for every detection executed, and records a trace (state of charge,
intake, rate, detections) for the ablation benches and examples.

:class:`DaySimulation` is a thin engine over injected components: it
steps exactly the timeline, harvester, battery, policy and detection
energy it is handed, and builds none of them.  This module imports
nothing from the spec or policy layers; the one construction path from
a spec is :func:`repro.scenarios.builder.build_simulation`.

The stepping loop is segment-walking: it keeps a cursor into the
timeline's precomputed segment boundaries and re-evaluates the
harvesting chain only when the cursor crosses into a new segment, so
the per-step cost is independent of both the segment count and the
cost of the transducer models.  :class:`TraceMode` controls how much
per-step trace is kept (``full`` / ``decimated:n`` / ``none``); the
summary totals on :class:`SimulationResult` are exact in every mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol

from repro.errors import SimulationError
from repro.harvest.environment import (
    EnvironmentTimeline,
    LightingCondition,
    ThermalCondition,
)
from repro.power.loads import SYSTEM_SLEEP_W

__all__ = ["HarvestChain", "TraceMode", "SimulationStep", "SimulationResult",
           "DaySimulation", "step_grid"]


def step_grid(horizon_s: float, step_s: float,
              ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The exact ``(times, dts)`` sequence :meth:`DaySimulation.run` steps.

    Reproduces the engine's own accumulation — ``dt = min(step_s,
    horizon - t)`` then ``t += dt`` — with the same float operations in
    the same order, so the returned start times and step durations are
    bitwise what the scalar loop sees.  The vectorized fleet engine
    (:mod:`repro.fleet.vector`) steps every wearer over this shared
    grid; anything else that needs to line arrays up with engine steps
    (per-step fault masks, per-step intake tables) should build them
    from this function rather than re-deriving the arithmetic.

    >>> step_grid(150.0, 60.0)
    ((0.0, 60.0, 120.0), (60.0, 60.0, 30.0))
    """
    if not 0.0 < step_s < math.inf:
        raise SimulationError(
            f"step size must be positive and finite, got {step_s!r}")
    if not 0.0 < horizon_s < math.inf:
        raise SimulationError(
            f"simulation horizon must be positive and finite, got "
            f"{horizon_s!r}")
    times: list[float] = []
    dts: list[float] = []
    t = 0.0
    while t < horizon_s - 1e-9:
        dt = min(step_s, horizon_s - t)
        times.append(t)
        dts.append(dt)
        t += dt
    return tuple(times), tuple(dts)


class HarvestChain(Protocol):
    """Anything that answers "how much power reaches the battery"."""

    def battery_intake_w(self, lighting: LightingCondition,
                         thermal: ThermalCondition) -> float: ...


@dataclass(frozen=True)
class TraceMode:
    """How much per-step trace a run keeps.

    Attributes:
        kind: ``"full"`` records every step, ``"decimated"`` every
            ``every``-th step plus the final one, ``"none"`` records no
            steps at all.  Summary totals are exact in every mode.
        every: decimation factor (only meaningful for ``decimated``).

    The spec layer stores the string form (``"full"``, ``"none"``,
    ``"decimated:12"``); :meth:`parse` accepts either representation.
    """

    kind: str = "full"
    every: int = 1

    def __post_init__(self) -> None:
        if self.kind not in ("full", "decimated", "none"):
            raise SimulationError(
                f"unknown trace mode {self.kind!r}; "
                "use 'full', 'none' or 'decimated:<n>'")
        if self.every < 1 or self.every != int(self.every):
            raise SimulationError(
                f"trace decimation factor must be a positive integer, "
                f"got {self.every!r}")

    @classmethod
    def parse(cls, value: "TraceMode | str") -> "TraceMode":
        """A :class:`TraceMode` from itself or its string form."""
        if isinstance(value, TraceMode):
            return value
        if not isinstance(value, str):
            raise SimulationError(
                f"trace mode must be a string or TraceMode, "
                f"got {type(value).__name__}")
        if value in ("full", "none"):
            return cls(kind=value)
        if value.startswith("decimated:"):
            try:
                every = int(value.split(":", 1)[1])
            except ValueError:
                raise SimulationError(
                    f"bad trace decimation factor in {value!r}") from None
            return cls(kind="decimated", every=every)
        raise SimulationError(
            f"unknown trace mode {value!r}; "
            "use 'full', 'none' or 'decimated:<n>'")

    def __str__(self) -> str:
        if self.kind == "decimated":
            return f"decimated:{self.every}"
        return self.kind


@dataclass(frozen=True)
class SimulationStep:
    """Trace record of one simulation step.

    Attributes:
        time_s: step start time.
        harvest_w: net harvest intake during the step.
        detection_rate_per_min: manager-chosen rate during the step.
        detections: detections executed in the step.
        state_of_charge: battery SoC at the end of the step.
    """

    time_s: float
    harvest_w: float
    detection_rate_per_min: float
    detections: float
    state_of_charge: float


@dataclass
class SimulationResult:
    """Full outcome of a run.

    Attributes:
        steps: per-step trace.
        total_detections: detections executed over the horizon.
        initial_soc: battery state of charge at the start.
        final_soc: battery state of charge at the end.
        total_harvest_j: energy harvested over the horizon.
        total_consumed_j: energy drawn by detections and sleep.
        duration_s: simulated horizon.
        downtime_s: total time spent in steps where the battery could
            not deliver the full demand (detections were dropped or
            the watch browned out) — the "watch was degraded" clock
            that fleet studies aggregate into downtime hours.
        fault_demand_j: energy demanded by injected load-spike faults
            over the horizon (``0.0`` on fault-free runs).  The
            invariant judge uses it to decompose consumption into
            detections + sleep + faults.
    """

    steps: list[SimulationStep] = field(default_factory=list)
    total_detections: float = 0.0
    initial_soc: float = 0.0
    final_soc: float = 0.0
    total_harvest_j: float = 0.0
    total_consumed_j: float = 0.0
    duration_s: float = 0.0
    downtime_s: float = 0.0
    fault_demand_j: float = 0.0

    @property
    def energy_neutral(self) -> bool:
        """True when the battery ended no lower than it started."""
        return self.final_soc >= self.initial_soc - 1e-9


class DaySimulation:
    """Steps the watch over an environment timeline.

    The engine builds nothing: it steps exactly the parts it is
    handed.  :func:`repro.scenarios.builder.build_simulation` is the
    one way to assemble those parts from a spec.

    Args:
        timeline: the environment over the horizon.
        harvester: harvesting chain (anything with
            ``battery_intake_w(lighting, thermal)``).
        battery: storage.
        policy: the decision-maker: a
            :class:`repro.policies.base.Policy` protocol object
            (anything with ``max_rate_per_min`` and
            ``decide(time_s, step_s, harvest_power_w, state_of_charge)``).
            Custom manager thresholds are spelled
            ``EnergyAwarePolicy(EnergyAwareManager(E, thresholds))``.
        detection_energy_j: energy of one detection, in joules.
        step_s: simulation step size.
        sleep_power_w: baseline watch draw on top of detections.  The
            Table I/II intake numbers already include the sleeping
            watch's quiescent current, so the default only charges the
            *additional* always-on overhead beyond deep sleep; pass a
            larger value to model heavier standby activity.
        duration_s: the horizon :meth:`run` steps (``None`` runs the
            whole timeline).
        trace: per-step trace retention — a :class:`TraceMode` or its
            string form (``"full"``, ``"none"``, ``"decimated:<n>"``).
            Summary totals stay exact in every mode; only the
            ``steps`` list is affected.
        faults: a compiled :class:`repro.core.faults.FaultTimeline` of
            injected fault windows (sensor dropout, harvester derate,
            load spikes), or ``None`` for a healthy system.  The
            fault-free path is bitwise identical to passing nothing.
    """

    def __init__(self, timeline: EnvironmentTimeline,
                 harvester: HarvestChain,
                 battery,
                 policy,
                 detection_energy_j: float,
                 *,
                 step_s: float = 60.0,
                 sleep_power_w: float = SYSTEM_SLEEP_W,
                 duration_s: float | None = None,
                 trace: TraceMode | str = "full",
                 faults=None) -> None:
        # Written as "not inside the range" so NaN fails every guard.
        if not 0.0 < step_s < math.inf:
            raise SimulationError(
                f"step size must be positive and finite, got {step_s!r}")
        if not 0.0 <= sleep_power_w < math.inf:
            raise SimulationError(
                f"sleep power must be non-negative and finite, got "
                f"{sleep_power_w!r}")
        if duration_s is not None and not 0.0 < duration_s < math.inf:
            raise SimulationError(
                f"duration must be positive and finite, got {duration_s!r}")
        if not 0.0 < detection_energy_j < math.inf:
            raise SimulationError(
                f"detection energy must be positive and finite, got "
                f"{detection_energy_j!r}")
        if not hasattr(policy, "decide"):
            raise SimulationError(
                f"policy must implement decide(time_s, step_s, "
                f"harvest_power_w, state_of_charge), got "
                f"{type(policy).__name__}; wrap manager thresholds as "
                "EnergyAwarePolicy(EnergyAwareManager(E, thresholds))")
        if faults is not None and not hasattr(faults, "intervals"):
            raise SimulationError(
                f"faults must be a FaultTimeline (or None), "
                f"got {type(faults).__name__}")
        self.timeline = timeline
        self.harvester = harvester
        self.battery = battery
        self.policy = policy
        self.detection_energy_j = detection_energy_j
        self.step_s = step_s
        self.sleep_power_w = sleep_power_w
        self.duration_s = duration_s
        self.trace = TraceMode.parse(trace)
        self.faults = faults

    def run(self) -> SimulationResult:
        """Run over the constructor's ``duration_s``, else the whole
        timeline.

        The loop walks the timeline's segments with a cursor instead of
        scanning from ``t=0`` on every step, and re-evaluates the
        harvesting chain only on segment entry (the environment is
        piecewise-constant, so the intake cannot change mid-segment).
        Both are pure-speed changes: the sequence of battery, policy
        and carry operations — and therefore every number on the result
        — is identical to stepping ``timeline.at(t)`` naively.
        """
        horizon = (self.timeline.total_duration_s
                   if self.duration_s is None else self.duration_s)
        if horizon <= 0:
            raise SimulationError("simulation horizon must be positive")
        battery = self.battery
        policy = self.policy
        reset = getattr(policy, "reset", None)
        if reset is not None:
            # Stateful policies (forecasts, counters) restart cleanly,
            # so rerunning the same simulation object is deterministic.
            reset()
        decide = policy.decide
        max_rate = policy.max_rate_per_min
        detection_j = self.detection_energy_j
        sleep_power_w = self.sleep_power_w
        step_s = self.step_s
        segments = self.timeline.segments
        boundaries = self.timeline.boundaries_s
        last_idx = len(segments) - 1
        mode = self.trace
        trace_full = mode.kind == "full"
        trace_every = mode.every if mode.kind == "decimated" else 0

        result = SimulationResult(initial_soc=battery.state_of_charge,
                                  duration_s=horizon)
        steps = result.steps
        total_harvest_j = 0.0
        total_consumed_j = 0.0
        total_detections = 0.0
        downtime_s = 0.0
        # Fault bookkeeping mirrors the segment cursor: precompiled
        # intervals, advanced monotonically.  Every fault branch is
        # guarded by ``faults is None`` so a healthy run performs the
        # exact pre-chaos float operations (pinned by the bench's
        # legacy-equivalence gate).
        faults = self.faults
        fault_intervals = faults.intervals if faults is not None else ()
        fault_last = len(fault_intervals) - 1
        fault_idx = 0
        fault_demand_j = 0.0

        seg_idx = 0
        segment = segments[0]
        harvest_w = self.harvester.battery_intake_w(segment.lighting,
                                                    segment.thermal)
        t = 0.0
        step_index = 0
        last_recorded = -1
        carry_detections = 0.0
        while t < horizon - 1e-9:
            dt = min(step_s, horizon - t)
            if seg_idx < last_idx and t >= boundaries[seg_idx]:
                while seg_idx < last_idx and t >= boundaries[seg_idx]:
                    seg_idx += 1
                segment = segments[seg_idx]
                harvest_w = self.harvester.battery_intake_w(segment.lighting,
                                                            segment.thermal)
            if faults is None:
                intake_w = harvest_w
                overhead_w = sleep_power_w
                sensor_ok = True
            else:
                while (fault_idx < fault_last
                       and t >= fault_intervals[fault_idx].end_s):
                    fault_idx += 1
                fault_state = fault_intervals[fault_idx]
                intake_w = harvest_w * fault_state.harvest_scale
                overhead_w = sleep_power_w + fault_state.extra_load_w
                sensor_ok = fault_state.sensor_ok
                fault_demand_j += fault_state.extra_load_w * dt
            stored_j = battery.charge(intake_w, dt)
            total_harvest_j += stored_j

            # The policy observes the *effective* intake: an occluded
            # harvester looks like a dark segment, not a healthy one.
            rate = decide(t, dt, intake_w, battery.state_of_charge)
            try:
                valid = rate >= 0.0  # False for negatives and NaN alike
            except TypeError:  # not a number (None, an object, ...)
                valid = False
            if not valid:
                raise SimulationError(
                    f"policy {type(policy).__name__} returned an invalid "
                    f"detection rate {rate!r} at t={t:.0f}s")
            if rate > max_rate:
                # max_rate_per_min is a hard contract: the step cap
                # below assumes no decision ever exceeds it, else the
                # detection backlog could grow without bound.
                rate = max_rate
            # No step may execute (or bank) more than one step's worth
            # of detections at the policy ceiling, so a brown-out
            # backlog can never replay as a burst above the rate cap
            # (the floor of 1 keeps sub-detection-per-step rates
            # accumulating across steps).
            step_cap = max(1.0, max_rate * dt / 60.0)
            if sensor_ok:
                carry_detections += rate * dt / 60.0
                detections_now = float(int(min(carry_detections, step_cap)))
                carry_detections -= detections_now
            else:
                # Sensor dropout: the detection pipeline is dead — no
                # samples arrive, so nothing executes and nothing
                # accumulates on the carry either (a dropout is lost
                # data, not a backlog).
                detections_now = 0.0

            demand_j = detections_now * detection_j + overhead_w * dt
            delivered_j = battery.discharge(demand_j / dt, dt)
            if delivered_j + 1e-12 < demand_j:
                # Battery could not cover the step: only whole
                # detections execute; the unexecuted remainder goes
                # back on the carry (bounded — the watch does not owe
                # detections from a long outage).
                covered = max(0.0, delivered_j - overhead_w * dt)
                executed = (float(int(covered / detection_j))
                            if detection_j > 0 else 0.0)
                carry_detections = min(
                    carry_detections + detections_now - executed, step_cap)
                detections_now = executed
                downtime_s += dt
            total_consumed_j += delivered_j
            total_detections += detections_now

            if trace_full or (trace_every and step_index % trace_every == 0):
                steps.append(SimulationStep(
                    time_s=t,
                    harvest_w=intake_w,
                    detection_rate_per_min=rate,
                    detections=detections_now,
                    state_of_charge=battery.state_of_charge,
                ))
                last_recorded = step_index
            step_start = t
            last_rate = rate
            last_detections = detections_now
            t += dt
            step_index += 1

        # A decimated trace always ends on the final step, so readers
        # see the closing state of charge without consulting the totals.
        if trace_every and step_index and last_recorded != step_index - 1:
            steps.append(SimulationStep(
                time_s=step_start,
                harvest_w=intake_w,
                detection_rate_per_min=last_rate,
                detections=last_detections,
                state_of_charge=battery.state_of_charge,
            ))

        result.total_harvest_j = total_harvest_j
        result.total_consumed_j = total_consumed_j
        result.total_detections = total_detections
        result.downtime_s = downtime_s
        result.fault_demand_j = fault_demand_j
        result.final_soc = battery.state_of_charge
        return result
