"""Vectorized fleet engine: step a whole population as numpy arrays.

The scalar engine (:class:`repro.core.simulation.DaySimulation`) costs
one Python interpreter pass per wearer per step, which caps fleet
throughput at tens of wearers per second.  This module steps all N
wearers of a fleet *simultaneously*: state of charge, detection carry,
downtime and totals live in float64 arrays, and every step performs a
fixed number of numpy operations regardless of the population size.

The scalar engine stays the oracle.  Rather than approximating it, the
array loop replicates its float operations exactly, in the same order
per wearer:

* **Shared lockstep.**  Every wearer of a fleet shares the system spec
  (battery, policy, step size, sleep power, fault windows) and horizon
  — only the sampled timelines differ — so all wearers see the same
  ``(t, dt)`` sequence (:func:`repro.core.simulation.step_grid`) and
  the same per-step fault state, and per-wearer data reduces to one
  intake value per step.
* **Array layout.**  The batch's distinct condition pairs are priced
  once through the shared memoized harvester — the unseen ones as one
  set of numpy lanes of the PV solve
  (:func:`repro.harvest.dual.price_conditions`, bitwise equal to the
  scalar solver) — and each wearer's segments are spread onto
  the step grid (``np.searchsorted`` over the segment end boundaries —
  the exact segment the engine's cursor lands on), giving an
  ``(n_wearers, n_steps)`` intake matrix.  Fault windows compile to
  per-step scalars (all wearers share them) via
  :meth:`repro.core.faults.FaultTimeline.indices_at`.
* **Branches become masks.**  The battery's early-return guards
  (``is_full``, ``is_undervoltage``, zero power) and the engine's
  brown-out branch turn into ``np.where`` masks whose selected lanes
  perform the scalar expressions verbatim; masked lanes contribute the
  same literal ``0.0`` the scalar early-returns produce.  ``np.floor``
  replaces ``float(int(...))`` (equal for the non-negative carry and
  coverage values), and ``np.interp`` on an array runs the same
  compiled kernel as the battery's scalar OCV lookup.

**Tolerance contract: none.**  Per-wearer accumulation order is
unchanged (each wearer's totals sum over steps exactly as the scalar
loop does, and the fleet reduction never sums across wearers), so the
vector path reproduces the scalar per-wearer ``SimulationResult``
totals — and therefore the canonical ``FleetResult`` JSON — *bitwise*.
``tests/fleet/test_vector_oracle.py`` asserts exact equality, not a
tolerance, across the fleet library, every registered policy, shard
patterns and horizons.

**Dispatch.**  The engine runs only inside the ``"fleet"`` chunk
handler (:func:`repro.fleet.population.run_wearer_chunk`), which
:class:`~repro.fleet.runner.FleetRunner` reaches through
:func:`repro.pool.execute`: in the calling process on
``backend="vector"``, inside pool workers on ``backend="process"``.
Each call steps one chunk's wearers under one policy; the handler
passes every call of a chunk the same harvest memo, so a policy grid
prices each condition once per chunk, not once per candidate.  Only policies
exposing ``decide_batch`` (:class:`repro.policies.base.BatchPolicy` —
the built-in ``energy_aware`` and ``static_duty_cycle``) and the stock
:class:`~repro.power.battery.LiPoBattery` can step through the array
loop.  Everything else — stateful forecasts, ``oracle_lookahead``,
the ``learned``/``learned_q`` networks, third-party components — falls
back to the per-wearer scalar loop behind the single dispatch point in
:func:`simulate_specs_vector`, so the array engine is safe for
*every* fleet and merely fastest for batchable ones.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.simulation import SimulationResult, step_grid
from repro.errors import PowerModelError, SimulationError, SpecError
from repro.harvest.dual import CachedHarvester, price_conditions
from repro.power.battery import _OCV_SOC_GRID, _OCV_VOLTS, LiPoBattery
from repro.scenarios.builder import build_timeline
from repro.scenarios.runner import lean_simulation
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "DEFAULT_CHUNK",
    "batchable",
    "simulate_specs_vector",
]

#: Wearers stepped per array pass.  Bounds the intake matrix at
#: ``chunk * n_steps`` float64 (a 4096-wearer week at 300 s steps is
#: ~66 MB); wearers are independent, so chunking changes nothing but
#: peak memory.
DEFAULT_CHUNK = 4096


def _uniform(specs: Sequence[ScenarioSpec]) -> bool:
    """True when the batch shares system, step, horizon and faults.

    What lockstep stepping requires — exactly the invariant
    :func:`repro.fleet.population.wearer_scenarios` guarantees (only
    ``timeline``/``name``/``description`` vary per wearer).
    """
    head = specs[0]
    return all(spec.system == head.system
               and spec.step_s == head.step_s
               and spec.duration_s == head.duration_s
               and spec.faults == head.faults
               for spec in specs)


def batchable(specs: Sequence[ScenarioSpec], sim=None) -> bool:
    """True when the whole batch can step through the array engine.

    Requires a uniform batch (:func:`_uniform`) with a pinned horizon,
    the stock :class:`~repro.power.battery.LiPoBattery` (whose
    arithmetic the array loop replicates) and a policy exposing
    ``decide_batch`` (:class:`~repro.policies.base.BatchPolicy`).

    Args:
        specs: the candidate batch.
        sim: a simulation already built from ``specs[0]``, to avoid
            building it twice (built here when omitted).
    """
    specs = list(specs)
    if not specs:
        return True
    if specs[0].duration_s is None or not _uniform(specs):
        return False
    if sim is None:
        sim = lean_simulation(specs[0])
    return (type(sim.battery) is LiPoBattery
            and callable(getattr(sim.policy, "decide_batch", None)))


def simulate_specs_vector(specs: Sequence[ScenarioSpec],
                          chunk: int = DEFAULT_CHUNK,
                          harvester: CachedHarvester | None = None,
                          ) -> list[SimulationResult]:
    """Per-wearer results, bitwise-identical to the scalar engine.

    The vector analogue of running ``build_simulation(spec).run()``
    over the batch: summary totals only (the vector engine keeps no
    per-step trace — fleet runs never do).  This is also the single
    dispatch point of the subsystem: batchable batches (see
    :func:`batchable`) step through the array loop in chunks of
    ``chunk`` wearers, everything else drops to the per-wearer scalar
    loop — so callers get the scalar-oracle numbers either way.

    Every wearer on the first spec's harvester chain prices through
    one memo of it: ``harvester`` when given (the fleet chunk handler
    passes one per chunk, so every candidate of a grid reads the
    conditions the first one priced), else the first simulation's own.
    Wearers of a mixed batch on another chain keep their own memo.
    """
    specs = list(specs)
    if not specs:
        return []
    if chunk < 1:
        raise SpecError(f"chunk must be at least 1, got {chunk!r}")
    sim = lean_simulation(specs[0])
    if harvester is None:
        harvester = sim.harvester
    if not batchable(specs, sim):
        return _simulate_scalar(specs, harvester)
    results: list[SimulationResult] = []
    for start in range(0, len(specs), chunk):
        results.extend(
            _simulate_chunk(specs[start:start + chunk], sim, harvester))
    return results


def _simulate_scalar(specs: Sequence[ScenarioSpec],
                     harvester: CachedHarvester) -> list[SimulationResult]:
    """The per-wearer scalar fallback, priced through ``harvester``.

    ``harvester`` memoizes ``specs[0]``'s chain, so only the wearers on
    that chain share it: their conditions are primed in one
    :func:`~repro.harvest.dual.price_conditions` call and their scalar
    loops' lookups are all hits.  Any other wearer runs on its own
    simulation's memo, exactly as ``lean_simulation(spec).run()``.
    """
    sims = [lean_simulation(spec) for spec in specs]
    shared = [sim for spec, sim in zip(specs, sims)
              if spec.system.harvester == specs[0].system.harvester]
    price_conditions(harvester, [
        (segment.lighting, segment.thermal)
        for sim in shared for segment in sim.timeline.segments])
    for sim in shared:
        sim.harvester = harvester
    return [sim.run() for sim in sims]


def _intake_matrix(specs: Sequence[ScenarioSpec], harvester,
                   times: Sequence[float]) -> np.ndarray:
    """Per-step harvest intake, one row per wearer.

    Rows are built once per distinct timeline spec (hashable frozen
    dataclasses), so fleets whose sampler repeats timelines across
    wearers — ``identity`` above all — build one row for the whole
    population.  Every distinct timeline's segments are priced in one
    :func:`~repro.harvest.dual.price_conditions` call on the memoized
    harvester: the unseen condition pairs of the whole batch run as
    one set of numpy lanes of the PV solve, bitwise equal to the
    scalar Lambert-W bisection, and pairs an earlier batch sharing the
    memo already priced are hits (``battery_intake_w`` is a pure
    function of the pair, so sharing the memo changes no floats).
    Each row then spreads its segments onto the step grid:
    ``searchsorted(side="right")`` over the cumulative end boundaries,
    clipped to the last segment, is exactly the segment the engine's
    monotone cursor evaluates at each step time (see
    :meth:`~repro.harvest.environment.EnvironmentTimeline.indices_at`).
    """
    t_arr = np.asarray(times)
    intake = np.empty((len(specs), len(times)))
    first: dict = {}  # timeline spec -> its first row
    sources: list[int] = []
    layouts: list = []  # (row, start, end into pairs, segment ends)
    pairs: list = []
    for row, spec in enumerate(specs):
        source = first.setdefault(spec.timeline, row)
        sources.append(source)
        if source != row:
            continue
        timeline = build_timeline(spec.timeline)
        start = len(pairs)
        pairs.extend((segment.lighting, segment.thermal)
                     for segment in timeline.segments)
        layouts.append((row, start, len(pairs),
                        np.asarray(timeline.boundaries_s)))
    powers = np.array(price_conditions(harvester, pairs), dtype=np.float64)
    # Filled row by row in place: peak memory stays at the matrix plus
    # one row of segment indices.
    for row, start, end, boundaries in layouts:
        seg_idx = np.minimum(
            np.searchsorted(boundaries, t_arr, side="right"),
            end - start - 1)
        np.take(powers[start:end], seg_idx, out=intake[row])
    for row, source in enumerate(sources):
        if source != row:
            intake[row] = intake[source]
    return intake


def _simulate_chunk(specs: Sequence[ScenarioSpec], sim,
                    harvester: CachedHarvester) -> list[SimulationResult]:
    """Step one chunk of wearers through the array loop.

    ``sim`` is a *fresh* (never stepped) simulation built from any
    spec of the batch: it supplies the shared components — battery
    parameters and initial charge, policy, detection energy, fault
    timeline.  ``harvester`` is the memo pricing the chunk's
    conditions.  Every numpy expression below is the
    scalar loop's float arithmetic verbatim; comments reference the
    matching lines of :meth:`DaySimulation.run` and
    :class:`~repro.power.battery.LiPoBattery`.
    """
    n = len(specs)
    horizon = float(specs[0].duration_s)
    times, dts = step_grid(horizon, sim.step_s)
    n_steps = len(times)

    policy = sim.policy
    reset = getattr(policy, "reset", None)
    if reset is not None:
        reset()
    decide_batch = policy.decide_batch
    max_rate = policy.max_rate_per_min
    detection_j = sim.detection_energy_j
    sleep_power_w = sim.sleep_power_w

    # Fault state is shared by every wearer (windows ride on the base
    # scenario), so it compiles to per-step *scalars* — including the
    # fault-demand total, accumulated in step order exactly as the
    # scalar loop's `fault_demand_j += extra_load_w * dt`.
    faults = sim.faults
    if faults is not None:
        states = [faults.intervals[i] for i in faults.indices_at(times)]
        scales = np.array([state.harvest_scale for state in states])
        overheads = [sleep_power_w + state.extra_load_w for state in states]
        sensor_oks = [state.sensor_ok for state in states]
        fault_demand_j = 0.0
        for state, dt in zip(states, dts):
            fault_demand_j += state.extra_load_w * dt
    else:
        # Mirror the engine's `faults is None` fast path: no scaling
        # op at all (not a multiply by 1.0), plain sleep overhead.
        scales = None
        overheads = [sleep_power_w] * n_steps
        sensor_oks = [True] * n_steps
        fault_demand_j = 0.0

    intake = _intake_matrix(specs, harvester, times)
    if scales is not None:
        intake = intake * scales[np.newaxis, :]
    if np.any(intake < 0.0):
        # LiPoBattery.charge would raise on the scalar path too.
        raise PowerModelError("charge power and duration cannot be negative")

    # Battery parameters (all wearers start from identical fresh cells).
    battery = sim.battery
    capacity_c = battery.capacity_c
    efficiency = battery.charge_efficiency
    ov_volts = battery.overvoltage_v
    uv_volts = battery.undervoltage_lockout_v
    uv_floor_c = battery._uv_floor_c
    initial_soc = battery.state_of_charge
    charge_c = np.full(n, battery.charge_c)

    carry = np.zeros(n)
    total_harvest = np.zeros(n)
    total_consumed = np.zeros(n)
    total_detections = np.zeros(n)
    downtime = np.zeros(n)

    for k in range(n_steps):
        t = times[k]
        dt = dts[k]
        intake_k = intake[:, k]
        overhead_w = overheads[k]

        # LiPoBattery.charge: guards (zero power / is_full) as a mask;
        # selected lanes run `delta_c = p*dt/V*eta`, `accepted =
        # min(delta_c, capacity - charge)`, return `accepted*V/eta`.
        soc = charge_c / capacity_c
        volts = np.interp(soc, _OCV_SOC_GRID, _OCV_VOLTS)
        can_charge = (intake_k > 0.0) & (volts < ov_volts)
        accepted = np.where(
            can_charge,
            np.minimum(intake_k * dt / volts * efficiency,
                       capacity_c - charge_c),
            0.0)
        charge_c = charge_c + accepted
        total_harvest += accepted * volts / efficiency

        # The policy observes the post-charge SoC and the effective
        # (fault-scaled) intake, exactly like the scalar observation.
        soc = charge_c / capacity_c
        rates = np.asarray(decide_batch(t, dt, intake_k, soc), dtype=float)
        try:
            rates = np.broadcast_to(rates, (n,))
        except ValueError:
            raise SimulationError(
                f"policy {type(policy).__name__} returned a batch of "
                f"shape {rates.shape} for {n} wearers") from None
        if not np.all(rates >= 0.0):  # rejects negatives and NaN alike
            raise SimulationError(
                f"policy {type(policy).__name__} returned an invalid "
                f"detection rate at t={t:.0f}s")
        rates = np.minimum(rates, max_rate)
        step_cap = max(1.0, max_rate * dt / 60.0)
        if sensor_oks[k]:
            carry = carry + rates * dt / 60.0
            detections_now = np.floor(np.minimum(carry, step_cap))
            carry = carry - detections_now
        else:
            detections_now = np.zeros(n)

        # LiPoBattery.discharge with the engine's demand: guards (zero
        # power / is_undervoltage) as a mask; selected lanes run
        # `delta_c = p*dt/V`, `delivered = min(delta_c, available)`.
        demand_j = detections_now * detection_j + overhead_w * dt
        volts = np.interp(soc, _OCV_SOC_GRID, _OCV_VOLTS)
        power_w = demand_j / dt
        can_discharge = (power_w != 0.0) & (volts > uv_volts)
        delivered_c = np.where(
            can_discharge,
            np.minimum(power_w * dt / volts,
                       np.maximum(0.0, charge_c - uv_floor_c)),
            0.0)
        charge_c = charge_c - delivered_c
        delivered_j = delivered_c * volts

        # Brown-out branch as a mask (same 1e-12 slack): only whole
        # detections execute, remainder back on the bounded carry.
        short = delivered_j + 1e-12 < demand_j
        if short.any():
            covered = np.maximum(0.0, delivered_j - overhead_w * dt)
            executed = np.floor(covered / detection_j)
            carry = np.where(
                short,
                np.minimum(carry + detections_now - executed, step_cap),
                carry)
            detections_now = np.where(short, executed, detections_now)
            downtime = np.where(short, downtime + dt, downtime)
        total_consumed += delivered_j
        total_detections += detections_now

    return [
        SimulationResult(
            total_detections=float(total_detections[i]),
            initial_soc=initial_soc,
            final_soc=float(charge_c[i] / capacity_c),
            total_harvest_j=float(total_harvest[i]),
            total_consumed_j=float(total_consumed[i]),
            duration_s=horizon,
            downtime_s=float(downtime[i]),
            fault_demand_j=fault_demand_j,
        )
        for i in range(n)
    ]
