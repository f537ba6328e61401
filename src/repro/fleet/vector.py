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
  (battery, step size, sleep power, fault windows; the policy per
  candidate) and horizon
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

**Candidates become lanes.**  A policy grid reruns the same wearers
under every candidate, and a pass costs about the same at 8 lanes as
at 64 (per-step numpy call overhead dominates), so every batchable
candidate of a chunk steps in *one* pass
(:func:`simulate_grid_vector`): state arrays have shape
``(candidates, wearers)``, the ``(wearers, steps)`` intake matrix is
shared by broadcasting (never tiled), and each candidate's
``max_rate_per_min`` and step cap are rows of per-lane arrays built
before the loop.  Each step, a run of consecutive candidates of one
class with a ``stack`` hook decides its block in one call, with its
parameters as ``(k, 1)`` columns; any other candidate decides its own
row.  A lone candidate is the one-row case, kept 1-D so a plain fleet
run pays for no candidate axis.

**Dispatch.**  The engine runs only inside the ``"fleet"`` chunk
handler (:func:`repro.fleet.population.run_wearer_chunk`), which
:class:`~repro.fleet.runner.FleetRunner` reaches through
:func:`repro.pool.execute`: in the calling process on
``backend="vector"``, inside pool workers on ``backend="process"``.
Each call steps one chunk's wearers under every candidate, and every
candidate prices through one shared harvest memo, so a grid prices
each condition once per chunk, not once per candidate.  Only policies
exposing ``decide_batch`` (:class:`repro.policies.base.BatchPolicy` —
the built-in ``energy_aware``, ``static_duty_cycle`` and
``ewma_forecast``) and the stock
:class:`~repro.power.battery.LiPoBattery` can step through the array
loop.  Everything else — ``oracle_lookahead`` (it reads each wearer's
own timeline), the ``learned``/``learned_q`` networks, third-party
components without the hook — splits off once per chunk onto the
per-wearer scalar loop behind the single dispatch point in
:func:`simulate_grid_vector`, so the array engine is safe for *every*
fleet and merely fastest for batchable ones.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Sequence

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
    "simulate_grid_vector",
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
    per-step trace — fleet runs never do).  The one-candidate case of
    :func:`simulate_grid_vector`: a batchable batch (see
    :func:`batchable`) steps through the array loop in chunks of
    ``chunk`` wearers, anything else drops to the per-wearer scalar
    loop — so callers get the scalar-oracle numbers either way.

    Every wearer on the first spec's harvester chain prices through
    one memo of it: ``harvester`` when given, else the first
    simulation's own.  Wearers of a mixed batch on another chain keep
    their own memo.
    """
    return simulate_grid_vector([specs], harvester, chunk=chunk)[0]


def simulate_grid_vector(batches: Sequence[Sequence[ScenarioSpec]],
                         harvester: CachedHarvester | None = None,
                         chunk: int = DEFAULT_CHUNK,
                         ) -> list[list[SimulationResult]]:
    """Per-candidate, per-wearer results of a policy grid.

    ``batches`` holds one batch of specs per candidate; the fleet chunk
    handler passes the same wearers under each candidate's policy.
    This is the single dispatch point of the subsystem:

    * every batchable batch (:func:`batchable`) in lockstep with the
      first one — same wearers' timelines, same system but for the
      policy — joins one array pass, so a grid's batchable candidates
      step as one ``(candidates, wearers)`` lane block;
    * every other batch (``oracle_lookahead``, the trained networks,
      third-party policies without ``decide_batch``, mixed batches,
      batches of other wearers or systems) runs on the per-wearer
      scalar loop.

    Batches on the first batch's harvester chain price through one
    memo of it (``harvester`` when given, else the first simulation's
    own), so a grid prices each condition once, whichever engine a
    candidate runs on; a batch on another chain uses its own memo.
    """
    batches = [list(batch) for batch in batches]
    results: list[list[SimulationResult]] = [[] for _ in batches]
    occupied = [index for index, batch in enumerate(batches) if batch]
    if not occupied:
        return results
    if chunk < 1:
        raise SpecError(f"chunk must be at least 1, got {chunk!r}")
    sims = {index: lean_simulation(batches[index][0]) for index in occupied}
    chain = batches[occupied[0]][0].system.harvester
    if harvester is None:
        harvester = sims[occupied[0]].harvester

    def memo(index: int) -> CachedHarvester:
        return (harvester if batches[index][0].system.harvester == chain
                else sims[index].harvester)

    lanes: list[int] = []  # the candidates of the array pass
    for index in occupied:
        batch = batches[index]
        if (batchable(batch, sims[index])
                and (not lanes or _lockstep(batch, batches[lanes[0]]))):
            lanes.append(index)
        else:
            results[index] = _simulate_scalar(batch, memo(index))
    if lanes:
        for start in range(0, len(batches[lanes[0]]), chunk):
            per_candidate = _simulate_lanes(
                [batches[index][start:start + chunk] for index in lanes],
                [sims[index] for index in lanes], memo(lanes[0]))
            for index, block in zip(lanes, per_candidate):
                results[index].extend(block)
    return results


def _lockstep(batch: Sequence[ScenarioSpec],
              head: Sequence[ScenarioSpec]) -> bool:
    """True when two uniform batches differ only in their policy.

    Both already passed :func:`batchable` (each is uniform), so their
    first specs stand for the shared system, step, horizon and faults;
    the wearers' timelines must match row by row.
    """
    a, b = batch[0], head[0]
    return (len(batch) == len(head)
            and dataclasses.replace(a.system, policy=b.system.policy)
            == b.system
            and a.step_s == b.step_s and a.duration_s == b.duration_s
            and a.faults == b.faults
            and all(x.timeline == y.timeline for x, y in zip(batch, head)))


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


def _decider(batches: Sequence[Sequence[ScenarioSpec]],
             policies: Sequence) -> Callable:
    """The pass's ``decide_batch`` over its whole lane block.

    A run of consecutive candidates of one class with a ``stack`` hook
    (see :class:`~repro.policies.base.BatchPolicy`) decides its
    ``(k, wearers)`` block in one call of the stacked object; any other
    candidate decides its own row, a 1-D wearer array, as a lone
    policy does.  When one decider covers every candidate it is
    returned as is; otherwise the returned function concatenates the
    rows of each, checking that each block broadcasts to its rows.
    """
    groups = []  # (lo, hi, SoC rows, decide_batch)
    lo = 0
    while lo < len(policies):
        family = type(policies[lo])
        stack = getattr(family, "stack", None)
        hi = lo + 1
        while (stack is not None and hi < len(policies)
               and type(policies[hi]) is family):
            hi += 1
        if hi - lo == 1:
            groups.append((lo, hi, lo, policies[lo].decide_batch))
        else:
            groups.append((lo, hi, slice(lo, hi),
                           stack(policies[lo:hi]).decide_batch))
        lo = hi
    if len(groups) == 1:
        return groups[0][3]
    wearers = len(batches[0])

    def decide(time_s, step_s, harvest_power_w, state_of_charge):
        blocks = []
        for lo, hi, rows, decide_batch in groups:
            block = np.asarray(decide_batch(time_s, step_s, harvest_power_w,
                                            state_of_charge[rows]),
                               dtype=float)
            try:
                blocks.append(np.broadcast_to(block, (hi - lo, wearers)))
            except ValueError:
                raise _shape_error(batches, policies, lo, hi,
                                   block.shape) from None
        return np.concatenate(blocks)

    return decide


def _candidate(batches: Sequence[Sequence[ScenarioSpec]], policies,
               row: int) -> str:
    """Candidate ``row``'s policy class and spec, for lane errors."""
    from repro.policies.grid import policy_label

    label = policy_label(batches[row][0].system.policy)
    return f"policy {type(policies[row]).__name__} (candidate {label})"


def _shape_error(batches, policies, lo: int, hi: int,
                 shape: tuple) -> SimulationError:
    """A decider returned a block that does not broadcast to its rows."""
    specs = batches[lo]
    candidates = "; ".join(_candidate(batches, policies, row)
                           for row in range(lo, hi))
    return SimulationError(
        f"{candidates} returned a batch of shape {shape} for "
        f"{hi - lo} x {len(specs)} lanes (wearers {specs[0].name} to "
        f"{specs[-1].name})")


def _rate_error(batches, policies, rates: np.ndarray,
                t: float) -> SimulationError:
    """The first lane whose rate is negative or NaN, named."""
    rates = rates.reshape(len(batches), -1)
    row, wearer = np.argwhere(~(rates >= 0.0))[0]
    return SimulationError(
        f"{_candidate(batches, policies, row)} returned an invalid "
        f"detection rate {float(rates[row, wearer])!r} for wearer "
        f"{batches[row][wearer].name} at t={t:.0f}s")


def _simulate_lanes(batches: Sequence[Sequence[ScenarioSpec]],
                    sims: Sequence, harvester: CachedHarvester,
                    ) -> list[list[SimulationResult]]:
    """Step one chunk of wearers under every candidate in one array loop.

    ``batches`` are the candidates' specs of the same wearers, in
    lockstep (see :func:`_lockstep`); ``sims`` holds one *fresh* (never
    stepped) simulation per candidate, built from its first spec.
    Lanes are ``(candidate, wearer)`` pairs, candidate-major: every
    state array has shape ``(candidates, wearers)``.  The intake
    matrix stays ``(wearers, steps)`` and each step's column broadcasts
    over the candidate rows, so it is priced and stored once.  The
    first simulation supplies the shared components — battery
    parameters and initial charge, detection energy, sleep power,
    fault timeline; each candidate supplies its policy, whose
    ``max_rate_per_min`` becomes a ``(candidates, 1)`` column.
    ``harvester`` is the memo pricing the chunk's conditions.  Every
    numpy expression below is the scalar loop's float arithmetic
    verbatim, lane by lane; comments reference the matching lines of
    :meth:`DaySimulation.run` and
    :class:`~repro.power.battery.LiPoBattery`.
    """
    specs = batches[0]
    sim = sims[0]
    n = len(specs)
    # A one-candidate pass keeps 1-D wearer lanes: no step of a plain
    # fleet run pays for a candidate axis.
    shape = (len(batches), n) if len(batches) > 1 else (n,)
    horizon = float(specs[0].duration_s)
    times, dts = step_grid(horizon, sim.step_s)
    n_steps = len(times)

    policies = [candidate.policy for candidate in sims]
    for policy in policies:
        reset = getattr(policy, "reset", None)
        if reset is not None:
            reset()
    decide_batch = _decider(batches, policies)
    # Per-candidate ceilings: a (candidates, 1) column, spread to the
    # lane shape once so no step pays for broadcasting it.
    max_rate = np.array([[policy.max_rate_per_min] for policy in policies],
                        dtype=np.float64)
    # The scalar loop's `max(1.0, max_rate * dt / 60.0)`, element by
    # element, once per distinct step length.
    step_caps = {dt: np.repeat(np.maximum(1.0, max_rate * dt / 60.0),
                               n, axis=1).reshape(shape)
                 for dt in set(dts)}
    max_rate = np.repeat(max_rate, n, axis=1).reshape(shape)
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
    charge_c = np.full(shape, battery.charge_c)

    carry = np.zeros(shape)
    total_harvest = np.zeros(shape)
    total_consumed = np.zeros(shape)
    total_detections = np.zeros(shape)
    downtime = np.zeros(shape)

    for k in range(n_steps):
        t = times[k]
        dt = dts[k]
        intake_k = intake[:, k]  # broadcasts over the candidate rows
        overhead_w = overheads[k]
        step_cap = step_caps[dt]

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
            rates = np.broadcast_to(rates, shape)
        except ValueError:
            raise _shape_error(batches, policies, 0, len(policies),
                               rates.shape) from None
        if not np.all(rates >= 0.0):  # rejects negatives and NaN alike
            raise _rate_error(batches, policies, rates, t)
        rates = np.minimum(rates, max_rate)
        if sensor_oks[k]:
            carry = carry + rates * dt / 60.0
            detections_now = np.floor(np.minimum(carry, step_cap))
            carry = carry - detections_now
        else:
            detections_now = np.zeros(shape)

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

    lanes = (len(batches), n)
    totals = [total.reshape(lanes) for total in (
        total_detections, charge_c, total_harvest, total_consumed, downtime)]
    return [
        [SimulationResult(
            total_detections=float(detections[i]),
            initial_soc=initial_soc,
            final_soc=float(charge[i] / capacity_c),
            total_harvest_j=float(harvest[i]),
            total_consumed_j=float(consumed[i]),
            duration_s=horizon,
            downtime_s=float(down[i]),
            fault_demand_j=fault_demand_j,
        ) for i in range(n)]
        for detections, charge, harvest, consumed, down in zip(*totals)
    ]
