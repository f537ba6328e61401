"""Differential harness: the vector engine against the scalar oracle.

The vectorized fleet engine (:mod:`repro.fleet.vector`) claims *no
tolerance*: ``backend="vector"`` must reproduce the scalar engine's
canonical ``FleetResult`` JSON byte for byte, and so must
``backend="process"``, which runs the same array lanes inside pool
workers.  These tests sweep that claim across the axes a fleet study
actually varies — the built-in fleet library, every registered policy
(including the trained ``learned``/``learned_q`` networks, which
exercise the scalar-fallback dispatch), samplers, seeds, horizon lengths, and shard patterns
(vector-produced shards merged against unsharded scalar runs).  Any
single byte of divergence fails the suite, so the scalar engine stays
the single source of truth and the vector engine can never drift into
"close enough".
"""

import dataclasses
import math

import numpy as np
import pytest

from repro.fleet import (
    FleetResult,
    FleetRunner,
    FleetSpec,
    SamplerSpec,
    batchable,
    fleet_names,
    get_fleet,
    simulate_specs_vector,
    wearer_scenarios,
)
from repro.errors import SimulationError
from repro.fleet import population
from repro.fleet.vector import DEFAULT_CHUNK, simulate_grid_vector
from repro.policies import PolicyGrid, default_policy_names
from repro.pool import get_shared_pool
from repro.scenarios.builder import build_harvester
from repro.scenarios.runner import (ScenarioOutcome, ScenarioRunner,
                                   lean_simulation)
from repro.scenarios.spec import FaultSpec, PolicySpec, canonical_json


def small_fleet(**overrides) -> FleetSpec:
    defaults = dict(name="vector_diff", base_scenario="sunny_office_worker",
                    n_wearers=3, horizon_days=1, seed=11,
                    sampler=SamplerSpec("daily_jitter"))
    defaults.update(overrides)
    return FleetSpec(**defaults)


def vector_outcomes(specs, **kwargs) -> list[dict]:
    """The array engine's per-wearer outcome dicts for ``specs``."""
    return [ScenarioOutcome.from_result(spec.name, result).to_dict()
            for spec, result in zip(
                specs, simulate_specs_vector(specs, **kwargs))]


def assert_grid_matches_scalar(fleet: FleetSpec, candidates) -> None:
    """``vector`` and vector-in-workers ``process`` grids both equal
    the scalar ``serial`` grid byte for byte."""
    scalar = FleetRunner(workers=1, backend="serial").run_grid(
        fleet, candidates)
    for runner in (FleetRunner(backend="vector"),
                   FleetRunner(workers=2, backend="process")):
        fast = runner.run_grid(fleet, candidates)
        assert (canonical_json(fast.to_dict())
                == canonical_json(scalar.to_dict()))


def assert_vector_matches_scalar(fleet: FleetSpec) -> None:
    scalar = FleetRunner(workers=1, backend="serial").run(fleet)
    vector = FleetRunner(backend="vector").run(fleet)
    assert vector.backend == "vector"
    assert vector.canonical_json() == scalar.canonical_json()


@pytest.mark.parametrize("fleet_name", sorted(fleet_names()))
def test_every_builtin_fleet(fleet_name):
    fleet = dataclasses.replace(get_fleet(fleet_name),
                                n_wearers=3, horizon_days=1)
    assert_vector_matches_scalar(fleet)


@pytest.mark.parametrize("policy_name", sorted(default_policy_names()))
def test_every_registered_policy(policy_name):
    """Batchable policies take the array path, the rest the scalar
    fallback — either way the payload must be byte-identical (the
    paired ``run_grid`` rerun swaps the policy into every wearer)."""
    assert_grid_matches_scalar(small_fleet(), [PolicyGrid(policy_name)])


@pytest.mark.parametrize("policy_name", ["learned", "learned_q"])
def test_trained_policies_fall_back_bitwise(policy_name):
    """The trained networks build from weight params and expose no
    ``decide_batch``; the vector backend must route them through the
    per-wearer scalar loop and still match byte for byte."""
    from repro.learn import TrainSpec, build_network
    from repro.policies.learned import network_to_params

    params = network_to_params(build_network(TrainSpec(hidden=(4,), seed=2)))
    fleet = small_fleet()
    assert_grid_matches_scalar(fleet,
                               [PolicyGrid(policy_name, base=params)])
    specs = wearer_scenarios(fleet)
    unbatchable = [
        dataclasses.replace(
            spec, system=dataclasses.replace(
                spec.system, policy=PolicySpec(policy_name, params)))
        for spec in specs
    ]
    assert not batchable(unbatchable)


@pytest.mark.parametrize("sampler", ["identity", "daily_jitter",
                                     "cloudy_streaks"])
@pytest.mark.parametrize("seed", [0, 7])
def test_samplers_and_seeds(sampler, seed):
    assert_vector_matches_scalar(
        small_fleet(sampler=SamplerSpec(sampler), seed=seed))


@pytest.mark.parametrize("sampler", ["daily_jitter", "cloudy_streaks"])
@pytest.mark.parametrize("seed", range(5))
def test_jittered_lane_pricing_across_seeds(sampler, seed):
    """Jittered samplers make every segment a new condition, so every
    intake comes from the lane pricer; ``vector`` and vector-in-workers
    ``process`` must still equal the scalar oracle byte for byte."""
    fleet = small_fleet(sampler=SamplerSpec(sampler), seed=seed)
    scalar = FleetRunner(workers=1, backend="serial").run(fleet)
    for runner in (FleetRunner(backend="vector"),
                   FleetRunner(workers=2, backend="process")):
        assert (canonical_json(runner.run(fleet).to_dict())
                == canonical_json(scalar.to_dict()))


@pytest.mark.parametrize("horizon_days", [1, 2])
def test_horizon_lengths(horizon_days):
    assert_vector_matches_scalar(small_fleet(horizon_days=horizon_days,
                                             n_wearers=2))


def test_ragged_final_step():
    """A horizon that is not a multiple of the step leaves a short
    final ``dt``; the vector grid must clip it exactly as the scalar
    loop does."""
    specs = wearer_scenarios(small_fleet(n_wearers=2))
    ragged = [dataclasses.replace(spec, duration_s=86_450.0)
              for spec in specs]
    scalar = ScenarioRunner(workers=1, backend="serial").run_batch(ragged)
    assert (vector_outcomes(ragged)
            == [o.to_dict() for o in scalar.outcomes])


@pytest.mark.parametrize("shard_count", [1, 2, 3])
def test_vector_shards_merge_to_scalar_run(shard_count):
    """Shards produced on the vector backend, merged, must equal the
    *unsharded scalar* run — crossing the shard contract with the
    engine contract in one assertion."""
    fleet = small_fleet(n_wearers=5)
    scalar = FleetRunner(workers=1, backend="serial").run(fleet)
    runner = FleetRunner(backend="vector")
    parts = [runner.run(fleet, shard=(index, shard_count))
             for index in range(shard_count)]
    assert all(part.backend == "vector" for part in parts)
    merged = FleetResult.merge(parts)
    assert merged.canonical_json() == scalar.canonical_json()


def test_chunking_is_invisible():
    """Chunk size only bounds peak memory; any chunking of the same
    batch yields identical outcomes."""
    specs = wearer_scenarios(small_fleet(n_wearers=5))
    assert vector_outcomes(specs, chunk=2) == vector_outcomes(specs)


def test_batchable_dispatch_facts():
    """The dispatch predicate: batchable for the built-in array-path
    policies, scalar fallback for ``oracle_lookahead`` (it reads each
    wearer's own timeline), False for mixed or open-horizon batches."""
    specs = wearer_scenarios(small_fleet(n_wearers=2))
    assert batchable(specs)
    assert batchable([])
    lookahead = [
        dataclasses.replace(
            spec, system=dataclasses.replace(
                spec.system, policy=PolicySpec("oracle_lookahead")))
        for spec in specs
    ]
    assert not batchable(lookahead)
    mixed = [specs[0], lookahead[1]]
    assert not batchable(mixed)
    open_horizon = [dataclasses.replace(spec, duration_s=None)
                    for spec in specs]
    assert not batchable(open_horizon)


@pytest.mark.parametrize("shared", [False, True])
def test_mixed_harvester_batch_falls_back_bitwise(shared):
    """A batch mixing harvester chains is not batchable; its scalar
    fallback must price every wearer on its own chain, whether the
    first wearer's memo is passed in or built."""
    specs = [
        dataclasses.replace(spec, system=dataclasses.replace(
            spec.system, harvester=harvester))
        for spec, harvester in zip(
            wearer_scenarios(small_fleet(n_wearers=4)),
            ["calibrated_dual", "calibrated_solar_only",
             "calibrated_teg_only", "calibrated_dual"])
    ]
    assert not batchable(specs)
    kwargs = ({"harvester": build_harvester("calibrated_dual", cached=True)}
              if shared else {})
    assert vector_outcomes(specs, **kwargs) == [
        ScenarioOutcome.from_result(spec.name,
                                    lean_simulation(spec).run()).to_dict()
        for spec in specs]


GRID = [PolicyGrid("static_duty_cycle", axes={"rate_per_min": [2.0, 8.0]}),
        PolicyGrid("energy_aware")]


def test_process_grid_is_one_pool_batch():
    """A whole grid ships as one batch of wearers: one pool round
    trip, not one per candidate."""
    fleet = small_fleet(n_wearers=4)
    before = get_shared_pool().stats.batches
    result = FleetRunner(workers=2, backend="process").run_grid(fleet, GRID)
    assert len(result.entries) == 3
    assert result.backend == "process"
    assert get_shared_pool().stats.batches == before + 1


def test_serial_grid_samples_the_population_once(monkeypatch):
    """The chunk handler samples its wearers once and reruns them
    under every candidate."""
    calls = []
    sample = population.wearer_scenarios

    def counted(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(population, "wearer_scenarios", counted)
    result = FleetRunner(backend="serial").run_grid(small_fleet(), GRID)
    assert len(result.entries) == 3
    assert len(calls) == 1


def test_grid_prices_each_condition_once(monkeypatch):
    """A grid on ``vector`` prices each distinct condition pair of the
    chunk exactly once, as PV lanes: one shared memo takes every miss,
    the array candidates and the scalar fallback (``ewma_forecast``)
    read it, and the scalar V_oc solver never runs."""
    from repro.harvest.photovoltaic import PVPanel
    from repro.scenarios import builder

    memos = []
    build = builder.build_harvester

    def recording(*args, **kwargs):
        harvester = build(*args, **kwargs)
        memos.append(harvester)
        return harvester

    def scalar_voc(self, lux):
        raise AssertionError("scalar V_oc solve on the vector engine")

    lanes = []
    lane_voc = PVPanel.open_circuit_voltage_lanes

    def recording_lanes(self, lux):
        lanes.extend(lux)
        return lane_voc(self, lux)

    monkeypatch.setattr(builder, "build_harvester", recording)
    monkeypatch.setattr(PVPanel, "open_circuit_voltage", scalar_voc)
    monkeypatch.setattr(PVPanel, "open_circuit_voltage_lanes",
                        recording_lanes)
    fleet = small_fleet(n_wearers=4)
    grid = [PolicyGrid("ewma_forecast"), PolicyGrid("energy_aware"),
            PolicyGrid("static_duty_cycle")]
    result = FleetRunner(backend="vector").run_grid(fleet, grid)
    assert len(result.entries) == 3

    pairs = {(segment.lighting, segment.thermal)
             for spec in wearer_scenarios(fleet)
             for segment in builder.build_timeline(spec.timeline).segments}
    priced = [memo for memo in memos if memo.stats.misses]
    assert len(priced) == 1
    assert priced[0].stats.misses == len(pairs)
    assert sorted(lanes) == sorted({lighting.lux for lighting, _ in pairs})


# -- the fused grid pass ------------------------------------------------
#
# ``simulate_grid_vector`` steps every batchable candidate of a chunk as
# rows of one (candidate, wearer) lane block; the pins below hold it to
# one pass per candidate and to the scalar oracle under ``==``.

#: The ``fleet_search_pool`` candidate shape: one ``energy_aware``, four
#: ``static_duty_cycle`` rates and three ``ewma_forecast`` alphas.
SEARCH_GRID = [PolicyGrid("energy_aware"),
               PolicyGrid("static_duty_cycle",
                          axes={"rate_per_min": [2.0, 4.0, 6.0, 12.0]}),
               PolicyGrid("ewma_forecast", axes={"alpha": [0.1, 0.25, 0.5]})]

SEARCH_POLICIES = [spec for grid in SEARCH_GRID for spec in grid]


def _grid_payload(batches, grid) -> str:
    return canonical_json([
        [ScenarioOutcome.from_result(spec.name, result).to_dict()
         for spec, result in zip(batch, results)]
        for batch, results in zip(batches, grid)])


def assert_fused_grid_pinned(specs, policies, chunk=DEFAULT_CHUNK) -> None:
    """The fused pass equals one pass per candidate and the scalar
    oracle: results under ``==`` and canonical JSON byte for byte."""
    batches = [population.with_policy(specs, policy) for policy in policies]
    fused = simulate_grid_vector(batches, chunk=chunk)
    per_candidate = [simulate_specs_vector(batch, chunk=chunk)
                     for batch in batches]
    scalar = [[lean_simulation(spec).run() for spec in batch]
              for batch in batches]
    assert fused == per_candidate == scalar
    assert (_grid_payload(batches, fused)
            == _grid_payload(batches, per_candidate)
            == _grid_payload(batches, scalar))


def test_search_pool_grid_fused_matches_serial():
    """The benchmark's 8-candidate grid shape (8 wearers x 2 days,
    jittered): ``vector`` and ``process`` equal ``serial``."""
    fleet = small_fleet(n_wearers=8, horizon_days=2, seed=7)
    assert_grid_matches_scalar(fleet, SEARCH_GRID)
    assert_fused_grid_pinned(wearer_scenarios(small_fleet(n_wearers=4)),
                             SEARCH_POLICIES)


def test_search_pool_grid_is_one_lane_block(monkeypatch):
    """Every candidate of the search grid is batchable, and the chunk
    handler steps them all in one array pass."""
    from repro.fleet import vector

    passes = []
    lanes = vector._simulate_lanes

    def counted(batches, sims, harvester):
        passes.append(len(batches))
        return lanes(batches, sims, harvester)

    monkeypatch.setattr(vector, "_simulate_lanes", counted)
    result = FleetRunner(backend="vector").run_grid(small_fleet(),
                                                    SEARCH_GRID)
    assert len(result.entries) == 8
    assert passes == [8]


def test_mixed_grid_splits_unbatchable_candidates():
    """``oracle_lookahead`` and a tiny ``learned`` network split off onto
    the scalar fallback; the rest (one family interrupted by another,
    so two ``static_duty_cycle`` runs) stay in one fused pass."""
    from repro.learn import TrainSpec, build_network
    from repro.policies.learned import network_to_params

    learned = PolicySpec("learned", network_to_params(
        build_network(TrainSpec(hidden=(4,), seed=2))))
    policies = [PolicySpec("static_duty_cycle", {"rate_per_min": 3.0}),
                PolicySpec("oracle_lookahead"),
                PolicySpec("energy_aware", {"low_soc": 0.3}),
                learned,
                PolicySpec("static_duty_cycle", {"rate_per_min": 9.0}),
                PolicySpec("ewma_forecast", {"alpha": 0.5}),
                PolicySpec("ewma_forecast", {"alpha": 1.0})]
    assert_fused_grid_pinned(wearer_scenarios(small_fleet()), policies)
    assert_grid_matches_scalar(small_fleet(), [
        PolicyGrid("static_duty_cycle", axes={"rate_per_min": [3.0]}),
        PolicyGrid("oracle_lookahead"),
        PolicyGrid("learned", base=dict(learned.params)),
        PolicyGrid("ewma_forecast", axes={"alpha": [0.5, 1.0]})])


@pytest.mark.parametrize("faults", [
    [FaultSpec("sensor_dropout", start_s=3_600.0, duration_s=7_200.0)],
    [FaultSpec("harvester_derate", start_s=28_800.0, duration_s=14_400.0,
               magnitude=0.25)],
    [FaultSpec("load_spike", start_s=0.0, duration_s=43_200.0,
               magnitude=2e-3)],
], ids=["sensor_off", "harvest_scale", "extra_load"])
def test_fused_grid_under_fault_windows(faults):
    specs = [dataclasses.replace(spec, faults=tuple(faults))
             for spec in wearer_scenarios(small_fleet())]
    assert_fused_grid_pinned(specs, SEARCH_POLICIES)


def test_fused_grid_ragged_horizon():
    """A short final ``dt`` gets its own per-candidate step cap."""
    specs = [dataclasses.replace(spec, duration_s=86_450.0)
             for spec in wearer_scenarios(small_fleet(n_wearers=2))]
    assert_fused_grid_pinned(specs, SEARCH_POLICIES)


def test_fused_grid_candidates_with_different_ceilings():
    """``static_duty_cycle`` at 0.5/min caps at 1/min, next to
    ``energy_aware`` at 24/min and a static 30/min: ``max_rate`` and
    the step cap are per-candidate rows."""
    policies = [PolicySpec("static_duty_cycle", {"rate_per_min": 0.5}),
                PolicySpec("energy_aware"),
                PolicySpec("static_duty_cycle", {"rate_per_min": 30.0}),
                PolicySpec("energy_aware", {"max_rate_per_min": 6.0})]
    assert_fused_grid_pinned(wearer_scenarios(small_fleet()), policies)


def test_fused_grid_brown_out_heavy_base():
    """``dead_battery_cold_start`` under a 2 mW load for six hours
    browns out some lanes and not others: the short-lane mask rewrites
    carries against per-candidate step caps."""
    specs = [dataclasses.replace(spec, faults=(FaultSpec(
                 "load_spike", start_s=0.0, duration_s=21_600.0,
                 magnitude=2e-3),))
             for spec in wearer_scenarios(
                 small_fleet(base_scenario="dead_battery_cold_start"))]
    downtimes = {result.downtime_s
                 for policy in SEARCH_POLICIES
                 for result in simulate_specs_vector(
                     population.with_policy(specs, policy))}
    assert 0.0 in downtimes and len(downtimes) > 2
    assert_fused_grid_pinned(specs, SEARCH_POLICIES)
    assert_grid_matches_scalar(
        small_fleet(base_scenario="dead_battery_cold_start"), SEARCH_GRID)


def test_fused_grid_chunk_smaller_than_wearers():
    assert_fused_grid_pinned(wearer_scenarios(small_fleet(n_wearers=5)),
                             SEARCH_POLICIES, chunk=2)


def test_grid_batches_out_of_lockstep_fall_back_bitwise():
    """Batches of other wearers, another horizon or another battery
    cannot share the first batch's lanes; they run on the scalar loop
    and still equal the oracle."""
    specs = wearer_scenarios(small_fleet())
    batches = [
        specs,
        population.with_policy(wearer_scenarios(small_fleet(seed=12)),
                               PolicySpec("ewma_forecast")),
        [dataclasses.replace(spec, duration_s=43_200.0) for spec in specs],
        [dataclasses.replace(spec, system=dataclasses.replace(
            spec.system, battery=dataclasses.replace(
                spec.system.battery, initial_soc=0.9)))
         for spec in specs],
    ]
    assert simulate_grid_vector(batches) == [
        [lean_simulation(spec).run() for spec in batch]
        for batch in batches]


class _LaneFault:
    """Decides 6/min on the scalar path; ``decide_batch`` returns a NaN
    (``kind`` 0) or negative (1) rate on lane ``lane``, or a batch one
    lane too long (2)."""

    max_rate_per_min = 24.0

    def __init__(self, kind, lane):
        self.kind, self.lane = kind, lane

    def decide(self, time_s, step_s, harvest_power_w, state_of_charge):
        return 6.0

    def decide_batch(self, time_s, step_s, harvest_power_w,
                     state_of_charge):
        rates = np.full(len(state_of_charge) + (self.kind == 2), 6.0)
        if self.kind != 2:
            rates[self.lane] = math.nan if self.kind == 0 else -1.0
        return rates


@pytest.fixture
def lane_fault_policy():
    from repro.scenarios import POLICIES, register_policy

    @register_policy("test_lane_fault")
    def build(params, context):
        return _LaneFault(params["kind"], params["lane"])

    try:
        yield
    finally:
        POLICIES.remove("test_lane_fault")


def _run_with_lane_fault(kind: int) -> None:
    specs = wearer_scenarios(small_fleet())
    policies = [PolicySpec("energy_aware"),
                PolicySpec("static_duty_cycle", {"rate_per_min": 2.0}),
                PolicySpec("test_lane_fault", {"kind": kind, "lane": 1})]
    simulate_grid_vector([population.with_policy(specs, policy)
                          for policy in policies])


@pytest.mark.parametrize("kind, rate", [(0, "nan"), (1, "-1.0")],
                         ids=["nan", "negative"])
def test_lane_rate_error_names_candidate_and_wearer(lane_fault_policy,
                                                    kind, rate):
    with pytest.raises(SimulationError, match=(
            rf"policy _LaneFault \(candidate "
            rf"test_lane_fault\(kind={kind},lane=1\)\) returned an invalid "
            rf"detection rate {rate} for wearer vector_diff::wearer_0001 "
            r"at t=0s")):
        _run_with_lane_fault(kind)


def test_lane_shape_error_names_candidate_and_wearers(lane_fault_policy):
    with pytest.raises(SimulationError, match=(
            r"policy _LaneFault \(candidate "
            r"test_lane_fault\(kind=2,lane=1\)\) returned a batch of shape "
            r"\(4,\) for 1 x 3 lanes \(wearers vector_diff::wearer_0000 to "
            r"vector_diff::wearer_0002\)")):
        _run_with_lane_fault(2)
