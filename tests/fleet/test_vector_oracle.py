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
from repro.fleet import population
from repro.policies import PolicyGrid, default_policy_names
from repro.pool import get_shared_pool
from repro.scenarios.runner import ScenarioOutcome, ScenarioRunner
from repro.scenarios.spec import PolicySpec, canonical_json


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
    policies, scalar fallback for stateful ones, False for mixed or
    open-horizon batches."""
    specs = wearer_scenarios(small_fleet(n_wearers=2))
    assert batchable(specs)
    assert batchable([])
    stateful = [
        dataclasses.replace(
            spec, system=dataclasses.replace(
                spec.system, policy=PolicySpec("ewma_forecast")))
        for spec in specs
    ]
    assert not batchable(stateful)
    mixed = [specs[0], stateful[1]]
    assert not batchable(mixed)
    open_horizon = [dataclasses.replace(spec, duration_s=None)
                    for spec in specs]
    assert not batchable(open_horizon)


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
