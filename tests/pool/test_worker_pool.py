"""The persistent shared worker pool: lifecycle, chunking, crashes.

The chunk handlers are pure ``(context, items) -> list`` functions, so
the chunked-vs-unchunked identity tests call them directly in-process
— the worker boundary adds transport, never semantics — while the
lifecycle tests drive real spawned workers through the runners.
"""

import dataclasses
import multiprocessing
import os

import pytest

from repro.chaos.campaign import (
    CampaignResult,
    ChaosRunner,
    RunRecord,
    default_policies,
    run_chaos_chunk,
)
from repro.chaos.spec import ChaosSpec
from repro.chaos.strategist import case_name
from repro.errors import SpecError
from repro.fleet.population import run_wearer_chunk, wearer_scenarios
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import FleetSpec
from repro.policies.grid import PolicyGrid
from repro.pool import (
    WorkerCrash,
    WorkerPool,
    execute,
    get_shared_pool,
    shared_pool_stats,
    shutdown_shared_pool,
)
from repro.pool.worker import HANDLERS, ping_chunk, run_chunk
from repro.scenarios.library import get_scenario
from repro.scenarios.runner import (
    ScenarioRunner,
    apply_spec_delta,
    run_scenario,
    run_scenario_chunk,
    spec_delta,
)
from repro.scenarios.spec import PolicySpec, canonical_json

FLEET = FleetSpec(name="pool_fleet", base_scenario="sunny_office_worker",
                  n_wearers=5, horizon_days=1, seed=9)


class TestSpecDelta:
    def test_identical_payloads_ship_empty_delta(self):
        base = get_scenario("night_shift").to_dict()
        assert spec_delta(base, base) == {}
        assert apply_spec_delta(base, {}) == base

    def test_round_trip_is_exact(self):
        base = get_scenario("night_shift").to_dict()
        other = get_scenario("sunny_office_worker").to_dict()
        delta = spec_delta(base, other)
        assert apply_spec_delta(base, delta) == other

    def test_set_and_drop_keys(self):
        delta = spec_delta({"a": 1, "b": 2}, {"a": 1, "c": 3})
        assert delta == {"set": {"c": 3}, "drop": ["b"]}
        assert apply_spec_delta({"a": 1, "b": 2}, delta) == {"a": 1, "c": 3}


class TestChunkHandlers:
    """Chunked-vs-unchunked bitwise identity, handler by handler."""

    def test_scenario_chunks_reassemble_to_serial_outcomes(self):
        specs = [get_scenario(name) for name in
                 ("night_shift", "sunny_office_worker", "outdoor_hiker")]
        expected = [run_scenario(spec).to_dict() for spec in specs]
        base = specs[0].to_dict()
        items = [spec_delta(base, spec.to_dict()) for spec in specs]
        whole = run_scenario_chunk({"base": base}, items)
        assert canonical_json(whole) == canonical_json(expected)
        # Strided two-chunk split reassembles exactly like the pool.
        results = [None] * len(items)
        for c in range(2):
            results[c::2] = run_scenario_chunk({"base": base}, items[c::2])
        assert canonical_json(results) == canonical_json(expected)

    def test_wearer_chunk_matches_parent_materialization(self):
        """Both engines reproduce the scalar ``run_scenario`` outcomes
        bitwise, whole or strided."""
        expected = [[run_scenario(spec).to_dict()]
                    for spec in wearer_scenarios(FLEET)]
        for engine in ("scalar", "vector"):
            context = {"fleet": FLEET.to_dict(), "policies": [None],
                       "engine": engine}
            got = run_wearer_chunk(context, list(range(FLEET.n_wearers)))
            assert canonical_json(got) == canonical_json(expected)
            results = [None] * FLEET.n_wearers
            for c in range(2):
                indices = list(range(FLEET.n_wearers))[c::2]
                results[c::2] = run_wearer_chunk(context, indices)
            assert canonical_json(results) == canonical_json(expected)

    def test_wearer_chunk_policy_replacement_matches_parent(self):
        policy = PolicySpec(name="static_duty_cycle")
        expected = [
            [run_scenario(spec).to_dict(),
             run_scenario(dataclasses.replace(
                 spec,
                 system=dataclasses.replace(spec.system,
                                            policy=policy))).to_dict()]
            for spec in wearer_scenarios(FLEET, [0, 3])
        ]
        got = run_wearer_chunk(
            {"fleet": FLEET.to_dict(), "policies": [None, policy.to_dict()],
             "engine": "scalar"}, [0, 3])
        assert canonical_json(got) == canonical_json(expected)

    def test_chaos_chunk_matches_serial_campaign(self):
        spec = ChaosSpec(name="pool_chaos",
                         base_scenario="sunny_office_worker",
                         n_cases=3, horizon_days=1)
        policies = default_policies()[:2]
        serial = ChaosRunner(workers=1, backend="serial").run(
            spec, policies=policies)
        items = [[case, position] for case in range(spec.n_cases)
                 for position in range(len(policies))]
        payloads = run_chaos_chunk(
            {"spec": spec.to_dict(),
             "policies": [policy.to_dict() for policy in policies]},
            items)
        rebuilt = CampaignResult(
            spec=spec, policies=tuple(policies),
            records=tuple(RunRecord.from_dict(p) for p in payloads))
        assert rebuilt.canonical_json() == serial.canonical_json()

    def test_run_chunk_carries_worker_pid(self):
        out = run_chunk({"kind": "ping", "context": None,
                         "items": [1, 2, 3]})
        assert out["pid"] == os.getpid()
        assert out["results"] == [None, None, None]

    def test_ping_chunk_is_a_no_op(self):
        assert ping_chunk(None, range(4)) == [None] * 4

    def test_unknown_chunk_kind_rejected(self):
        with pytest.raises(SpecError, match="unknown chunk kind"):
            run_chunk({"kind": "teleport", "context": None, "items": []})
        assert "teleport" not in HANDLERS


class TestPoolLifecycle:
    def test_empty_batch_never_starts_workers(self):
        pool = WorkerPool(workers=1)
        assert pool.run_chunked("ping", None, []) == []
        assert pool.started is False

    def test_warm_spawns_once_and_pings_after(self):
        pool = WorkerPool(workers=1)
        try:
            first = pool.warm()
            assert pool.started is True
            assert pool.stats.spawns == 1
            again = pool.warm()  # warm pool: just a ping round
            assert pool.stats.spawns == 1
            assert first >= 0 and again >= 0
            assert len(pool.last_batch_pids) == 1  # the one worker
        finally:
            pool.shutdown()
        assert pool.started is False

    def test_reuse_across_run_batch_and_run_grid(self):
        """One spawn serves consecutive runner calls on the shared
        pool — the bug this PR fixes was one spawn *per call*."""
        runner = ScenarioRunner(workers=2, backend="process")
        specs = [get_scenario("night_shift"),
                 get_scenario("sunny_office_worker")]
        runner.run_batch(specs)
        pool = get_shared_pool()
        before = pool.stats
        # The live workers, not the PIDs the first batch happened to
        # see: a fresh pool may serve that batch from one worker.
        live = {child.pid for child in multiprocessing.active_children()}
        runner.run_batch(specs)
        grid = PolicyGrid(name="static_duty_cycle",
                          axes={"rate_per_min": (2.0, 6.0)})
        runner.run_grid(get_scenario("night_shift"), grid)
        after = pool.stats
        assert after.spawns == before.spawns  # no respawns
        assert after.crashes == before.crashes
        assert after.batches == before.batches + 2
        assert pool.last_batch_pids
        assert pool.last_batch_pids <= live  # same worker processes

    def test_worker_death_mid_chunk_surfaces_positions_then_heals(self):
        pool = WorkerPool(workers=1)
        base = get_scenario("night_shift").to_dict()
        items = [spec_delta(base, base),
                 spec_delta(base, get_scenario("outdoor_hiker").to_dict())]
        try:
            with pytest.raises(WorkerCrash) as excinfo:
                pool.run_chunked("scenarios",
                                 {"base": base, "crash": "night_shift"},
                                 items)
            crash = excinfo.value
            assert crash.chunk_count == 1  # capped at the 1-worker pool
            assert list(crash.indices) == [0, 1]
            assert "worker died" in str(crash)
            assert pool.started is False  # broken executor discarded
            assert pool.stats.crashes == 1
            # Self-healing: the next batch respawns and succeeds.
            assert pool.run_chunked("ping", None, [0]) == [None]
            assert pool.stats.spawns == 2
        finally:
            pool.shutdown()

    def test_submit_race_retries_on_fresh_executor(self, monkeypatch):
        """A concurrent crash can shut the executor down between
        lookup and submit; the dispatch must retry once, not fail."""
        pool = WorkerPool(workers=1)
        try:
            pool.warm()
            dead = pool._executor
            dead.shutdown(wait=False, cancel_futures=True)
            pool._executor = None  # what _discard_broken leaves behind
            real_ensure = pool._ensure
            handed_dead = {"done": False}

            def racing_ensure():
                if not handed_dead["done"]:
                    handed_dead["done"] = True
                    return dead
                return real_ensure()

            monkeypatch.setattr(pool, "_ensure", racing_ensure)
            assert pool.run_chunked("ping", None, [0, 1]) == [None, None]
        finally:
            pool.shutdown()


class TestConfiguration:
    def test_worker_count_validation(self):
        with pytest.raises(SpecError, match="at least 1"):
            WorkerPool(workers=0)
        with pytest.raises(SpecError, match="integer"):
            WorkerPool(workers=True)

    def test_workers_env_knob(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_WORKERS", "3")
        assert WorkerPool().workers == 3
        monkeypatch.setenv("REPRO_POOL_WORKERS", "nope")
        with pytest.raises(SpecError, match="REPRO_POOL_WORKERS"):
            WorkerPool()
        monkeypatch.setenv("REPRO_POOL_WORKERS", "0")
        with pytest.raises(SpecError, match="at least 1"):
            WorkerPool()

    def test_fork_is_deliberately_rejected(self, monkeypatch):
        with pytest.raises(SpecError, match="fork"):
            WorkerPool(start_method="fork")
        monkeypatch.setenv("REPRO_POOL_START_METHOD", "fork")
        with pytest.raises(SpecError, match="fork"):
            WorkerPool()

    def test_unsupported_start_method_skipped_cleanly(self, monkeypatch):
        """On a platform without forkserver the pool must refuse with
        a clear SpecError, not crash at first dispatch."""
        import repro.pool as pool_module

        monkeypatch.setattr(pool_module.multiprocessing,
                            "get_all_start_methods", lambda: ["spawn"])
        with pytest.raises(SpecError, match="not supported"):
            WorkerPool(start_method="forkserver")

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="forkserver is unavailable on this platform")
    def test_forkserver_opt_in(self):
        pool = WorkerPool(workers=1, start_method="forkserver")
        try:
            assert pool.stats.start_method == "forkserver"
            assert pool.run_chunked("ping", None, [1, 2]) == [None, None]
        finally:
            pool.shutdown()


CRASH_FLEET = FleetSpec(name="crash_fleet",
                        base_scenario="sunny_office_worker",
                        n_wearers=2, horizon_days=1, seed=3)
CRASH_CHAOS = ChaosSpec(name="crash_chaos",
                        base_scenario="sunny_office_worker",
                        n_cases=1, horizon_days=1, seed=4)
CRASH_POLICIES = (PolicySpec("static_duty_cycle"), PolicySpec("energy_aware"))


def _scenario_batch(backend):
    return ScenarioRunner(workers=2, backend=backend).run_batch(
        [get_scenario("dead_battery_cold_start"),
         get_scenario("night_shift")])


def _fleet_batch(backend):
    return FleetRunner(workers=2, backend=backend).run(CRASH_FLEET)


def _chaos_batch(backend):
    return ChaosRunner(workers=2, backend=backend).run(
        CRASH_CHAOS, policies=CRASH_POLICIES)


#: runner batch, the name the crash hook targets, the name the error
#: must carry.  Each target sits in the first chunk, which the pool
#: reports first, so the named item does not depend on timing.
CRASH_CASES = {
    "scenarios": (_scenario_batch, "dead_battery_cold_start",
                  "'dead_battery_cold_start'"),
    "fleet": (_fleet_batch, "crash_fleet::wearer_0000",
              "'crash_fleet::wearer_0000'"),
    "chaos": (_chaos_batch, case_name(CRASH_CHAOS, 0),
              f"'{case_name(CRASH_CHAOS, 0)} x static_duty_cycle'"),
}


class TestExecute:
    """The one executor behind every runner: crashes and rejections."""

    @pytest.mark.parametrize("backend", ["process", "serial"])
    @pytest.mark.parametrize("kind", sorted(CRASH_CASES))
    def test_worker_crash(self, monkeypatch, kind, backend):
        """On the pool a dead worker surfaces as a SpecError naming the
        scenario / wearer / case x policy it was running; the hook
        never reaches a serial batch, which completes."""
        batch, target, named = CRASH_CASES[kind]
        monkeypatch.setenv("REPRO_WORKER_CRASH", target)
        if backend == "serial":
            assert batch("serial").backend == "serial"
            return
        with pytest.raises(SpecError) as excinfo:
            batch("process")
        message = str(excinfo.value)
        assert "worker died" in message
        assert named in message

    @pytest.mark.parametrize("runner, known", [
        (ScenarioRunner, ["serial", "process"]),
        (FleetRunner, ["serial", "process", "vector"]),
        (ChaosRunner, ["serial", "process"]),
    ], ids=["scenarios", "fleet", "chaos"])
    def test_thread_backend_rejected(self, runner, known):
        with pytest.raises(SpecError) as excinfo:
            runner(backend="thread")
        message = str(excinfo.value)
        assert "unknown backend 'thread'" in message
        assert message.split("known: ", 1)[1] == str(known)

    def test_degenerate_process_batches_run_in_process(self):
        for items, workers in (([1], 4), ([1, 2], 1), ([], 2)):
            results, used = execute("ping", None, items, backend="process",
                                    workers=workers, name_of=str)
            assert used == "serial"
            assert results == [None] * len(items)


class TestSharedPool:
    def test_singleton_until_shutdown(self):
        first = get_shared_pool()
        assert get_shared_pool() is first
        stats = shared_pool_stats()
        assert stats is not None and stats["workers"] == first.workers
        shutdown_shared_pool()
        assert shared_pool_stats() is None  # gone until next use
        recreated = get_shared_pool()
        assert recreated is not first
        assert get_shared_pool() is recreated
