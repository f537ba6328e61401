"""Orchestration: manifest, timeout/retry, crash-safe resume, exact
merge.

Most tests inject an in-process task runner (fast, failure-controllable);
one end-to-end test drives real ``python -m repro`` subprocesses to pin
the acceptance property: kill mid-campaign, resume, and the merged
bytes are identical to an uninterrupted run.
"""

import dataclasses
import json

import pytest

from repro.chaos import ChaosRunner, ChaosSpec
from repro.errors import SpecError
from repro.fleet import (
    FleetRunner,
    FleetSpec,
    load_manifest,
    orchestrate,
    plan_manifest,
    write_manifest,
)
from repro.fleet.orchestrate import MANIFEST_NAME
from repro.scenarios.spec import canonical_json

FLEET = FleetSpec(name="orch", base_scenario="sunny_office_worker",
                  n_wearers=4, horizon_days=1, seed=5)
CHAOS = ChaosSpec(name="orchchaos", n_cases=4, horizon_days=1, seed=6)


def _parse_task(argv):
    """(shard_index, shard_count, out_name) from a task's argv."""
    shard = argv[argv.index("--shard") + 1]
    index, count = (int(part) for part in shard.split("/"))
    return index, count, argv[argv.index("--out") + 1]


def make_inprocess_runner(kind, spec, fail_times=None, log=None):
    """A TaskRunner that executes shards in-process.

    ``fail_times[shard_index]`` makes that shard report failure (without
    writing output) that many times before succeeding.
    """
    remaining = dict(fail_times or {})

    def run(argv, cwd, timeout_s):
        index, count, out = _parse_task(argv)
        if log is not None:
            log.append((index, timeout_s))
        if remaining.get(index, 0) > 0:
            remaining[index] -= 1
            return 1, "injected failure"
        if kind == "fleet":
            partial = FleetRunner(workers=1, backend="serial").run(
                spec, shard=(index, count))
        else:
            partial = ChaosRunner(workers=1, backend="serial").run(
                spec, shard=(index, count))
        (cwd / out).write_text(canonical_json(partial.to_dict()) + "\n")
        return 0, ""

    return run


class TestManifest:
    def test_plan_write_load_round_trip(self, tmp_path):
        manifest = plan_manifest("fleet", FLEET, shard_count=2)
        write_manifest(tmp_path, manifest)
        loaded = load_manifest(tmp_path)
        assert loaded == json.loads(canonical_json(manifest))
        assert (tmp_path / "spec.json").is_file()

    def test_task_argvs_are_runnable_cli_lines(self):
        manifest = plan_manifest("chaos", CHAOS, shard_count=2,
                                 workers=3, backend="serial")
        for task in manifest["tasks"]:
            argv = task["argv"]
            assert argv[:2] == ["chaos", "run"]
            assert "--shard" in argv and "--out" in argv
            assert argv[argv.index("--backend") + 1] == "serial"

    def test_unknown_kind_rejected(self):
        with pytest.raises(SpecError, match="kind"):
            plan_manifest("cosmic", FLEET, shard_count=1)

    def test_shard_count_bounded_by_population(self):
        with pytest.raises(SpecError, match="shard count"):
            plan_manifest("fleet", FLEET, shard_count=5)

    def test_invalid_settings_rejected(self):
        with pytest.raises(SpecError, match="max_attempts"):
            plan_manifest("fleet", FLEET, shard_count=1, max_attempts=0)
        with pytest.raises(SpecError, match="timeout"):
            plan_manifest("fleet", FLEET, shard_count=1, timeout_s=0)

    def test_shard_backend_and_workers_checked_at_plan_time(self):
        """A value the shard's `run` subcommand would refuse must fail
        the plan, not burn every shard's retry budget later."""
        with pytest.raises(SpecError, match="unknown backend 'gpu'"):
            plan_manifest("fleet", FLEET, 2, backend="gpu")
        with pytest.raises(SpecError, match="worker count"):
            plan_manifest("fleet", FLEET, 2, workers=0)
        with pytest.raises(SpecError, match="unknown backend 'vector'"):
            plan_manifest("chaos", CHAOS, 2, backend="vector")
        manifest = plan_manifest("fleet", FLEET, 2, backend="vector")
        argv = manifest["tasks"][0]["argv"]
        assert argv[argv.index("--backend") + 1] == "vector"

    def test_missing_manifest_names_path(self, tmp_path):
        with pytest.raises(SpecError, match=MANIFEST_NAME):
            load_manifest(tmp_path)

    def test_corrupt_manifest_rejected(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SpecError, match="JSON"):
            load_manifest(tmp_path)


class TestOrchestrate:
    def test_clean_run_merges_exactly(self, tmp_path):
        write_manifest(tmp_path, plan_manifest("fleet", FLEET,
                                               shard_count=2))
        summary = orchestrate(
            tmp_path, runner=make_inprocess_runner("fleet", FLEET))
        assert summary["ran"] == 2 and summary["reused"] == 0
        merged = json.loads((tmp_path / "merged.json").read_text())
        unsharded = FleetRunner(workers=1, backend="serial").run(FLEET)
        assert canonical_json(merged) == canonical_json(
            {"spec": FLEET.to_dict(), "result": unsharded.to_dict()})

    def test_chaos_campaign_reports_verdicts(self, tmp_path):
        write_manifest(tmp_path, plan_manifest("chaos", CHAOS,
                                               shard_count=2))
        summary = orchestrate(
            tmp_path, runner=make_inprocess_runner("chaos", CHAOS))
        assert summary["kind"] == "chaos"
        assert sum(summary["verdicts"].values()) > 0

    def test_transient_failures_retry_with_backoff(self, tmp_path):
        write_manifest(tmp_path, plan_manifest(
            "fleet", FLEET, shard_count=2, backoff_s=0.5))
        delays = []
        summary = orchestrate(
            tmp_path,
            runner=make_inprocess_runner("fleet", FLEET,
                                         fail_times={0: 2}),
            sleep=delays.append)
        assert summary["ran"] == 2
        assert delays == [0.5, 1.0]  # exponential: base, then doubled

    def test_exhausted_budget_raises_and_keeps_state(self, tmp_path):
        write_manifest(tmp_path, plan_manifest(
            "fleet", FLEET, shard_count=2, max_attempts=2, backoff_s=0.0))
        with pytest.raises(SpecError, match="shard 0 failed after 2"):
            orchestrate(tmp_path,
                        runner=make_inprocess_runner(
                            "fleet", FLEET, fail_times={0: 99}),
                        sleep=lambda s: None)
        manifest = load_manifest(tmp_path)
        statuses = {task["id"]: task["status"]
                    for task in manifest["tasks"]}
        assert statuses == {0: "failed", 1: "done"}
        # Resume with a healed runner: only the failed shard re-runs.
        log = []
        summary = orchestrate(tmp_path,
                              runner=make_inprocess_runner(
                                  "fleet", FLEET, log=log))
        assert summary["reused"] == 1 and summary["ran"] == 1
        assert [index for index, _ in log] == [0]

    def test_timeout_forwarded_to_runner(self, tmp_path):
        write_manifest(tmp_path, plan_manifest(
            "fleet", FLEET, shard_count=1, timeout_s=77.0))
        log = []
        orchestrate(tmp_path, runner=make_inprocess_runner(
            "fleet", FLEET, log=log))
        assert log[0][1] == 77.0

    def test_success_without_output_counts_as_failure(self, tmp_path):
        write_manifest(tmp_path, plan_manifest(
            "fleet", FLEET, shard_count=1, max_attempts=1))

        def liar(argv, cwd, timeout_s):
            return 0, ""  # exits 0 but writes nothing

        with pytest.raises(SpecError, match="failed after 1"):
            orchestrate(tmp_path, runner=liar, sleep=lambda s: None)

    def test_corrupt_done_shard_is_demoted_and_rerun(self, tmp_path):
        write_manifest(tmp_path, plan_manifest("fleet", FLEET,
                                               shard_count=2))
        runner = make_inprocess_runner("fleet", FLEET)
        orchestrate(tmp_path, runner=runner)
        # Corrupt one shard's evidence behind the manifest's back.
        (tmp_path / "part0000.json").write_text("{torn write")
        log = []
        summary = orchestrate(tmp_path, runner=make_inprocess_runner(
            "fleet", FLEET, log=log))
        assert summary["reused"] == 1 and summary["ran"] == 1
        assert [index for index, _ in log] == [0]

    def test_resumed_merge_is_bitwise_identical(self, tmp_path):
        clean = tmp_path / "clean"
        interrupted = tmp_path / "interrupted"
        for workspace in (clean, interrupted):
            write_manifest(workspace, plan_manifest("chaos", CHAOS,
                                                    shard_count=2))
        orchestrate(clean, runner=make_inprocess_runner("chaos", CHAOS))

        # "Kill" the first run after one shard: the runner raises on
        # the second task, mid-campaign.
        calls = {"n": 0}
        real = make_inprocess_runner("chaos", CHAOS)

        def dies_after_one(argv, cwd, timeout_s):
            calls["n"] += 1
            if calls["n"] > 1:
                raise KeyboardInterrupt  # orchestrator process dies
            return real(argv, cwd, timeout_s)

        with pytest.raises(KeyboardInterrupt):
            orchestrate(interrupted, runner=dies_after_one)
        log = []
        summary = orchestrate(interrupted, runner=make_inprocess_runner(
            "chaos", CHAOS, log=log))
        assert summary["reused"] == 1  # the finished shard, never redone
        assert [index for index, _ in log] == [1]
        assert ((clean / "merged.json").read_bytes()
                == (interrupted / "merged.json").read_bytes())


class TestSubprocessEndToEnd:
    """The real thing: shard tasks as `python -m repro` subprocesses."""

    def test_kill_and_resume_matches_uninterrupted(self, tmp_path):
        tiny = dataclasses.replace(FLEET, n_wearers=2)
        clean = tmp_path / "clean"
        interrupted = tmp_path / "interrupted"
        for workspace in (clean, interrupted):
            write_manifest(workspace, plan_manifest(
                "fleet", tiny, shard_count=2, workers=1,
                backend="serial"))
        clean_summary = orchestrate(clean)

        # Run shard 0 for real, then "crash" before shard 1.
        from repro.fleet.orchestrate import _default_runner

        calls = {"n": 0}

        def crash_after_one(argv, cwd, timeout_s):
            calls["n"] += 1
            if calls["n"] > 1:
                raise KeyboardInterrupt
            return _default_runner(argv, cwd, timeout_s)

        with pytest.raises(KeyboardInterrupt):
            orchestrate(interrupted, runner=crash_after_one)
        summary = orchestrate(interrupted)  # real subprocess runner
        assert summary["reused"] == 1 and summary["ran"] == 1
        assert summary["sha256"] == clean_summary["sha256"]
        assert ((clean / "merged.json").read_bytes()
                == (interrupted / "merged.json").read_bytes())
