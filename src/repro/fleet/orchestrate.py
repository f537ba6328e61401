"""Resilient shard orchestration: manifest, retry, resume, merge.

``repro fleet orchestrate`` drives a sharded campaign — a fleet
population study or a chaos campaign — as a set of independent
subprocess tasks with a *manifest* file recording progress.  The
design goals, in order:

1. **Crash-safe**: the manifest and every shard output are written
   atomically (temp file + rename), so a killed orchestrator never
   leaves a half-written file that poisons a resume.
2. **Resume-exact**: on restart the orchestrator re-validates every
   shard output on disk against the manifest's spec and reuses the
   valid ones; only missing or corrupt shards re-run.  Because shard
   merging is the fleet's merge-exact reduction, a resumed campaign's
   merged payload is bitwise-identical to an uninterrupted run.
3. **Fault-tolerant**: each shard runs under a wall-clock timeout and
   a bounded retry budget with exponential backoff, so one wedged
   worker cannot hang the campaign and one flaky failure does not
   abort it.

Tasks are ordinary ``repro`` CLI invocations (``fleet run --shard`` /
``chaos run --shard``), so a manifest is also a recipe a human — or a
different machine per shard — can execute by hand.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.errors import SpecError
from repro.fleet.runner import BACKENDS as FLEET_BACKENDS
from repro.fleet.spec import FleetSpec
from repro.pool import BACKENDS as POOL_BACKENDS
from repro.pool import check_backend, check_workers
from repro.scenarios.spec import canonical_json, check_mapping_keys
from repro.shard import check_shard

__all__ = ["plan_manifest", "write_manifest", "load_manifest",
           "orchestrate", "MANIFEST_NAME"]

MANIFEST_NAME = "manifest.json"
SPEC_NAME = "spec.json"
MERGED_NAME = "merged.json"

KINDS = ("fleet", "chaos")

#: The ``--backend`` values each shard's ``run`` subcommand accepts.
SHARD_BACKENDS = {"fleet": FLEET_BACKENDS, "chaos": POOL_BACKENDS}
TASK_STATUSES = ("pending", "done", "failed")

#: ``runner(argv, cwd, timeout_s) -> (returncode, detail)`` — the
#: injectable task executor.  ``argv`` is the ``repro`` subcommand
#: line (no interpreter prefix).
TaskRunner = Callable[[list[str], Path, float], tuple[int, str]]


def _atomic_write(path: Path, text: str) -> None:
    """Write via a sibling temp file + rename so readers (and resumes)
    never observe a torn file."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def _spec_of(kind: str, payload: Mapping[str, Any]):
    if kind == "fleet":
        return FleetSpec.from_dict(payload)
    from repro.chaos import ChaosSpec

    return ChaosSpec.from_dict(payload)


def _task_count_of(kind: str, spec) -> int:
    return spec.n_wearers if kind == "fleet" else spec.n_cases


def plan_manifest(kind: str, spec, shard_count: int,
                  timeout_s: float = 600.0, max_attempts: int = 3,
                  backoff_s: float = 1.0, workers: int = 1,
                  backend: str = "serial") -> dict[str, Any]:
    """The manifest payload for a fresh campaign.

    Args:
        kind: ``"fleet"`` or ``"chaos"``.
        spec: the :class:`~repro.fleet.spec.FleetSpec` or
            :class:`~repro.chaos.ChaosSpec` to shard.
        shard_count: how many shard tasks to partition into.
        timeout_s: per-shard wall-clock ceiling.
        max_attempts: total tries per shard (1 = no retry).
        backoff_s: base of the exponential retry backoff
            (``backoff_s * 2**(attempt - 1)`` seconds).
        workers / backend: forwarded to each shard's ``--workers`` /
            ``--backend``; checked here against what the shard's
            ``run`` subcommand accepts, so a bad value fails at plan
            time instead of in every shard's retries.
    """
    if kind not in KINDS:
        raise SpecError(f"unknown campaign kind {kind!r}; known: "
                        f"{list(KINDS)}")
    check_backend(backend, SHARD_BACKENDS[kind])
    check_workers(workers)
    check_shard((0, shard_count))
    population = _task_count_of(kind, spec)
    if shard_count > population:
        raise SpecError(
            f"shard count must lie in [1, {population}] for this "
            f"{kind} campaign, got {shard_count}")
    if max_attempts < 1:
        raise SpecError(f"max_attempts must be at least 1, "
                        f"got {max_attempts}")
    if timeout_s <= 0:
        raise SpecError(f"timeout must be positive, got {timeout_s}")
    if backoff_s < 0:
        raise SpecError(f"backoff must be non-negative, got {backoff_s}")
    subcommand = ["fleet", "run"] if kind == "fleet" else ["chaos", "run"]
    tasks = []
    for index in range(shard_count):
        out = f"part{index:04d}.json"
        argv = subcommand + [
            SPEC_NAME, "--shard", f"{index}/{shard_count}", "--out", out,
            "--workers", str(workers), "--backend", backend,
        ]
        tasks.append({"id": index, "argv": argv, "out": out,
                      "status": "pending", "attempts": 0})
    return {
        "kind": kind,
        "spec": spec.to_dict(),
        "shard_count": shard_count,
        "timeout_s": float(timeout_s),
        "max_attempts": int(max_attempts),
        "backoff_s": float(backoff_s),
        "merged_out": MERGED_NAME,
        "tasks": tasks,
    }


def write_manifest(workspace: str | Path,
                   manifest: Mapping[str, Any]) -> Path:
    """Materialise a campaign workspace: the manifest plus the spec
    file every shard task reads.  Returns the manifest path."""
    workspace = Path(workspace)
    workspace.mkdir(parents=True, exist_ok=True)
    _atomic_write(workspace / SPEC_NAME,
                  canonical_json(manifest["spec"]) + "\n")
    path = workspace / MANIFEST_NAME
    _atomic_write(path, canonical_json(dict(manifest)) + "\n")
    return path


def load_manifest(workspace: str | Path) -> dict[str, Any]:
    """The validated manifest of an existing workspace."""
    path = Path(workspace) / MANIFEST_NAME
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise SpecError(f"cannot read manifest {path}: {exc}") from None
    except ValueError as exc:
        raise SpecError(f"manifest {path} is not valid JSON: "
                        f"{exc}") from None
    if not isinstance(payload, dict):
        raise SpecError(f"manifest {path} must be a JSON object, got "
                        f"{type(payload).__name__}")
    required = ("kind", "spec", "shard_count", "timeout_s",
                "max_attempts", "backoff_s", "merged_out", "tasks")
    payload = check_mapping_keys("manifest", payload, known=required,
                                 required=required)
    if payload["kind"] not in KINDS:
        raise SpecError(f"manifest {path}: unknown kind "
                        f"{payload['kind']!r}; known: {list(KINDS)}")
    tasks = payload["tasks"]
    if not isinstance(tasks, list) or not tasks:
        raise SpecError(f"manifest {path} has no tasks")
    task_keys = ("id", "argv", "out", "status", "attempts")
    for task in tasks:
        check_mapping_keys("manifest task", task, known=task_keys,
                           required=task_keys)
        if task["status"] not in TASK_STATUSES:
            raise SpecError(
                f"manifest {path}: task {task['id']} has unknown status "
                f"{task['status']!r}; known: {list(TASK_STATUSES)}")
    _spec_of(payload["kind"], payload["spec"])  # validates the spec
    return payload


def _load_partial(kind: str, path: Path):
    if kind == "fleet":
        from repro.fleet.result import load_partial_file

        return load_partial_file(path)
    from repro.chaos import PartialCampaignResult, load_campaign_result

    partial = load_campaign_result(path)
    if not isinstance(partial, PartialCampaignResult):
        raise SpecError(f"{path} holds a full campaign result, not a "
                        "shard")
    return partial


def _validate_shard_output(manifest: Mapping[str, Any], task, spec,
                           workspace: Path) -> object | None:
    """The shard's partial result if its output file is present and
    consistent with the manifest; ``None`` otherwise."""
    path = workspace / task["out"]
    if not path.is_file():
        return None
    try:
        partial = _load_partial(manifest["kind"], path)
    except SpecError:
        return None
    if (partial.spec != spec
            or partial.shard_index != task["id"]
            or partial.shard_count != manifest["shard_count"]):
        return None
    return partial


def _default_runner(argv: list[str], cwd: Path,
                    timeout_s: float) -> tuple[int, str]:
    """Run one shard as ``python -m repro ...`` under a timeout.

    The child runs with the workspace as its working directory (so the
    manifest's relative paths resolve), which would break a relative
    ``PYTHONPATH`` — so the parent's own ``repro`` location is pinned
    absolutely on the child's path.
    """
    import repro

    package_root = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = (package_root + os.pathsep + existing
                         if existing else package_root)
    command = [sys.executable, "-m", "repro", *argv]
    try:
        proc = subprocess.run(command, cwd=cwd, timeout=timeout_s,
                              capture_output=True, text=True, env=env)
    except subprocess.TimeoutExpired:
        return 124, f"timed out after {timeout_s:g} s"
    detail = (proc.stderr or proc.stdout or "").strip().splitlines()
    return proc.returncode, detail[-1] if detail else ""


def _merge(kind: str, partials):
    if kind == "fleet":
        from repro.fleet.result import FleetResult

        return FleetResult.merge(partials)
    from repro.chaos import CampaignResult

    return CampaignResult.merge(partials)


def orchestrate(workspace: str | Path,
                runner: TaskRunner | None = None,
                sleep: Callable[[float], None] = time.sleep,
                echo: Callable[[str], None] | None = None,
                ) -> dict[str, Any]:
    """Run (or resume) a campaign workspace to completion and merge.

    Reconciliation happens before anything runs: a shard whose output
    file already exists and validates against the manifest is marked
    done and **never re-simulated** — this is what makes killing the
    orchestrator mid-campaign recoverable.  Conversely a shard marked
    done whose output is missing or corrupt is demoted and re-run.

    Args:
        workspace: the directory holding ``manifest.json``.
        runner: injectable task executor (tests); defaults to a
            ``python -m repro`` subprocess per shard.
        sleep: injectable backoff sleep (tests).
        echo: optional progress line sink (the CLI passes ``print``).

    Returns:
        A summary dict: kind, shard counts (``reused`` / ``ran`` /
        ``failed``), the merged payload path and its SHA-256 digest,
        and for chaos campaigns the judged verdict totals.

    Raises:
        SpecError: when any shard exhausts its retry budget — the
            manifest keeps the failure state so a later resume retries
            only the failed shards.
    """
    workspace = Path(workspace)
    manifest = load_manifest(workspace)
    kind = manifest["kind"]
    spec = _spec_of(kind, manifest["spec"])
    run = runner if runner is not None else _default_runner
    say = echo if echo is not None else (lambda line: None)

    def persist() -> None:
        _atomic_write(workspace / MANIFEST_NAME,
                      canonical_json(manifest) + "\n")

    # Reconcile the manifest against what is actually on disk.
    partials: dict[int, object] = {}
    reused = 0
    for task in manifest["tasks"]:
        partial = _validate_shard_output(manifest, task, spec, workspace)
        if partial is not None:
            if task["status"] != "done":
                task["status"] = "done"
            partials[task["id"]] = partial
            reused += 1
        else:
            # Missing or corrupt evidence: (re-)run with a fresh retry
            # budget — each orchestrate invocation grants unfinished
            # shards the full max_attempts, so resuming after an
            # exhausted budget actually retries.
            task["status"] = "pending"
            task["attempts"] = 0
    persist()
    if reused:
        say(f"resume: {reused}/{len(manifest['tasks'])} shard(s) "
            "already on disk, reusing")

    ran = 0
    failures: list[str] = []
    for task in manifest["tasks"]:
        if task["status"] == "done":
            continue
        succeeded = False
        while task["attempts"] < manifest["max_attempts"]:
            attempt = task["attempts"] + 1
            if attempt > 1:
                delay = manifest["backoff_s"] * 2 ** (attempt - 2)
                if delay > 0:
                    say(f"shard {task['id']}: backing off "
                        f"{delay:g} s before attempt {attempt}")
                    sleep(delay)
            task["attempts"] = attempt
            persist()
            say(f"shard {task['id']}: attempt {attempt}/"
                f"{manifest['max_attempts']}")
            code, detail = run(list(task["argv"]), workspace,
                               manifest["timeout_s"])
            if code == 0:
                partial = _validate_shard_output(manifest, task, spec,
                                                 workspace)
                if partial is not None:
                    task["status"] = "done"
                    partials[task["id"]] = partial
                    persist()
                    ran += 1
                    succeeded = True
                    break
                detail = (f"exited 0 but {task['out']} is missing or "
                          "inconsistent with the manifest")
            say(f"shard {task['id']}: attempt {attempt} failed "
                f"(exit {code}{': ' + detail if detail else ''})")
        if not succeeded:
            task["status"] = "failed"
            persist()
            failures.append(
                f"shard {task['id']} failed after "
                f"{task['attempts']} attempt(s)")
    if failures:
        raise SpecError(
            "campaign incomplete: " + "; ".join(failures)
            + ". Finished shards are kept; re-run `repro fleet "
            "orchestrate --resume` on the same directory to retry "
            "only the failures.")

    ordered = [partials[task["id"]] for task in manifest["tasks"]]
    merged = _merge(kind, ordered)
    if kind == "fleet":
        payload = {"spec": spec.to_dict(), "result": merged.to_dict()}
    else:
        payload = merged.to_dict()
    text = canonical_json(payload) + "\n"
    merged_path = workspace / manifest["merged_out"]
    _atomic_write(merged_path, text)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()

    summary: dict[str, Any] = {
        "kind": kind,
        "shard_count": manifest["shard_count"],
        "reused": reused,
        "ran": ran,
        "merged_out": str(merged_path),
        "sha256": digest,
    }
    if kind == "chaos":
        summary["verdicts"] = merged.counts()
    return summary
