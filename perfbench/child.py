"""The process that runs a fleet workload against the public API.

Started by ``run.py``, never by hand.  Modes:

* ``setup`` — import what the workload uses (and warm the shared pool
  for ``fleet_search_pool``), print ``ready``, exit;
* ``oracle`` — print the serial scalar backend's canonical-JSON digest;
* ``measure`` — set up, print ``ready``, run one untimed warm-up, then
  either time runs for ``--seconds`` (``--trace 0``) or time a few
  untraced runs and one traced run (``--trace 1``).

Every run's canonical-JSON SHA-256 is checked against ``--expect``.
The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import statistics
import sys
import time


def peak_rss_kb() -> float:
    """This process's peak resident set size, in KiB."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    import resource
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


class FleetWorkload:
    """One fleet workload: its runner, its operation and its check."""

    def __init__(self, name: str, inputs: dict) -> None:
        from repro.fleet import FleetSpec
        from repro.policies.grid import grids_from_mapping
        from repro.scenarios.spec import canonical_json_bytes

        self.name = name
        # Bound before any wrapper is installed: checking a result is
        # not part of the traced run.
        self._encode = canonical_json_bytes
        self.fleet = FleetSpec.from_dict(inputs["fleet"])
        self.grids = (grids_from_mapping(inputs["grid"])
                      if inputs["grid"] else None)
        self.pool = None
        self.runner = None
        self.warm_s = 0.0

    def start(self) -> None:
        """Make the program ready to take work (warms the pool)."""
        from repro.fleet import FleetRunner

        if self.name == "fleet_search_pool":
            from repro.pool import get_shared_pool

            self.pool = get_shared_pool()
            self.runner = FleetRunner(workers=self.pool.workers,
                                      backend="process")
            self.warm_s = self.pool.warm()
        else:
            self.runner = FleetRunner(backend="vector")

    def run(self, runner=None):
        runner = runner or self.runner
        if self.grids is None:
            return runner.run(self.fleet)
        return runner.run_grid(self.fleet, self.grids)

    def digest(self, result) -> str:
        return hashlib.sha256(self._encode(result.to_dict())).hexdigest()

    def oracle(self) -> str:
        from repro.fleet import FleetRunner

        return self.digest(self.run(FleetRunner(backend="serial")))

    def pool_info(self) -> dict:
        if self.pool is None:
            return {}
        stats = self.pool.stats.to_dict()
        return {"workers": stats["workers"],
                "start_method": stats["start_method"]}

    def close(self) -> None:
        """Stop the pool's workers and wait until each has exited."""
        if self.pool is None:
            return
        self.pool.shutdown()
        for child in multiprocessing.active_children():
            child.join(timeout=30)
            if child.is_alive():
                child.kill()
                child.join(timeout=10)


def timed(workload: FleetWorkload, expect: str) -> tuple[float, bool]:
    started = time.perf_counter()
    result = workload.run()
    elapsed = time.perf_counter() - started
    return elapsed, workload.digest(result) == expect


def measure(workload: FleetWorkload, seconds: float, expect: str) -> dict:
    checks = [timed(workload, expect)[1]]  # warm-up: caches, lazy imports
    latencies = []
    started = time.perf_counter()
    while not latencies or time.perf_counter() - started < seconds:
        elapsed, ok = timed(workload, expect)
        latencies.append(elapsed)
        checks.append(ok)
    return {"latencies_s": latencies, "checks": checks,
            "peak_rss_kb": peak_rss_kb()}


def measure_traced(workload: FleetWorkload, seconds: float,
                   expect: str) -> dict:
    from spans import Tracer, instrument, layer_metrics

    checks = [timed(workload, expect)[1]]
    untraced = []
    started = time.perf_counter()
    while len(untraced) < 3 or time.perf_counter() - started < seconds / 2:
        elapsed, ok = timed(workload, expect)
        untraced.append(elapsed)
        checks.append(ok)
    pool_before = workload.pool.stats if workload.pool else None
    tracer = Tracer()
    patches = instrument(tracer)
    try:
        root = tracer.begin("run", workload=workload.name)
        result = workload.run()
        tracer.end(root)
    finally:
        patches.undo()
    checks.append(workload.digest(result) == expect)
    dump = tracer.dump()
    metrics = layer_metrics(dump)
    wall = root["end"] - root["start"]
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - statistics.median(untraced)
    # Wall time outside every layer span (the tracer's own sizing
    # spans count as covered: their cost shows in the overhead).
    metrics["trace.unattributed_s"] = wall - root["child_s"]
    metrics["pool.warm_s"] = workload.warm_s
    if pool_before is not None:
        after = workload.pool.stats
        for field in ("spawns", "crashes", "batches", "chunks", "tasks"):
            metrics[f"pool.{field}"] = (getattr(after, field)
                                        - getattr(pool_before, field))
    return {"layers": metrics, "checks": checks, "trace": dump,
            "untraced_s": untraced}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--mode", choices=("setup", "oracle", "measure"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--expect", default="")
    args = parser.parse_args(argv)
    with open(args.inputs) as handle:
        inputs = json.load(handle)

    workload = FleetWorkload(args.workload, inputs)
    try:
        if args.mode == "oracle":
            print(json.dumps({"digest": workload.oracle()}), flush=True)
            return 0
        workload.start()
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        if args.trace:
            report = measure_traced(workload, args.seconds, args.expect)
        else:
            report = measure(workload, args.seconds, args.expect)
        report["pool"] = workload.pool_info()
        print(json.dumps(report), flush=True)
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    sys.exit(main())
