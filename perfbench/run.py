"""Repo benchmark: fleet, pooled-search and serve workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet_jittered --seed 1 \\
        --seconds 10 --trace 0

Workloads (``BENCHMARK.json`` says why each exists):

* ``fleet_jittered`` — ``FleetRunner(backend="vector").run`` on a
  ``daily_jitter`` fleet;
* ``fleet_cohort`` — the same engine on an ``identity`` cohort;
* ``fleet_search_pool`` — ``FleetRunner(backend="process").run_grid``
  through the shared worker pool;
* ``serve_mixed`` — one closed-loop HTTP client against
  ``repro serve --backend serial`` (a fresh store per server).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of one traced run.  Every run is checked: fleet
results against the serial scalar backend's canonical-JSON SHA-256
(computed once per input and cached under ``perfbench/_out/oracle``),
serve responses by status, ``X-Repro-Cache`` state and byte identity
of repeats.  The last stdout line is the result object; the line before
it carries the run's provenance.  Outputs land in ``perfbench/_out``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

from spans import LAYER_METRICS, layer_metrics, span_seconds
from workloads import (SERVE_TRACE_REQUESTS, SERVE_WINDOW, fleet_inputs,
                       serve_requests, wearer_days)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORKLOADS = ("fleet_jittered", "fleet_cohort", "fleet_search_pool",
             "serve_mixed")
#: Setup samples per run (the measuring process plus probes).
SETUP_SAMPLES = 3
#: Pool size: at most the machine's CPUs, capped to stay small.
POOL_WORKERS = max(1, min(os.cpu_count() or 1, 4))
#: Wall-clock ceiling for any one child process.
CHILD_TIMEOUT_S = 170.0

END_TO_END = (
    ("setup_s", "s"), ("wearer_days_per_s", "1/s"),
    ("requests_per_s", "1/s"), ("hit_latency_p50_ms", "ms"),
    ("miss_latency_p50_ms", "ms"), ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["REPRO_POOL_WORKERS"] = str(POOL_WORKERS)
    env.pop("REPRO_WORKER_CRASH", None)
    return env


def launch(args: list[str]) -> tuple[float | None, str]:
    """Run ``child.py``; returns (seconds until ``ready``, last line)."""
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                            stdout=subprocess.PIPE, text=True,
                            env=program_env(), cwd=ROOT)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    ready = None
    last = ""
    try:
        for line in proc.stdout:
            if ready is None and line.strip() == "ready":
                ready = time.perf_counter() - started
            elif line.strip():
                last = line
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"child {args[:4]} exited with {proc.returncode}")
    return ready, last


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int, seconds: float, trace: int,
               pool: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass

    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "unknown"

    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "git_commit": commit,
        "source_sha256": source_digest(), "nproc": os.cpu_count(),
        "cpu_model": cpu_model, "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"),
        "pool": {"used": bool(pool), **(pool or {
            "workers": POOL_WORKERS,
            "start_method": os.environ.get("REPRO_POOL_START_METHOD")
            or "spawn"})},
    }


# -- fleet workloads ----------------------------------------------------------


def oracle_digest(workload: str, inputs_path: Path, inputs: dict) -> str:
    """The serial scalar backend's digest for ``inputs`` (cached)."""
    key = hashlib.sha256(json.dumps(
        {"workload": workload, "inputs": inputs, "source": source_digest()},
        sort_keys=True).encode()).hexdigest()
    cached = OUT / "oracle" / f"{key}.json"
    if cached.exists():
        return json.loads(cached.read_text())["digest"]
    _, line = launch(["--workload", workload, "--inputs", str(inputs_path),
                      "--mode", "oracle"])
    digest = json.loads(line)["digest"]
    cached.parent.mkdir(parents=True, exist_ok=True)
    cached.write_text(json.dumps({"digest": digest, "inputs": inputs}))
    return digest


def run_fleet(workload: str, seed: int, seconds: float, trace: int,
              ) -> tuple[dict, dict]:
    inputs = fleet_inputs(workload, seed)
    inputs_path = OUT / "inputs" / f"{workload}-seed{seed}.json"
    inputs_path.parent.mkdir(parents=True, exist_ok=True)
    inputs_path.write_text(json.dumps(inputs, sort_keys=True))
    expect = oracle_digest(workload, inputs_path, inputs)
    common = ["--workload", workload, "--inputs", str(inputs_path)]

    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            ready, _ = launch([*common, "--mode", "setup"])
            setups.append(ready)
    ready, line = launch([*common, "--mode", "measure", "--seconds",
                          str(seconds), "--trace", str(trace),
                          "--expect", expect])
    setups.append(ready)
    report = json.loads(line)
    report["setup_samples_s"] = setups
    report["expect"] = expect
    if trace:
        return report, report.pop("layers")
    # Every run repeats identical work, so run-to-run variation is host
    # interference: fleet timings are best-of-k (the fastest run).  The
    # library keeps no result cache, so a repeated request costs a full
    # run: hit, miss and tail latency all report that run latency.
    best = min(report["latencies_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wearer_days_per_s": wearer_days(inputs) / best,
        "requests_per_s": 1.0 / best,
        "hit_latency_p50_ms": best * 1e3,
        "miss_latency_p50_ms": best * 1e3,
        "latency_p95_ms": best * 1e3,
        "peak_rss_mb": report["peak_rss_kb"] / 1024,
    }
    return report, metrics


# -- serve_mixed ----------------------------------------------------------------


class Server:
    """One ``serve_entry.py`` process with a fresh store."""

    count = 0

    def __init__(self, trace: bool) -> None:
        Server.count += 1
        self.dir = OUT / "serve" / f"{os.getpid()}-{Server.count}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.report = self.dir / "report.json"
        self.trace = trace
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Start the server; returns seconds until ``/health`` answers."""
        args = [sys.executable, str(HERE / "serve_entry.py"),
                "--store", str(self.dir / "store"),
                "--report", str(self.report)]
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            args + (["--trace"] if self.trace else []),
            stdout=subprocess.PIPE, text=True, env=program_env(), cwd=ROOT)
        watchdog = threading.Timer(60.0, self.proc.kill)
        watchdog.start()
        line = self.proc.stdout.readline()
        watchdog.cancel()
        marker = "listening on http://127.0.0.1:"
        if marker not in line:
            self.stop()
            raise BenchError(f"server did not start: {line!r}")
        self.port = int(line.split(marker, 1)[1].split()[0])
        status = send(self.port, "GET", "/health", None)[1]
        if status != 200:
            self.stop()
            raise BenchError(f"/health answered {status}")
        return time.perf_counter() - started

    def stop(self) -> dict | None:
        """SIGINT, wait, and return the server's exit report (if any)."""
        proc = self.proc
        if proc is not None and proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc is not None:
            proc.stdout.close()
        try:
            report = json.loads(self.report.read_text())
        except (OSError, ValueError):
            report = None
        shutil.rmtree(self.dir, ignore_errors=True)
        return report


def send(port: int, method: str, path: str, body: bytes | None,
         ) -> tuple[float, int, str, bytes]:
    """One request on its own connection: (seconds, status, cache, body)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        started = time.perf_counter()
        connection.request(method, path, body=body,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        data = response.read()
        elapsed = time.perf_counter() - started
    finally:
        connection.close()
    return elapsed, response.status, response.getheader("X-Repro-Cache", ""), data


def request_wearer_days(request: dict, data: bytes) -> float:
    """Simulated wearer-days one served response covers."""
    payload = json.loads(data)
    if request["path"] == "/simulate":
        return payload["outcome"]["duration_s"] / 86400.0
    spec = json.loads(request["body"])["spec"]
    days = spec["n_wearers"] * spec["horizon_days"]
    if request["path"] == "/fleet/run":
        return float(days)
    if request["path"] == "/fleet/search":
        return float(days * len(payload["search"]["ranking"]))
    return float(days * payload["candidates"])


def drive(port: int, seed: int, seconds: float | None = None,
          count: int | None = None) -> dict:
    """Closed loop over the seeded stream until time or count runs out.

    Per request it records the send offset from the loop start, the
    latency, whether it repeats an earlier request, whether it passed
    its check and the simulated wearer-days its response covers.
    """
    first: dict[tuple[str, bytes], bytes] = {}
    record = {"sent_s": [], "latencies_s": [], "repeats": [], "checks": [],
              "wearer_days": []}
    started = time.perf_counter()
    for request in serve_requests(seed):
        sent = time.perf_counter() - started
        elapsed, status, cache, data = send(port, "POST", request["path"],
                                            request["body"])
        key = (request["path"], request["body"])
        ok = status == 200 and cache == ("hit" if request["repeat"]
                                         else "miss")
        if request["repeat"]:
            ok = ok and data == first.get(key)
        else:
            first[key] = data
        record["sent_s"].append(sent)
        record["latencies_s"].append(elapsed)
        record["repeats"].append(request["repeat"])
        record["checks"].append(ok)
        record["wearer_days"].append(
            request_wearer_days(request, data) if status == 200 else 0.0)
        if count is not None and len(record["checks"]) >= count:
            break
        if seconds is not None and time.perf_counter() - started >= seconds:
            break
    return record


def window_metrics(record: dict, lo: int, hi: int) -> dict[str, float]:
    """Closed-loop metrics over requests ``lo:hi`` of one pass."""
    latencies = record["latencies_s"][lo:hi]
    repeats = record["repeats"][lo:hi]
    wall = record["sent_s"][hi - 1] + latencies[-1] - record["sent_s"][lo]
    hits = [lat for lat, rep in zip(latencies, repeats) if rep]
    misses = [lat for lat, rep in zip(latencies, repeats) if not rep]
    return {
        "wearer_days_per_s": sum(record["wearer_days"][lo:hi]) / wall,
        "requests_per_s": len(latencies) / wall,
        "hit_latency_p50_ms": statistics.median(hits) * 1e3,
        "miss_latency_p50_ms": statistics.median(misses) * 1e3,
        "latency_p95_ms": percentile(latencies, 95) * 1e3,
    }


def run_serve(seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    if trace:
        return run_serve_traced(seed)
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        server = Server(trace=False)
        try:
            setups.append(server.start())
        finally:
            server.stop()
    server = Server(trace=False)
    try:
        setups.append(server.start())
        record = drive(server.port, seed, seconds=seconds)
    finally:
        exit_report = server.stop()
    if exit_report is None:
        raise BenchError("server exited without its report")
    # Host interference comes in episodes of seconds, so the loop is cut
    # into windows of SERVE_WINDOW consecutive requests (whole cycles of
    # the same mix) and each metric reports its best window.
    total = len(record["checks"])
    bounds = [(lo, lo + SERVE_WINDOW) for lo in
              range(0, total - SERVE_WINDOW + 1, SERVE_WINDOW)] or [(0, total)]
    windows = [window_metrics(record, lo, hi) for lo, hi in bounds]
    metrics = {"setup_s": statistics.median(setups),
               "peak_rss_mb": exit_report["peak_rss_kb"] / 1024}
    for name in windows[0]:
        pick = max if name.endswith("_per_s") else min
        metrics[name] = pick(window[name] for window in windows)
    samples = []
    for (lo, hi), window in zip(bounds, windows):
        hits = sum(record["repeats"][lo:hi])
        tail = window["latency_p95_ms"] / 1e3
        samples.append({"requests": hi - lo, "hits": hits,
                        "misses": hi - lo - hits,
                        "beyond_p95": sum(lat > tail for lat in
                                          record["latencies_s"][lo:hi])})
    report = {**record, "setup_samples_s": setups, "windows": windows,
              "window_samples": samples}
    return report, metrics


def run_serve_traced(seed: int) -> tuple[dict, dict]:
    """One untraced and one traced pass over the same fixed requests."""
    passes = []
    for traced in (False, True):
        server = Server(trace=traced)
        try:
            server.start()
            loop = drive(server.port, seed, count=SERVE_TRACE_REQUESTS)
        finally:
            exit_report = server.stop()
        if exit_report is None:
            raise BenchError("server exited without its report")
        passes.append((loop, exit_report))
    (plain, _), (loop, exit_report) = passes
    dump = exit_report["trace"]
    roots = [span for span in dump["spans"]
             if span["name"] == "serve.handle" and span["path"] != "/health"]
    traces = {span["trace"] for span in roots}
    metrics = {name: 0.0 for name, _ in LAYER_METRICS}
    metrics.update(layer_metrics(dump, traces))
    wall = sum(loop["latencies_s"])
    handled = span_seconds(dump, "serve.handle", traces)
    metrics["serve.transport_s"] = wall - handled
    metrics["trace.wall_s"] = wall
    metrics["trace.overhead_s"] = wall - sum(plain["latencies_s"])
    metrics["trace.unattributed_s"] = wall - handled
    report = {"checks": plain["checks"] + loop["checks"], "trace": dump,
              "requests": len(roots)}
    return report, metrics


# -- entry point ----------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              "from a full checkout of the repository", file=sys.stderr)
        return 2

    if args.workload == "serve_mixed":
        report, metrics = run_serve(args.seed, args.seconds, args.trace)
    else:
        report, metrics = run_fleet(args.workload, args.seed, args.seconds,
                                    args.trace)
    checks = report["checks"]
    failed = sum(not ok for ok in checks)
    units = dict(LAYER_METRICS if args.trace else END_TO_END)
    if args.trace:
        metrics = {name: metrics.get(name, 0.0) for name in units}
        if args.workload == "fleet_search_pool":
            report["note"] = ("parent-side spans only (pool, reduce, json): "
                              "worker-side layers are not traced")
    report["error_rate"] = failed / len(checks)
    prov = provenance(args.workload, args.seed, args.seconds, args.trace,
                      report.get("pool") or {})
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps(
        {"provenance": prov, "metrics": metrics, "report": report}))
    if report.get("note"):
        print(f"note: {report['note']}")
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
