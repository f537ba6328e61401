"""One executor for every batch, over a persistent shared worker pool.

:func:`execute` is the only code that decides how a batch runs.
Scenario sweeps and policy grids
(:class:`~repro.scenarios.runner.ScenarioRunner`), fleet runs, shards,
comparisons and grids (:class:`~repro.fleet.runner.FleetRunner`) and
chaos campaigns (:class:`~repro.chaos.campaign.ChaosRunner`) all hand
it a chunk-handler ``kind``, a shared context and per-item payloads.
``serial`` batches, and degenerate ones (one item or one worker), call
the handler in-process; ``process`` batches go through the shared
:class:`WorkerPool`.  Both paths run the same handler over the same
payloads, so results are identical whichever backend ran them.

The process backend used to lose to serial: every ``run_batch`` /
``run_grid`` / ``FleetRunner.run`` / ``ChaosRunner.run`` call spawned
a fresh ``ProcessPoolExecutor`` (interpreter start + ``import repro``
per worker, per call) and shipped one full JSON spec per future, so
pool setup and payload shipping swamped the simulations
(``BENCH_sim_throughput.json`` recorded 2.47 scenarios/s against
174.75 serial).  :class:`WorkerPool` fixes the dispatch granularity:

* **Persistent** — the pool is created once (lazily, on first use)
  and reused by every process-backed call in the process: scenario
  sweeps, policy grids, fleet runs, chaos campaigns and the serve
  layer all share :func:`get_shared_pool`.  Workers warm the heavy
  ``repro`` imports in their initializer, so the spawn cost is paid
  once per process lifetime instead of once per call.
* **Chunked** — a batch is split into *strided* chunks (chunk ``c``
  of ``C`` owns items ``c, c+C, c+2C, ...``), one future per chunk
  instead of one per item, and results are reassembled in input
  order.  Striding keeps chunks balanced for any batch size, exactly
  like fleet sharding.
* **Broadcast** — the batch's shared context (the base scenario, the
  fleet spec, the campaign spec) ships once per chunk, not once per
  item; per-item payloads are deltas or bare indices.  A 500-wearer
  fleet run ships the ``FleetSpec`` a handful of times and two small
  integer lists per chunk — workers rematerialize their own wearers
  from ``random.Random(seed + index)``, which is deterministic, so
  the canonical-JSON contract across backends is untouched.

Worker death (OOM, signal) breaks a ``ProcessPoolExecutor``
permanently; the pool detects ``BrokenProcessPool``, discards the
broken executor so the *next* batch self-heals onto fresh workers,
and raises :class:`WorkerCrash` carrying the dead chunk's item
positions, which :func:`execute` turns into a :class:`SpecError`
naming the scenarios, wearers or runs that were in flight.

Start methods: ``spawn`` (the default — identical registry-visibility
semantics on every platform) or the opt-in ``forkserver``
(``REPRO_POOL_START_METHOD=forkserver``), which forks workers from a
clean preloaded server process for cheaper respawns on POSIX.  Plain
``fork`` is deliberately not offered: forked workers would inherit the
parent's runtime registrations and silently break the process
backend's import-time-registry contract.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from repro.errors import RegistryError, ReproError, SpecError
from repro.pool.worker import resolve_handler, run_chunk

__all__ = [
    "BACKENDS",
    "PoolStats",
    "WorkerCrash",
    "WorkerPool",
    "check_backend",
    "check_workers",
    "execute",
    "get_shared_pool",
    "shared_pool_stats",
    "shutdown_shared_pool",
]

#: The batch backends :func:`execute` accepts.
BACKENDS = ("serial", "process")

#: Start methods the pool accepts.  ``fork`` is excluded on purpose:
#: forked workers see the parent's runtime registrations, which would
#: make process-backend behaviour platform-dependent.
START_METHODS = ("spawn", "forkserver")

#: Environment knobs (read at :class:`WorkerPool` construction).
WORKERS_ENV = "REPRO_POOL_WORKERS"
START_METHOD_ENV = "REPRO_POOL_START_METHOD"

#: Test hook: a worker that picks up the item with this name exits
#: abruptly (see :func:`repro.pool.worker.crash_hook`).
CRASH_ENV = "REPRO_WORKER_CRASH"


def default_workers() -> int:
    """The shared pool's default size: ``REPRO_POOL_WORKERS`` if set,
    else the machine's CPU count."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    if raw:
        try:
            workers = int(raw)
        except ValueError:
            raise SpecError(
                f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
        if workers < 1:
            raise SpecError(
                f"{WORKERS_ENV} must be at least 1, got {workers}")
        return workers
    return os.cpu_count() or 1


@dataclass(frozen=True)
class PoolStats:
    """Counters describing a pool's lifetime (what ``/stats`` shows).

    Attributes:
        spawns: executors created — 1 for the whole process unless a
            worker crash forced a respawn.
        batches: chunked dispatches executed.
        chunks: chunk futures submitted across all batches.
        tasks: items carried by those chunks.
        crashes: ``BrokenProcessPool`` incidents survived.
    """

    workers: int
    start_method: str
    spawns: int = 0
    batches: int = 0
    chunks: int = 0
    tasks: int = 0
    crashes: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "workers": self.workers,
            "start_method": self.start_method,
            "spawns": self.spawns,
            "batches": self.batches,
            "chunks": self.chunks,
            "tasks": self.tasks,
            "crashes": self.crashes,
        }


class WorkerCrash(ReproError):
    """A worker died mid-chunk and broke the pool.

    Carries the positions (indices into the dispatched item list) of
    the chunk that was in flight, so the call site can name the
    scenarios/cases the dead worker was responsible for.  The pool has
    already discarded the broken executor; the next batch respawns.
    """

    def __init__(self, indices: Sequence[int], chunk_index: int,
                 chunk_count: int) -> None:
        self.indices = tuple(indices)
        self.chunk_index = chunk_index
        self.chunk_count = chunk_count
        super().__init__(
            f"worker died while running chunk {chunk_index + 1} of "
            f"{chunk_count} ({len(self.indices)} tasks)")


class WorkerPool:
    """A persistent spawned-worker pool with chunked dispatch.

    Args:
        workers: pool size; defaults to ``REPRO_POOL_WORKERS`` or the
            CPU count.
        start_method: ``"spawn"`` (default) or ``"forkserver"``
            (honours ``REPRO_POOL_START_METHOD`` when omitted); must
            be supported by the platform.

    The underlying executor is created lazily on first dispatch (or
    :meth:`warm`) and survives until :meth:`shutdown` — callers never
    pay the spawn cost more than once unless a worker crash forces a
    respawn.
    """

    def __init__(self, workers: int | None = None,
                 start_method: str | None = None) -> None:
        if workers is None:
            workers = default_workers()
        if isinstance(workers, bool) or not isinstance(workers, int):
            raise SpecError(f"worker count must be an integer, "
                            f"got {workers!r}")
        if workers < 1:
            raise SpecError(f"worker count must be at least 1, "
                            f"got {workers}")
        if start_method is None:
            start_method = os.environ.get(START_METHOD_ENV, "").strip() \
                or "spawn"
        if start_method not in START_METHODS:
            raise SpecError(
                f"unknown pool start method {start_method!r}; known: "
                f"{list(START_METHODS)} (fork is deliberately excluded "
                "— forked workers would leak runtime registrations)")
        if start_method not in multiprocessing.get_all_start_methods():
            raise SpecError(
                f"start method {start_method!r} is not supported on "
                f"this platform; available: "
                f"{multiprocessing.get_all_start_methods()}")
        self.workers = workers
        self.start_method = start_method
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._spawns = 0
        self._batches = 0
        self._chunks = 0
        self._tasks = 0
        self._crashes = 0
        self._last_batch_pids: frozenset[int] = frozenset()

    # -- lifecycle ----------------------------------------------------

    def _ensure(self) -> ProcessPoolExecutor:
        """The live executor, created under the lock on first use."""
        with self._lock:
            if self._executor is None:
                from repro.pool.worker import warm_worker

                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers,
                    mp_context=multiprocessing.get_context(
                        self.start_method),
                    initializer=warm_worker)
                self._spawns += 1
            return self._executor

    def _discard_broken(self, executor: ProcessPoolExecutor) -> None:
        """Drop a broken executor so the next batch respawns fresh."""
        with self._lock:
            if self._executor is executor:
                self._executor = None
                self._crashes += 1
        executor.shutdown(wait=False, cancel_futures=True)

    @property
    def started(self) -> bool:
        """True once workers exist (and have not crashed away)."""
        with self._lock:
            return self._executor is not None

    def warm(self) -> float:
        """Spawn the workers now; returns the wall seconds it took.

        Dispatches one trivial chunk per worker so every worker is
        forked/spawned and has finished its warm-up imports before the
        first real batch is timed.  Calling it on a warm pool is a
        cheap ping round.
        """
        started = time.perf_counter()
        self.run_chunked("ping", None, list(range(self.workers)),
                         chunks=self.workers)
        return time.perf_counter() - started

    def shutdown(self) -> None:
        """Tear the workers down (the next dispatch would respawn)."""
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    # -- dispatch -----------------------------------------------------

    def run_chunked(self, kind: str, context: Any,
                    items: Iterable[Any], *,
                    chunks: int | None = None) -> list[Any]:
        """Run ``items`` through the ``kind`` chunk handler, chunked.

        Args:
            kind: a handler key from :mod:`repro.pool.worker`.
            context: the batch's shared payload, shipped once per
                chunk (the broadcast half of the protocol).
            items: per-item payloads (deltas, indices); must be
                picklable, conventionally JSON-ready.
            chunks: ceiling on the number of chunks; the effective
                count never exceeds the pool size or ``len(items)``
                (splitting finer than the workers would only multiply
                dispatch overhead).

        Returns:
            The handlers' per-item results, reassembled in input
            order.

        Raises:
            WorkerCrash: a worker died; carries the positions of the
                chunk that was in flight.  The pool self-heals on the
                next call.
        """
        items = list(items)
        if not items:
            return []
        count = max(1, min(len(items), self.workers,
                           self.workers if chunks is None else chunks))
        executor = self._ensure()
        payloads = [
            {"kind": kind, "context": context, "items": items[c::count]}
            for c in range(count)
        ]
        try:
            futures = [executor.submit(run_chunk, payload)
                       for payload in payloads]
        except RuntimeError:
            # A concurrent crash shut this executor down between
            # _ensure() and submit(); retry once on a fresh one.
            executor = self._ensure()
            futures = [executor.submit(run_chunk, payload)
                       for payload in payloads]
        results: list[Any] = [None] * len(items)
        batch_pids: set[int] = set()
        for c, future in enumerate(futures):
            try:
                chunk = future.result()
            except BrokenProcessPool:
                self._discard_broken(executor)
                raise WorkerCrash(indices=range(c, len(items), count),
                                  chunk_index=c,
                                  chunk_count=count) from None
            batch_pids.add(chunk["pid"])
            results[c::count] = chunk["results"]
        with self._lock:
            self._batches += 1
            self._chunks += count
            self._tasks += len(items)
            self._last_batch_pids = frozenset(batch_pids)
        return results

    # -- observability ------------------------------------------------

    @property
    def stats(self) -> PoolStats:
        """A consistent snapshot of the lifetime counters."""
        with self._lock:
            return PoolStats(
                workers=self.workers,
                start_method=self.start_method,
                spawns=self._spawns,
                batches=self._batches,
                chunks=self._chunks,
                tasks=self._tasks,
                crashes=self._crashes,
            )

    @property
    def last_batch_pids(self) -> frozenset[int]:
        """The worker PIDs that served the most recent batch."""
        with self._lock:
            return self._last_batch_pids


# -- the process-wide shared pool -------------------------------------

_shared: WorkerPool | None = None
_shared_lock = threading.Lock()


def get_shared_pool() -> WorkerPool:
    """The process-wide pool every process-backed call path shares.

    Created lazily on first use with the environment defaults
    (``REPRO_POOL_WORKERS`` / ``REPRO_POOL_START_METHOD``) and torn
    down at interpreter exit.  Every process-backed :func:`execute`
    call — from ``ScenarioRunner``, ``FleetRunner``, ``ChaosRunner``
    and the serve layer — dispatches through this one pool, so a
    long-lived service pays the worker spawn cost exactly once.
    """
    global _shared
    with _shared_lock:
        if _shared is None:
            _shared = WorkerPool()
        return _shared


def shutdown_shared_pool() -> None:
    """Tear down the shared pool (the next use recreates it)."""
    global _shared
    with _shared_lock:
        pool, _shared = _shared, None
    if pool is not None:
        pool.shutdown()


def shared_pool_stats() -> dict[str, Any] | None:
    """The shared pool's stats without forcing its creation (or
    ``None`` when no process-backed work has run yet)."""
    with _shared_lock:
        pool = _shared
    return None if pool is None else pool.stats.to_dict()


atexit.register(shutdown_shared_pool)


# -- the executor -------------------------------------------------------


def check_backend(backend: str, known: Sequence[str] = BACKENDS) -> str:
    """``backend`` if it is one of ``known``, else a :class:`SpecError`
    listing them."""
    if backend not in known:
        raise SpecError(
            f"unknown backend {backend!r}; known: {list(known)}")
    return backend


def check_workers(workers: int) -> int:
    """``workers`` if it is a positive integer, else a :class:`SpecError`."""
    if isinstance(workers, bool) or not isinstance(workers, int) \
            or workers < 1:
        raise SpecError(f"worker count must be at least 1, got {workers!r}")
    return workers


def _span(names: Sequence[str]) -> str:
    if len(names) <= 3:
        return ", ".join(repr(name) for name in names)
    return f"{names[0]!r} .. {names[-1]!r} ({len(names)} items)"


def execute(kind: str, context: dict[str, Any], items: Iterable[Any], *,
            backend: str, workers: int,
            name_of: Callable[[int], str]) -> tuple[list[Any], str]:
    """Run one batch through the ``kind`` chunk handler.

    Args:
        kind: a handler key from :data:`repro.pool.worker.HANDLERS`.
        context: the batch's shared payload (a dict).
        items: per-item payloads.
        backend: ``"serial"`` or ``"process"``.
        workers: parallelism ceiling for the process backend.
        name_of: maps an item's position to the name errors show
            (scenario, wearer, case x policy).

    Returns:
        ``(results, effective_backend)``: the handler's per-item
        results in input order, and ``"serial"`` whenever the batch
        ran in-process — including a ``process`` request with at most
        one item or one worker, which never pays pool overhead.

    Raises:
        SpecError: unknown backend, bad worker count, a worker that
            died mid-chunk, or a component a worker could not resolve
            (runtime registrations are invisible to spawned workers).
            A worker crash names the items it hit via ``name_of``; a
            registry miss names the missing component.
    """
    check_backend(backend)
    check_workers(workers)
    items = list(items)
    if backend == "serial" or len(items) <= 1 or workers == 1:
        return resolve_handler(kind)(context, items), "serial"
    crash = os.environ.get(CRASH_ENV)
    if crash:
        context = {**context, "crash": crash}
    try:
        results = get_shared_pool().run_chunked(
            kind, context, items, chunks=min(workers, len(items)))
    except WorkerCrash as exc:
        names = [name_of(i) for i in exc.indices]
        raise SpecError(
            f"process-backend worker died while running chunk "
            f"{exc.chunk_index + 1}/{exc.chunk_count} — {_span(names)}. "
            "A worker killed mid-batch (OOM, signal) breaks the pool "
            "this way, as does a launching script without the standard "
            "`if __name__ == '__main__':` guard (spawned workers "
            "re-import it; stdin/REPL sessions cannot be re-imported); "
            "see the chained exception. The shared pool respawns on the "
            "next batch; the serial backend avoids both.") from exc
    except RegistryError as exc:
        raise SpecError(
            "a component in this batch cannot run on the process "
            f"backend: {exc}. "
            "Worker processes import repro fresh, so only components "
            "registered at import time are visible; runtime "
            "@register_* registrations require the serial backend."
        ) from None
    return results, "process"
