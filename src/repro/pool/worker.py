"""Worker-side entry points for :class:`~repro.pool.WorkerPool`.

A chunk crosses the process boundary as one plain dict::

    {"kind": "<handler>", "context": <shared payload>, "items": [...]}

``run_chunk`` resolves the handler named by ``kind`` (lazily, so
worker start-up never imports subsystems a batch does not use),
executes it over the chunk's items, and returns::

    {"pid": <worker pid>, "results": [<one result per item>]}

The PID ride-along is what makes pool persistence *observable*:
callers (tests, the bench, ``/stats``) can assert that consecutive
batches were served by the same workers instead of trusting timing.

Handlers are pure functions ``(context, items) -> list`` of
JSON-ready values, registered here by dotted name.  They run
unchanged in-process too — :func:`repro.pool.execute` calls them
directly for serial batches, and the chunked-vs-unchunked
bitwise-identity tests do the same — so the worker boundary adds no
semantics, only transport.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Callable, Sequence

from repro.errors import SpecError

__all__ = ["crash_hook", "resolve_handler", "run_chunk", "warm_worker"]

#: kind -> "module:function" of the handler executing one chunk.
#: Resolved lazily inside the worker; every handler module must be
#: importable from a fresh ``import repro`` (the process backend's
#: registry-visibility contract).
HANDLERS = {
    "ping": "repro.pool.worker:ping_chunk",
    "scenarios": "repro.scenarios.runner:run_scenario_chunk",
    "fleet": "repro.fleet.population:run_wearer_chunk",
    "chaos": "repro.chaos.campaign:run_chaos_chunk",
}


def warm_worker() -> None:  # pragma: no cover - runs in spawned workers
    """Pool initializer: pay the heavy imports at spawn, not dispatch.

    Pulls in the three chunk-handler subsystems (which transitively
    import the engine, the registries and the policy layer) so the
    first real batch meets fully-warmed workers.
    """
    import repro.chaos.campaign  # noqa: F401
    import repro.fleet.population  # noqa: F401
    import repro.scenarios.runner  # noqa: F401


def ping_chunk(context: Any, items: Sequence[Any]) -> list[Any]:
    """The no-op handler behind :meth:`WorkerPool.warm`."""
    return [None for _ in items]


def crash_hook(context: Any, name: str) -> None:
    """Die like an OOM-killed worker if ``context`` names ``name``.

    The ``REPRO_WORKER_CRASH`` test hook: :func:`repro.pool.execute`
    copies the variable into the chunk context on the pool path only,
    so a serial (in-process) batch can never ``os._exit`` its caller,
    and persistent workers spawned before the variable was set still
    see it.
    """
    if context.get("crash") == name:
        os._exit(13)


def resolve_handler(kind: str) -> Callable[[Any, Sequence[Any]], list]:
    try:
        target = HANDLERS[kind]
    except KeyError:
        raise SpecError(
            f"unknown chunk kind {kind!r}; known: "
            f"{sorted(HANDLERS)}") from None
    module_name, _, attribute = target.partition(":")
    return getattr(importlib.import_module(module_name), attribute)


def run_chunk(payload: dict) -> dict:
    """Execute one chunk; the single function every pool future runs."""
    handler = resolve_handler(payload["kind"])
    return {
        "pid": os.getpid(),
        "results": handler(payload["context"], payload["items"]),
    }
