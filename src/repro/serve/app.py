"""Asyncio HTTP/1.1 front-end for :class:`~repro.serve.handlers.ServeService`.

Pure stdlib — ``asyncio.start_server`` accepts connections, a small
hand-rolled HTTP/1.1 parser reads one request per connection
(``Connection: close`` semantics), and the simulation work runs in a
thread-pool executor so the event loop stays responsive while a fleet
sweeps.  Concurrent identical requests reach the store from separate
executor threads and coalesce onto one computation
(:meth:`~repro.serve.store.ResultStore.fetch_or_compute`).

Three ways to run it:

* :func:`serve_forever` — the blocking entry point behind
  ``repro serve``;
* :class:`ServerThread` — a context manager that runs the whole stack
  on a background thread and exposes the bound port; what the tests,
  the benchmark and the smoke check use;
* :func:`run_smoke` — an end-to-end self-check (start server, submit a
  tiny fleet twice, assert the resubmission is a bitwise-identical
  cache hit) behind ``repro serve --smoke`` and the CI smoke job.

Responses carry ``X-Repro-Cache: hit|miss|coalesced`` on cacheable
endpoints so clients (and the smoke check) can observe the store
without trusting timing.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Mapping

from repro.errors import SpecError
from repro.serve.handlers import ServeResponse, ServeService
from repro.serve.store import ResultStore

__all__ = ["ReproServer", "ServerThread", "http_request", "run_smoke",
           "serve_forever"]

#: Request bodies above this are rejected with 413 before parsing.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: A request line longer than this (terminator included) is rejected
#: with 414; a longer header line, or more header lines than
#: :data:`MAX_HEADER_LINES`, with 431.
MAX_HEADER_LINE_BYTES = 8 * 1024
MAX_HEADER_LINES = 100

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            414: "URI Too Long",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error", 504: "Gateway Timeout"}


def _error(status: int, message: str) -> ServeResponse:
    """A ``{"error": message}`` JSON response (ASCII: ``json.dumps``
    escapes everything else)."""
    return ServeResponse(
        status=status,
        body=json.dumps({"error": message}).encode("ascii") + b"\n")


async def _capped_line(reader: asyncio.StreamReader) -> bytes | None:
    """One line, or None when it is longer than
    :data:`MAX_HEADER_LINE_BYTES` (terminator included)."""
    try:
        line = await reader.readline()
    except ValueError:  # longer than the stream's buffer limit
        return None
    return line if len(line) <= MAX_HEADER_LINE_BYTES else None


def _render(response: ServeResponse) -> bytes:
    """One full HTTP/1.1 response, headers + body."""
    reason = _REASONS.get(response.status, "Unknown")
    head = [f"HTTP/1.1 {response.status} {reason}",
            "Content-Type: application/json",
            f"Content-Length: {len(response.body)}"]
    if response.cache:
        head.append(f"X-Repro-Cache: {response.cache}")
    head.append("Connection: close")
    return ("\r\n".join(head) + "\r\n\r\n").encode("ascii") + response.body


class ReproServer:
    """The asyncio server: owns the listening socket and the executor.

    Args:
        service: the transport-free request handler.
        host / port: bind address; port ``0`` picks a free ephemeral
            port (read it back from :attr:`port` after :meth:`start`).
        request_workers: executor threads handling requests — the
            concurrency ceiling for simultaneous simulations (requests
            beyond it queue; identical ones coalesce in the store).
        request_timeout_s: wall-clock ceiling per request; a request
            still running after this long gets a 504 JSON error (the
            worker thread finishes in the background — its result may
            still land in the store for the retry to hit).  ``None``
            (the default) means no ceiling.  The same ceiling bounds
            the shutdown drain: :meth:`close` stops accepting, then
            waits up to this long for accepted requests to finish
            instead of dropping them mid-computation.
    """

    def __init__(self, service: ServeService, host: str = "127.0.0.1",
                 port: int = 0, request_workers: int = 8,
                 request_timeout_s: float | None = None) -> None:
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise SpecError(
                f"request timeout must be positive, got {request_timeout_s}")
        self.service = service
        self.host = host
        self.request_timeout_s = request_timeout_s
        self._requested_port = port
        self._server: asyncio.base_events.Server | None = None
        self._inflight: set[asyncio.Task] = set()
        self._executor = ThreadPoolExecutor(
            max_workers=request_workers,
            thread_name_prefix="repro-serve")

    @property
    def port(self) -> int:
        """The bound port (only meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise SpecError("server is not listening yet")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self._requested_port)

    async def close(self) -> None:
        """Stop accepting, drain in-flight requests, then tear down.

        Accepted requests keep running for up to ``request_timeout_s``
        (unbounded when no timeout is configured — matching the
        per-request ceiling) so a shutdown never drops a simulation
        mid-computation; each request that finishes during the drain
        is counted under ``/stats`` ``"transport"``
        ``"drained_at_close"``.  Only then is the executor torn down,
        cancelling whatever the drain deadline left behind.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = {task for task in self._inflight if not task.done()}
        if pending:
            done, _ = await asyncio.wait(pending,
                                         timeout=self.request_timeout_s)
            self.service.transport["drained_at_close"] += len(done)
        self._executor.shutdown(wait=False, cancel_futures=True)

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    # -- one connection = one request ---------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            # Tracked so close() can drain accepted requests instead
            # of dropping them mid-computation.
            self._inflight.add(task)
            task.add_done_callback(self._inflight.discard)
        try:
            response = await self._read_and_dispatch(reader)
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.LimitOverrunError):
            # Client went away (or sent an unframeable request) before
            # we had a response: nothing to write, count it and move on
            # — a flaky client must never produce traceback spam.
            self.service.transport["client_disconnects"] += 1
            response = None
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            response = _error(500, f"internal error: {exc}")
        try:
            if response is not None:
                writer.write(_render(response))
                await writer.drain()
        except (ConnectionError, RuntimeError):
            # Hung up mid-response (after the simulation ran).
            self.service.transport["client_disconnects"] += 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    async def _read_and_dispatch(
            self, reader: asyncio.StreamReader) -> ServeResponse:
        raw_line = await _capped_line(reader)
        if raw_line is None:
            return _error(414, "request line too long")
        request_line = raw_line.decode("latin-1").strip()
        if not request_line:
            raise ConnectionError("empty request")
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            return _error(400, "malformed request line")
        method, target = parts[0].upper(), parts[1]
        path = target.split("?", 1)[0]

        content_length = 0
        header_lines = 0
        while True:
            raw_line = await _capped_line(reader)
            if raw_line is None:
                return _error(431, "request header line too long")
            line = raw_line.decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            header_lines += 1
            if header_lines > MAX_HEADER_LINES:
                return _error(431, "too many request header lines")
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    content_length = -1
                if content_length < 0:
                    return _error(400, "bad Content-Length")
        if content_length > MAX_BODY_BYTES:
            return _error(413, "request body too large")

        body: Mapping[str, Any] | None = None
        if content_length > 0:
            raw = await reader.readexactly(content_length)
            try:
                parsed = json.loads(raw)
            except (ValueError, RecursionError) as exc:  # too deep to parse
                return _error(400, f"invalid JSON body: {exc}")
            body = parsed if isinstance(parsed, Mapping) else None
            if body is None and method == "POST":
                return _error(400, "request body must be a JSON object")

        # Simulations can take seconds; keep the loop free to accept
        # (and coalesce) concurrent requests while they run.
        loop = asyncio.get_running_loop()
        work = loop.run_in_executor(
            self._executor, self.service.handle, method, path, body)
        if self.request_timeout_s is None:
            return await work
        try:
            return await asyncio.wait_for(work, self.request_timeout_s)
        except TimeoutError:
            self.service.transport["timeouts"] += 1
            return _error(504, f"request timed out after "
                               f"{self.request_timeout_s:g} s")


class ServerThread:
    """A live server on a background thread, for tests and benchmarks.

    ::

        with ServerThread(service) as server:
            status, headers, body = http_request(
                "127.0.0.1", server.port, "GET", "/health")

    The context manager owns the event loop end to end: entering
    starts the loop thread and waits until the socket is bound;
    leaving closes the server and joins the thread.
    """

    def __init__(self, service: ServeService, host: str = "127.0.0.1",
                 port: int = 0, request_workers: int = 8,
                 request_timeout_s: float | None = None) -> None:
        self.server = ReproServer(service, host=host, port=port,
                                  request_workers=request_workers,
                                  request_timeout_s=request_timeout_s)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-serve-loop")
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.server.start())
        except BaseException as exc:  # surface bind failures to __enter__
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.run_until_complete(self.server.close())
            self._loop.close()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait()
        if self._startup_error is not None:
            raise SpecError(
                f"serve failed to start: {self._startup_error}")
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join()

    @property
    def host(self) -> str:
        return self.server.host

    @property
    def port(self) -> int:
        return self.server.port


def http_request(host: str, port: int, method: str, path: str,
                 payload: Any = None, timeout: float = 120.0,
                 ) -> tuple[int, dict[str, str], bytes]:
    """One request against a running server, via :mod:`http.client`.

    Returns ``(status, headers, body)`` with header names lowercased —
    ``headers.get("x-repro-cache")`` reads the cache outcome.
    """
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return (response.status,
                {name.lower(): value for name, value in
                 response.getheaders()},
                response.read())
    finally:
        connection.close()


def serve_forever(store_root: str, host: str = "127.0.0.1",
                  port: int = 8751, workers: int = 4,
                  backend: str = "serial",
                  request_timeout_s: float | None = None,
                  ) -> None:  # pragma: no cover
    """Blocking entry point behind ``repro serve``."""
    service = ServeService(ResultStore(store_root), workers=workers,
                           backend=backend)
    server = ReproServer(service, host=host, port=port,
                         request_timeout_s=request_timeout_s)

    async def _main() -> None:
        await server.start()
        bound = server.port
        print(f"repro serve: listening on http://{host}:{bound} "
              f"(store {store_root}, backend {backend}, "
              f"workers {workers})", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.close()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        print("repro serve: stopped", flush=True)


def run_smoke(store_root: str, workers: int = 2,
              backend: str = "serial") -> dict[str, Any]:
    """End-to-end self-check: tiny fleet, twice, second must be a hit.

    Starts a real server on an ephemeral port, POSTs one small
    ``/fleet/run`` request twice, and asserts the resubmission is
    served from the store with bitwise-identical bytes.  Raises
    :class:`~repro.errors.SpecError` on any deviation; returns a small
    summary dict on success (what ``repro serve --smoke`` prints).
    """
    request = {"spec": {"name": "smoke", "base_scenario":
                        "sunny_office_worker", "n_wearers": 3,
                        "horizon_days": 1, "seed": 7}}
    service = ServeService(ResultStore(store_root), workers=workers,
                           backend=backend)
    with ServerThread(service) as server:
        status, _, health = http_request(server.host, server.port,
                                         "GET", "/health")
        if status != 200 or json.loads(health)["status"] != "ok":
            raise SpecError(f"smoke: /health returned {status}")
        first = http_request(server.host, server.port, "POST",
                             "/fleet/run", request)
        second = http_request(server.host, server.port, "POST",
                              "/fleet/run", request)
        for label, (code, headers, _) in (("first", first),
                                          ("second", second)):
            if code != 200:
                raise SpecError(f"smoke: {label} request returned {code}")
        if first[1].get("x-repro-cache") != "miss":
            raise SpecError("smoke: first request was not a cache miss "
                            f"({first[1].get('x-repro-cache')!r})")
        if second[1].get("x-repro-cache") != "hit":
            raise SpecError("smoke: resubmission was not a cache hit "
                            f"({second[1].get('x-repro-cache')!r})")
        if first[2] != second[2]:
            raise SpecError(
                "smoke: cache hit bytes differ from the original result")
        _, _, stats = http_request(server.host, server.port,
                                   "GET", "/stats")
    store_stats = json.loads(stats)["store"]
    return {
        "ok": True,
        "cache": [first[1]["x-repro-cache"], second[1]["x-repro-cache"]],
        "bitwise_identical": True,
        "hits": store_stats["hits"],
        "misses": store_stats["misses"],
    }
