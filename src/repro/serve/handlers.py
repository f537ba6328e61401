"""The serving logic behind each HTTP endpoint, transport-free.

:class:`ServeService` is the whole request/response contract of the
fleet service with no sockets in sight: ``handle(method, path, body)``
returns a :class:`ServeResponse` (status, canonical JSON bytes, cache
state).  The asyncio app (:mod:`repro.serve.app`) is a thin HTTP/1.1
skin over this class, and tests can drive the full routing, caching
and error behaviour without opening a port.

Every simulation endpoint follows the same shape:

1. **normalize** — parse the JSON body into frozen specs
   (``ScenarioSpec.from_dict`` / ``FleetSpec.from_dict`` /
   :func:`~repro.policies.grid.grids_from_mapping`), so key order,
   omitted defaults and library-name-vs-inline-spec differences in the
   client's JSON cannot split the cache;
2. **address** — :func:`~repro.serve.store.request_digest` of the
   normalized request;
3. **serve** — :meth:`~repro.serve.store.ResultStore.fetch_or_compute`
   either returns the stored canonical bytes (bitwise-identical to the
   original response) or runs the simulation on the existing
   :class:`~repro.scenarios.runner.ScenarioRunner` /
   :class:`~repro.fleet.runner.FleetRunner` backends and persists the
   result.

User errors (:class:`~repro.errors.ReproError`) become 400 responses
carrying ``{"error": ...}``; unknown paths 404; wrong methods 405.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.errors import ReproError, SpecError
from repro.fleet.runner import FleetRunner
from repro.fleet.spec import FleetSpec
from repro.policies.grid import PolicyGrid, expand_grids, grids_from_mapping
from repro.scenarios.library import get_scenario, scenario_names
from repro.scenarios.runner import ScenarioRunner, run_scenario
from repro.scenarios.spec import (
    ScenarioSpec,
    canonical_json_bytes,
    check_mapping_keys,
)
from repro.serve.ingest import fit_scenario, records_from_dicts
from repro.serve.store import ResultStore, request_digest

__all__ = ["ServeService", "ServeResponse"]


@dataclass(frozen=True)
class ServeResponse:
    """One finished request: HTTP status, canonical body, cache state.

    ``cache`` is ``"hit"``/``"miss"``/``"coalesced"`` for cacheable
    endpoints and ``""`` for everything else (health, stats, errors);
    the HTTP layer surfaces it as the ``X-Repro-Cache`` header.
    """

    status: int
    body: bytes
    cache: str = ""


def _json_response(payload: Any, status: int = 200,
                   cache: str = "") -> ServeResponse:
    return ServeResponse(status=status,
                         body=canonical_json_bytes(payload) + b"\n",
                         cache=cache)


class ServeService:
    """Routes requests to the simulation backends through the store.

    Args:
        store: the content-addressed :class:`ResultStore` (or a path
            to create one at).
        workers: worker count for the underlying runners.
        backend: sweep backend executing the simulations
            (``"serial"`` by default) — results are
            backend-independent, so this only changes latency.
            ``"process"`` rides the process-wide persistent pool
            (:func:`repro.pool.get_shared_pool`): the workers are
            spawned once for the service's lifetime and reused across
            every request, and ``/stats`` exposes their counters under
            ``"pool"``.
    """

    def __init__(self, store: ResultStore | str, workers: int = 4,
                 backend: str = "serial") -> None:
        self.store = store if isinstance(store, ResultStore) \
            else ResultStore(store)
        self.runner = ScenarioRunner(workers=workers, backend=backend)
        self.fleet_runner = FleetRunner(workers=workers, backend=backend)
        # Transport-layer counters; the HTTP front-end increments these
        # (request timeouts, clients hanging up mid-request, in-flight
        # requests drained at shutdown) and /stats surfaces them.
        self.transport = {"timeouts": 0, "client_disconnects": 0,
                          "drained_at_close": 0}
        self._routes: dict[str, tuple[str, Callable[..., ServeResponse]]] = {
            "/health": ("GET", self._health),
            "/stats": ("GET", self._stats),
            "/scenarios": ("GET", self._scenarios),
            "/simulate": ("POST", self._simulate),
            "/search": ("POST", self._search),
            "/fleet/run": ("POST", self._fleet_run),
            "/fleet/search": ("POST", self._fleet_search),
            "/recommend": ("POST", self._recommend),
            "/ingest": ("POST", self._ingest),
        }

    # -- transport-facing entry point ---------------------------------

    def handle(self, method: str, path: str,
               body: Mapping[str, Any] | None = None) -> ServeResponse:
        """Serve one request; never raises for user-caused failures."""
        route = self._routes.get(path.rstrip("/") or "/")
        if route is None:
            return _json_response(
                {"error": f"unknown path {path!r}",
                 "paths": sorted(self._routes)}, status=404)
        expected, handler = route
        if method != expected:
            return _json_response(
                {"error": f"{path} expects {expected}, got {method}"},
                status=405)
        try:
            if expected == "GET":
                return handler()
            if not isinstance(body, Mapping):
                raise SpecError(
                    f"{path} needs a JSON object body, got "
                    f"{type(body).__name__}")
            return handler(body)
        except ReproError as exc:
            return _json_response({"error": str(exc)}, status=400)

    # -- diagnostics --------------------------------------------------

    def _health(self) -> ServeResponse:
        return _json_response({"status": "ok"})

    def _stats(self) -> ServeResponse:
        # Deferred: the pool is only relevant to process-backed
        # services, and importing it here keeps handlers import-light.
        from repro.pool import shared_pool_stats

        return _json_response({
            "store": self.store.stats.to_dict(),
            "inflight": self.store.inflight,
            "entries": len(self.store),
            "backend": self.runner.backend,
            "workers": self.runner.workers,
            "transport": dict(self.transport),
            # The shared persistent worker pool every process-backed
            # runner dispatches through (None until process work ran).
            "pool": shared_pool_stats(),
        })

    def _scenarios(self) -> ServeResponse:
        return _json_response({"scenarios": scenario_names()})

    # -- request normalization ----------------------------------------

    def _scenario_spec(self, body: Mapping[str, Any]) -> ScenarioSpec:
        """The scenario a request names — library name or inline spec.

        Normalized to ``trace="none"`` (summaries never read the
        trace), so requests differing only in trace mode share one
        cache entry.
        """
        scenario = body.get("scenario")
        if isinstance(scenario, str):
            spec = get_scenario(scenario)
        elif isinstance(scenario, Mapping):
            spec = ScenarioSpec.from_dict(scenario)
        else:
            raise SpecError(
                "request needs a 'scenario': a library name (see "
                "/scenarios) or an inline ScenarioSpec object")
        return dataclasses.replace(spec, trace="none")

    @staticmethod
    def _fleet_spec(body: Mapping[str, Any]) -> FleetSpec:
        spec = body.get("spec")
        if not isinstance(spec, Mapping):
            raise SpecError(
                "request needs a 'spec': an inline FleetSpec object")
        return FleetSpec.from_dict(spec)

    @staticmethod
    def _grids(body: Mapping[str, Any]):
        grids = grids_from_mapping(body.get("grid"),
                                   body.get("policies", ()),
                                   what="request grid")
        if not grids:
            raise SpecError(
                "request needs a 'grid' mapping and/or a 'policies' list")
        return grids

    # -- cacheable endpoints ------------------------------------------

    def _simulate(self, body: Mapping[str, Any]) -> ServeResponse:
        check_mapping_keys("simulate request", body, {"scenario"},
                           required={"scenario"})
        spec = self._scenario_spec(body)
        digest = request_digest("simulate", spec.to_dict())

        def compute() -> bytes:
            outcome = run_scenario(spec)
            return canonical_json_bytes(
                {"spec": spec.to_dict(), "outcome": outcome.to_dict()})

        payload, state = self.store.fetch_or_compute(digest, compute)
        return ServeResponse(status=200, body=payload + b"\n", cache=state)

    def _fetch_study(self, digest_kind: str, subject_key: str,
                     subject: Any, grids: list[PolicyGrid],
                     compute: Callable[[], Any]) -> tuple[bytes, str]:
        """The policy-study fetch: address ``{subject_key: subject,
        candidates}`` under ``digest_kind``, run ``compute`` on a miss."""
        digest = request_digest(digest_kind, {
            subject_key: subject.to_dict(),
            "candidates": [point.to_dict()
                           for _, point in expand_grids(grids)],
        })
        return self.store.fetch_or_compute(
            digest, lambda: canonical_json_bytes(compute()))

    def _search(self, body: Mapping[str, Any]) -> ServeResponse:
        check_mapping_keys("search request", body,
                           {"scenario", "grid", "policies"},
                           required={"scenario"})
        spec = self._scenario_spec(body)
        grids = self._grids(body)
        payload, state = self._fetch_study(
            "search", "scenario", spec, grids,
            lambda: self.runner.run_grid(spec, grids).to_dict())
        return ServeResponse(status=200, body=payload + b"\n", cache=state)

    def _fleet_run(self, body: Mapping[str, Any]) -> ServeResponse:
        check_mapping_keys("fleet run request", body, {"spec"},
                           required={"spec"})
        fleet = self._fleet_spec(body)
        digest = request_digest("fleet_run", fleet.to_dict())

        def compute() -> bytes:
            result = self.fleet_runner.run(fleet)
            return canonical_json_bytes(
                {"spec": fleet.to_dict(), "result": result.to_dict()})

        payload, state = self.store.fetch_or_compute(digest, compute)
        return ServeResponse(status=200, body=payload + b"\n", cache=state)

    def _fleet_search_payload(self,
                              body: Mapping[str, Any]) -> tuple[bytes, str]:
        """The shared fetch behind ``/fleet/search`` and ``/recommend``.

        Both address the same digest, so a recommendation after a
        search (or vice versa) is always a cache hit.
        """
        fleet = self._fleet_spec(body)
        grids = self._grids(body)
        return self._fetch_study(
            "fleet_search", "fleet", fleet, grids,
            lambda: {"spec": fleet.to_dict(),
                     "search": self.fleet_runner.run_grid(
                         fleet, grids).to_dict()})

    def _fleet_search(self, body: Mapping[str, Any]) -> ServeResponse:
        check_mapping_keys("fleet search request", body,
                           {"spec", "grid", "policies"}, required={"spec"})
        payload, state = self._fleet_search_payload(body)
        return ServeResponse(status=200, body=payload + b"\n", cache=state)

    def _recommend(self, body: Mapping[str, Any]) -> ServeResponse:
        """The best-ranked policy for a fleet, from the search cache.

        Answers "which policy should this population run?" by reading
        the top of the ``/fleet/search`` ranking for the same request —
        computed at most once across both endpoints.
        """
        import json as _json

        check_mapping_keys("recommend request", body,
                           {"spec", "grid", "policies"}, required={"spec"})
        payload, state = self._fleet_search_payload(body)
        search = _json.loads(payload)
        best = search["search"]["ranking"][0]
        return _json_response({
            "fleet": search["spec"]["name"],
            "recommendation": {
                "label": best["label"],
                "policy": best["policy"],
                "fraction_energy_neutral":
                    best["result"]["fraction_energy_neutral"],
            },
            "candidates": len(search["search"]["ranking"]),
        }, cache=state)

    def _ingest(self, body: Mapping[str, Any]) -> ServeResponse:
        check_mapping_keys(
            "ingest request", body,
            {"name", "records", "harvester", "ambient_c", "skin_c",
             "detection_tag", "step_s", "description"},
            required={"name", "records"})
        name = body["name"]
        if not isinstance(name, str) or not name:
            raise SpecError("ingest 'name' must be a non-empty string")
        records = records_from_dicts(body["records"], source="records")
        options = {key: body[key] for key in
                   ("harvester", "ambient_c", "skin_c", "detection_tag",
                    "step_s", "description") if key in body}
        digest = request_digest("ingest", {
            "name": name,
            "records": [record.to_dict() for record in records],
            "options": options,
        })

        def compute() -> bytes:
            spec = fit_scenario(records, name, **options)
            return canonical_json_bytes(
                {"spec": spec.to_dict(),
                 "records": len(records),
                 "segments": len(spec.timeline.segments)})

        payload, state = self.store.fetch_or_compute(digest, compute)
        return ServeResponse(status=200, body=payload + b"\n", cache=state)
