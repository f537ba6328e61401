"""The HTTP service end to end: routing, caching, errors, smoke."""

import json
import socket
import threading
import time

import pytest

from repro.fleet import FleetRunner, FleetSpec
from repro.scenarios import get_scenario
from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import canonical_json_bytes
from repro.serve import (
    ResultStore,
    ServeService,
    ServerThread,
    http_request,
    run_smoke,
)
from repro.serve.app import (
    MAX_BODY_BYTES,
    MAX_HEADER_LINE_BYTES,
    MAX_HEADER_LINES,
)

TINY_FLEET = {"name": "tiny", "base_scenario": "sunny_office_worker",
              "n_wearers": 3, "horizon_days": 1, "seed": 11}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    """One live server (and its store) shared by the module's tests."""
    store = ResultStore(tmp_path_factory.mktemp("store"))
    service = ServeService(store, workers=2, backend="serial")
    with ServerThread(service) as live:
        yield live


def _request(server, method, path, payload=None):
    return http_request(server.host, server.port, method, path, payload)


class TestDiagnostics:
    def test_health(self, server):
        status, _, body = _request(server, "GET", "/health")
        assert status == 200
        assert json.loads(body) == {"status": "ok"}

    def test_scenarios_lists_library(self, server):
        status, _, body = _request(server, "GET", "/scenarios")
        assert status == 200
        assert "paper_indoor_worst_case" in json.loads(body)["scenarios"]

    def test_stats_shape(self, server):
        status, _, body = _request(server, "GET", "/stats")
        assert status == 200
        stats = json.loads(body)
        assert set(stats) == {"store", "inflight", "entries", "backend",
                              "workers", "transport", "pool"}
        assert stats["backend"] == "serial"
        assert set(stats["transport"]) == {"timeouts",
                                           "client_disconnects",
                                           "drained_at_close"}

    def test_unknown_path_404_lists_routes(self, server):
        status, _, body = _request(server, "GET", "/nope")
        assert status == 404
        assert "/fleet/run" in json.loads(body)["paths"]

    def test_wrong_method_405(self, server):
        status, _, body = _request(server, "GET", "/simulate")
        assert status == 405
        assert "expects POST" in json.loads(body)["error"]

    def test_missing_body_400(self, server):
        status, _, body = _request(server, "POST", "/simulate")
        assert status == 400
        assert "JSON object body" in json.loads(body)["error"]


class TestSimulate:
    def test_matches_direct_run(self, server):
        status, headers, body = _request(
            server, "POST", "/simulate",
            {"scenario": "paper_indoor_worst_case"})
        assert status == 200
        payload = json.loads(body)
        direct = run_scenario(get_scenario("paper_indoor_worst_case"))
        assert payload["outcome"] == direct.to_dict()

    def test_resubmission_hits_bitwise(self, server):
        request = {"scenario": "sunny_office_worker"}
        first = _request(server, "POST", "/simulate", request)
        second = _request(server, "POST", "/simulate", request)
        assert second[1]["x-repro-cache"] == "hit"
        assert first[2] == second[2]

    def test_inline_spec_normalizes_to_library_digest(self, server):
        # A client shipping the full spec inline (any trace mode) must
        # land on the same cache entry as the library-name spelling.
        spec = get_scenario("sunny_office_worker").to_dict()
        _request(server, "POST", "/simulate",
                 {"scenario": "sunny_office_worker"})
        status, headers, _ = _request(server, "POST", "/simulate",
                                      {"scenario": spec})
        assert status == 200
        assert headers["x-repro-cache"] == "hit"

    def test_unknown_scenario_400(self, server):
        status, _, body = _request(server, "POST", "/simulate",
                                   {"scenario": "no_such_place"})
        assert status == 400
        assert "no_such_place" in json.loads(body)["error"]

    def test_unknown_request_key_400(self, server):
        status, _, body = _request(
            server, "POST", "/simulate",
            {"scenario": "sunny_office_worker", "turbo": True})
        assert status == 400
        assert "turbo" in json.loads(body)["error"]


class TestSearch:
    GRID = {"static_duty_cycle": {"rate_per_min": [2, 24]}}

    def test_matches_runner_and_caches(self, server):
        request = {"scenario": "paper_indoor_worst_case", "grid": self.GRID}
        first = _request(server, "POST", "/search", request)
        assert first[0] == 200
        payload = json.loads(first[2])
        assert payload["scenario"] == "paper_indoor_worst_case"
        assert len(payload["ranking"]) == 2
        second = _request(server, "POST", "/search", request)
        assert second[1]["x-repro-cache"] == "hit"
        assert first[2] == second[2]

    def test_empty_selection_400(self, server):
        status, _, body = _request(server, "POST", "/search",
                                   {"scenario": "sunny_office_worker"})
        assert status == 400
        assert "grid" in json.loads(body)["error"]


class TestFleet:
    def test_run_matches_fleet_runner_bitwise(self, server):
        status, headers, body = _request(server, "POST", "/fleet/run",
                                         {"spec": TINY_FLEET})
        assert status == 200
        assert headers["x-repro-cache"] == "miss"
        direct = FleetRunner(workers=2).run(
            FleetSpec.from_dict(TINY_FLEET))
        expected = canonical_json_bytes(
            {"spec": FleetSpec.from_dict(TINY_FLEET).to_dict(),
             "result": direct.to_dict()}) + b"\n"
        assert body == expected

    def test_run_resubmission_hits_bitwise(self, server):
        first = _request(server, "POST", "/fleet/run", {"spec": TINY_FLEET})
        second = _request(server, "POST", "/fleet/run", {"spec": TINY_FLEET})
        assert second[1]["x-repro-cache"] == "hit"
        assert first[2] == second[2]

    def test_search_and_recommend_share_one_computation(self, server):
        request = {"spec": dict(TINY_FLEET, name="tiny_search"),
                   "grid": {"static_duty_cycle": {"rate_per_min": [2, 8]}}}
        searched = _request(server, "POST", "/fleet/search", request)
        assert searched[0] == 200
        ranking = json.loads(searched[2])["search"]["ranking"]
        assert len(ranking) == 2
        recommended = _request(server, "POST", "/recommend", request)
        assert recommended[0] == 200
        # Same digest underneath: the recommendation reads the search
        # cache instead of re-simulating the fleet.
        assert recommended[1]["x-repro-cache"] == "hit"
        best = json.loads(recommended[2])["recommendation"]
        assert best["label"] == ranking[0]["label"]
        assert best["policy"] == ranking[0]["policy"]

    def test_bad_fleet_spec_400(self, server):
        status, _, body = _request(server, "POST", "/fleet/run",
                                   {"spec": {"name": "x"}})
        assert status == 400
        assert "base_scenario" in json.loads(body)["error"]


class TestLearnedPolicy:
    """Trained weights travel inside the spec — and cache by content."""

    @pytest.fixture(scope="class")
    def learned_scenario(self):
        from repro.learn import DatasetSpec, TrainSpec
        from repro.learn import generate_dataset, train_policy

        trained = train_policy(
            generate_dataset(DatasetSpec(fleet="office_cohort_week",
                                         wearers=1, stride=20)),
            TrainSpec(hidden=(4,), epochs=10, seed=1))
        scenario = get_scenario("sunny_office_worker").to_dict()
        scenario["name"] = "learned_serve_case"
        scenario["system"] = dict(scenario["system"],
                                  policy=trained.policy.to_dict())
        return scenario

    def test_same_weights_hit_the_same_cache_entry(self, server,
                                                   learned_scenario):
        first = _request(server, "POST", "/simulate",
                         {"scenario": learned_scenario})
        assert first[0] == 200
        second = _request(server, "POST", "/simulate",
                          {"scenario": learned_scenario})
        # Identical weights ⟹ identical canonical spec ⟹ same digest.
        assert second[1]["x-repro-cache"] == "hit"
        assert first[2] == second[2]

    def test_different_weights_miss(self, server, learned_scenario):
        _request(server, "POST", "/simulate",
                 {"scenario": learned_scenario})
        perturbed = json.loads(json.dumps(learned_scenario))
        perturbed["system"]["policy"]["params"]["weights"][0][0][0] += 0.5
        status, headers, _ = _request(server, "POST", "/simulate",
                                      {"scenario": perturbed})
        assert status == 200
        assert headers["x-repro-cache"] == "miss"


class TestIngest:
    RECORDS = [
        {"t_s": 0.0, "power_w": 0.0009, "event": "office"},
        {"t_s": 60.0, "power_w": 0.0009, "event": "office"},
        {"t_s": 120.0, "power_w": 0.00002, "event": "commute"},
        {"t_s": 180.0, "power_w": 0.00002, "event": "commute"},
    ]

    def test_ingest_returns_runnable_spec(self, server):
        status, _, body = _request(
            server, "POST", "/ingest",
            {"name": "served_trace", "records": self.RECORDS})
        assert status == 200
        payload = json.loads(body)
        assert payload["segments"] == 2
        from repro.scenarios.spec import ScenarioSpec
        spec = ScenarioSpec.from_dict(payload["spec"])
        outcome = run_scenario(spec)
        assert outcome.name == "served_trace"

    def test_ingest_caches(self, server):
        request = {"name": "cached_trace", "records": self.RECORDS}
        first = _request(server, "POST", "/ingest", request)
        second = _request(server, "POST", "/ingest", request)
        assert second[1]["x-repro-cache"] == "hit"
        assert first[2] == second[2]

    def test_bad_records_400(self, server):
        status, _, body = _request(
            server, "POST", "/ingest",
            {"name": "x", "records": [{"t_s": 0}]})
        assert status == 400
        assert "power_w" in json.loads(body)["error"]


class TestProtocolErrors:
    """Framing failures the JSON layer never sees, via raw sockets."""

    @staticmethod
    def _raw(server, payload: bytes) -> bytes:
        with socket.create_connection((server.host, server.port),
                                      timeout=30) as sock:
            sock.sendall(payload)
            sock.shutdown(socket.SHUT_WR)
            chunks = []
            while chunk := sock.recv(65536):
                chunks.append(chunk)
        return b"".join(chunks)

    def test_malformed_request_line_400(self, server):
        raw = self._raw(server, b"NONSENSE\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"malformed request line" in raw

    def test_bad_content_length_400(self, server):
        raw = self._raw(
            server,
            b"POST /simulate HTTP/1.1\r\nContent-Length: lots\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"bad Content-Length" in raw

    def test_oversized_body_rejected_413(self, server):
        raw = self._raw(
            server,
            b"POST /simulate HTTP/1.1\r\n"
            b"Content-Length: " + str(MAX_BODY_BYTES + 1).encode() +
            b"\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 413")

    def test_invalid_json_body_400(self, server):
        body = b"{not json"
        raw = self._raw(
            server,
            b"POST /simulate HTTP/1.1\r\n"
            b"Content-Length: " + str(len(body)).encode() +
            b"\r\n\r\n" + body)
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"invalid JSON body" in raw

    def test_non_object_json_body_400(self, server):
        body = b"[1, 2, 3]"
        raw = self._raw(
            server,
            b"POST /simulate HTTP/1.1\r\n"
            b"Content-Length: " + str(len(body)).encode() +
            b"\r\n\r\n" + body)
        assert raw.startswith(b"HTTP/1.1 400")
        assert b"must be a JSON object" in raw

    @pytest.mark.parametrize("headers, body, error", [
        (b"Content-Length: -5\r\n", b"", b"bad Content-Length"),
        (b"Content-Length: 100000\r\n", b"[" * 100_000,
         b"invalid JSON body"),
    ], ids=["negative_length", "deep_nesting"])
    def test_malformed_body_400(self, server, headers, body, error):
        raw = self._raw(server, b"POST /simulate HTTP/1.1\r\n" + headers +
                        b"\r\n" + body)
        assert raw.startswith(b"HTTP/1.1 400")
        assert error in raw

    @pytest.mark.parametrize("header", [
        b"X-Padding: " + b"a" * 70_000 + b"\r\n",
        b"X-Padding: " + b"a" * MAX_HEADER_LINE_BYTES + b"\r\n",
    ], ids=["past_stream_limit", "past_line_cap"])
    def test_oversized_header_line_431(self, server, header):
        """A 70 KB line used to surface the stream reader's ValueError
        as a 500."""
        raw = self._raw(server, b"GET /health HTTP/1.1\r\n" + header +
                        b"\r\n")
        assert raw.startswith(b"HTTP/1.1 431 Request Header Fields Too Large")
        assert b"request header line too long" in raw

    @pytest.mark.parametrize("target", [
        b"/" + b"a" * 70_000,
        b"/" + b"a" * MAX_HEADER_LINE_BYTES,
    ], ids=["past_stream_limit", "past_line_cap"])
    def test_oversized_request_line_414(self, server, target):
        """A 70 KB request line used to surface the stream reader's
        ValueError as a 500."""
        raw = self._raw(server, b"GET " + target + b" HTTP/1.1\r\n\r\n")
        assert raw.startswith(b"HTTP/1.1 414 URI Too Long")
        body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
        assert body == {"error": "request line too long"}

    def test_request_line_cap_is_inclusive(self, server):
        """A request line of exactly the cap is read and routed (404)."""
        target = b"/" + b"a" * (MAX_HEADER_LINE_BYTES - 16)
        line = b"GET " + target + b" HTTP/1.1\r\n"
        assert len(line) == MAX_HEADER_LINE_BYTES
        raw = self._raw(server, line + b"\r\n")
        assert raw.startswith(b"HTTP/1.1 404")

    def test_too_many_header_lines_431(self, server):
        """5000 header lines used to get a 200."""
        raw = self._raw(server, b"GET /health HTTP/1.1\r\n" +
                        b"X: y\r\n" * 5000 + b"\r\n")
        assert raw.startswith(b"HTTP/1.1 431")
        assert b"too many request header lines" in raw

    def test_header_caps_are_inclusive(self, server):
        header = b"X-Padding: " + b"a" * (MAX_HEADER_LINE_BYTES - 13) + b"\r\n"
        assert len(header) == MAX_HEADER_LINE_BYTES
        raw = self._raw(server, b"GET /health HTTP/1.1\r\n" +
                        header * MAX_HEADER_LINES + b"\r\n")
        assert raw.startswith(b"HTTP/1.1 200")

    def test_empty_connection_closed_quietly(self, server):
        # Opening and closing without sending anything must not wedge
        # the server.
        assert self._raw(server, b"") == b""
        status, _, _ = _request(server, "GET", "/health")
        assert status == 200


class TestHardening:
    def test_slow_request_times_out_504(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        service = ServeService(store, workers=1, backend="serial")
        real_handle = service.handle
        release = threading.Event()

        def stuck_handle(method, path, body=None):
            release.wait(timeout=30)
            return real_handle(method, path, body)

        service.handle = stuck_handle
        with ServerThread(service, request_timeout_s=0.2) as live:
            status, _, body = http_request(live.host, live.port, "GET",
                                           "/health")
            assert status == 504
            assert "timed out after 0.2 s" in json.loads(body)["error"]
            # Unblock the worker; the server must still be serving.
            release.set()
            service.handle = real_handle
            status, _, body = http_request(live.host, live.port, "GET",
                                           "/stats")
            assert status == 200
            assert json.loads(body)["transport"]["timeouts"] == 1

    def test_no_timeout_by_default(self, server):
        assert server.server.request_timeout_s is None

    def test_client_disconnect_counted_on_stats(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        service = ServeService(store, workers=1, backend="serial")
        with ServerThread(service) as live:
            # Promise a body, then hang up before sending it: the read
            # side sees an incomplete request.
            with socket.create_connection((live.host, live.port),
                                          timeout=30) as sock:
                sock.sendall(b"POST /simulate HTTP/1.1\r\n"
                             b"Content-Length: 100\r\n\r\n")
            for _ in range(100):
                _, _, body = http_request(live.host, live.port, "GET",
                                          "/stats")
                if json.loads(body)["transport"]["client_disconnects"]:
                    break
                time.sleep(0.05)
            stats = json.loads(body)
            assert stats["transport"]["client_disconnects"] == 1


class TestDrainOnClose:
    def test_inflight_request_finishes_and_is_counted(self, tmp_path):
        """Shutdown must drain accepted requests instead of dropping
        them mid-computation: the slow request still gets its 200 and
        the drain is counted under /stats "transport"."""
        store = ResultStore(tmp_path / "store")
        service = ServeService(store, workers=1, backend="serial")
        real_handle = service.handle
        entered = threading.Event()

        def slow_handle(method, path, body=None):
            entered.set()
            time.sleep(0.4)
            return real_handle(method, path, body)

        service.handle = slow_handle
        results = []
        live = ServerThread(service, request_timeout_s=30.0)
        with live:
            worker = threading.Thread(
                target=lambda: results.append(
                    http_request(live.host, live.port, "GET", "/health")))
            worker.start()
            assert entered.wait(timeout=10)
            # Leave the context while the request is still in flight:
            # close() must wait for it, bounded by the timeout.
        worker.join(timeout=30)
        assert results and results[0][0] == 200
        assert json.loads(results[0][2]) == {"status": "ok"}
        assert service.transport["drained_at_close"] == 1

    def test_idle_close_drains_nothing(self, tmp_path):
        service = ServeService(ResultStore(tmp_path / "store"), workers=1)
        with ServerThread(service) as live:
            status, _, _ = http_request(live.host, live.port, "GET",
                                        "/health")
            assert status == 200
        assert service.transport["drained_at_close"] == 0


class TestSharedPoolService:
    def test_process_backend_reuses_workers_across_requests(self, tmp_path):
        """A process-backed service dispatches through the process-wide
        persistent pool: consecutive requests must not respawn workers,
        observable via the /stats "pool" counters."""
        service = ServeService(ResultStore(tmp_path / "store"),
                               workers=2, backend="process")
        first = {"spec": dict(TINY_FLEET, name="pooled_a", n_wearers=4)}
        second = {"spec": dict(TINY_FLEET, name="pooled_b", n_wearers=4)}
        with ServerThread(service) as live:
            status, _, _ = http_request(live.host, live.port, "POST",
                                        "/fleet/run", first)
            assert status == 200
            _, _, body = http_request(live.host, live.port, "GET", "/stats")
            before = json.loads(body)["pool"]
            assert before is not None
            status, _, _ = http_request(live.host, live.port, "POST",
                                        "/fleet/run", second)
            assert status == 200
            _, _, body = http_request(live.host, live.port, "GET", "/stats")
            after = json.loads(body)["pool"]
        assert after["spawns"] == before["spawns"]  # same workers
        assert after["batches"] == before["batches"] + 1


class TestConcurrency:
    def test_concurrent_identical_requests_coalesce(self, tmp_path):
        # A dedicated server so this test owns the stats counters.
        store = ResultStore(tmp_path / "store")
        service = ServeService(store, workers=2, backend="serial")
        request = {"spec": dict(TINY_FLEET, name="concurrent",
                                n_wearers=6)}
        results = []
        with ServerThread(service, request_workers=8) as live:
            def post():
                results.append(http_request(live.host, live.port, "POST",
                                            "/fleet/run", request))

            threads = [threading.Thread(target=post) for _ in range(5)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        assert len(results) == 5
        assert {status for status, _, _ in results} == {200}
        assert len({body for _, _, body in results}) == 1
        states = sorted(headers["x-repro-cache"]
                        for _, headers, _ in results)
        # Exactly one request simulated; the rest coalesced onto it or
        # (if they arrived after it finished) hit the fresh cache entry.
        assert states.count("miss") == 1
        assert store.stats.misses == 1
        assert store.stats.coalesced + store.stats.hits == 4


class TestSmoke:
    def test_run_smoke_passes_on_fresh_store(self, tmp_path):
        summary = run_smoke(tmp_path / "store", workers=2)
        assert summary["ok"] is True
        assert summary["cache"] == ["miss", "hit"]
        assert summary["bitwise_identical"] is True
