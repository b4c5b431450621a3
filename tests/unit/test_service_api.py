"""Unit tests for the HTTP API layer (repro.service.api + client).

Each fixture starts a real ``ServiceServer`` on an ephemeral port with
a thread-backed worker pool, so requests cross a genuine socket but no
processes are spawned and no real simulation runs.
"""

import concurrent.futures
import threading

import pytest

from repro.cli import build_parser
from repro.deploy.scenario import Algorithm
from repro.service import RetryPolicy, ServiceClient, ServiceError, serve
from repro.store import RunStore, config_digest
from tests.unit.service_support import CONFIG, make_report, thread_queue


def instant_runner(config, store_root):
    return make_report(config.describe()), 0.25, "pid-test"


@pytest.fixture
def service(tmp_path):
    """(client, queue, store) against a live ephemeral-port server."""
    store = RunStore(tmp_path)
    queue = thread_queue(tmp_path, instant_runner, store=store)
    server = serve(queue=queue, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield ServiceClient(port=server.port), queue, store
    server.shutdown()
    server.server_close()
    queue.shutdown(wait=True)


class TestHealthAndStats:
    def test_healthz(self, service):
        client, _queue, _store = service
        payload = client.health()
        assert payload["status"] == "ok"
        assert payload["workers"] == 2

    def test_store_stats(self, service):
        client, _queue, store = service
        store.put(CONFIG, make_report())
        client.submit(CONFIG.to_json_dict())  # a hit
        stats = client.stats()
        assert stats["entries"] == 1
        assert stats["counters"]["hits"] == 1
        assert stats["root"] == store.root


@pytest.fixture
def gated_service(tmp_path):
    """A depth-capped server with a gated runner.

    Yields (client, queue, gate); the first submitted job blocks on the
    gate, holding the single queue slot open so overload paths are
    reachable deterministically.  The client has retries disabled so a
    503 surfaces instead of being retried away.
    """
    gate = threading.Event()

    def gated_runner(config, store_root):
        assert gate.wait(30)
        return make_report(config.describe()), 0.25, "pid-test"

    queue = thread_queue(
        tmp_path,
        gated_runner,
        policy=RetryPolicy(max_retries=0, queue_depth=1),
    )
    server = serve(queue=queue, quiet=True)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield ServiceClient(port=server.port, retries=0), queue, gate
    gate.set()
    server.shutdown()
    server.server_close()
    queue.shutdown(wait=False)


class TestServiceStats:
    def test_plain_queue_stats_shape(self, service):
        client, _queue, _store = service
        stats = client.service_stats()
        assert set(stats) == {
            "counters", "inflight", "max_inflight", "policy", "pool",
            "supervised", "workers",
        }
        assert stats["supervised"] is True
        assert stats["workers"] == 2
        assert stats["inflight"] == 0
        assert set(stats["counters"].values()) == {0}
        assert stats["max_inflight"] is None
        assert stats["policy"] == RetryPolicy().to_json_dict()

    def test_supervised_queue_stats_shape(self, gated_service):
        client, _queue, _gate = gated_service
        stats = client.service_stats()
        assert stats["supervised"] is True
        assert stats["policy"]["max_retries"] == 0
        assert stats["policy"]["queue_depth"] == 1
        assert stats["pool"] == {
            "broken": False, "generation": 0, "rebuilds": 0,
        }  # generation 0: the executor builds lazily on first submit


class TestDegradation:
    def test_depth_cap_answers_503_with_retry_after(self, gated_service):
        client, queue, gate = gated_service
        first = client.submit(CONFIG.to_json_dict())
        assert first["status"] == "queued"
        with pytest.raises(ServiceError) as exc:
            client.submit(CONFIG.replace(seed=99).to_json_dict())
        assert exc.value.code == 503
        assert exc.value.retry_after_s >= 1.0
        assert "depth" in str(exc.value)
        assert queue.counters.rejected == 1
        # coalescing into the in-flight digest still works at the cap
        again = client.submit(CONFIG.to_json_dict())
        assert again["coalesced"] is True
        gate.set()
        client.wait(first["digest"], timeout_s=10)
        # slot freed: previously rejected work is accepted now
        retry = client.submit(CONFIG.replace(seed=99).to_json_dict())
        client.wait(retry["digest"], timeout_s=10)

    def test_healthz_reports_degraded_while_pool_broken(
        self, gated_service
    ):
        client, queue, _gate = gated_service
        assert client.health()["status"] == "ok"
        queue.pool.broken = True
        assert client.health()["status"] == "degraded"
        queue.pool.broken = False
        assert client.health()["status"] == "ok"

    def test_failure_after_response_bytes_closes_connection(
        self, service, monkeypatch
    ):
        """A handler that fails after the response started must close
        the connection — never append a second status line (a garbled
        503 after a half-written 200) to the same stream."""
        import socket

        from repro.service.api import ServiceHandler

        original = ServiceHandler._send_json

        def bad_health(self):
            original(self, 200, {"status": "ok"})
            raise RuntimeError("boom after the body went out")

        monkeypatch.setattr(ServiceHandler, "_get_health", bad_health)
        client, _queue, _store = service
        with socket.create_connection(
            ("127.0.0.1", client.port), timeout=5
        ) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            sock.settimeout(5)
            data = b""
            while True:
                chunk = sock.recv(65536)  # EOF = server closed, as required
                if not chunk:
                    break
                data += chunk
        assert data.count(b"HTTP/1.1") == 1
        assert data.startswith(b"HTTP/1.1 200")
        assert b"503" not in data

    def test_client_retry_rides_out_the_503(self, gated_service):
        _client, queue, gate = gated_service
        retrying = ServiceClient(
            port=_client.port, retries=3, backoff_base_s=0.05
        )
        first = retrying.submit(CONFIG.to_json_dict())
        release = threading.Timer(0.3, gate.set)
        release.start()
        try:
            # blocked at first by the depth cap; succeeds once the
            # gate opens and the slot drains, all inside one call
            out = retrying.submit(
                CONFIG.replace(seed=99).to_json_dict()
            )
            assert out["digest"] != first["digest"]
            retrying.wait(out["digest"], timeout_s=10)
        finally:
            release.cancel()
            gate.set()


class TestSubmit:
    def test_submit_and_wait_round_trip(self, service):
        client, _queue, _store = service
        out = client.submit(CONFIG.to_json_dict())
        assert out["digest"] == config_digest(CONFIG)
        assert out["url"] == f"/v1/runs/{out['digest']}"
        job = client.wait(out["digest"], timeout_s=10)
        assert job["job"]["status"] == "done"
        assert job["report"]["failures"] == 5
        assert job["config"]["seed"] == CONFIG.seed

    def test_submit_accepts_bare_config_document(self, service):
        client, _queue, _store = service
        out = client._request("POST", "/v1/runs", body=CONFIG.to_json_dict())
        assert out["digest"] == config_digest(CONFIG)

    def test_cached_submit_returns_200_and_cached_flag(self, service):
        client, _queue, store = service
        store.put(CONFIG, make_report())
        out = client.submit(CONFIG.to_json_dict())
        assert out["cached"] is True
        assert out["status"] == "done"

    def test_concurrent_identical_submits_execute_once(self, service):
        client, queue, _store = service
        body = CONFIG.to_json_dict()
        with concurrent.futures.ThreadPoolExecutor(4) as pool:
            outs = [
                future.result()
                for future in [
                    pool.submit(client.submit, body) for _ in range(4)
                ]
            ]
        digests = {out["digest"] for out in outs}
        assert len(digests) == 1
        client.wait(digests.pop(), timeout_s=10)
        assert queue.counters.executed == 1
        assert queue.counters.misses == 1
        assert (
            queue.counters.coalesced + queue.counters.hits == 3
        )  # every other submission was deduplicated

    def test_invalid_json_is_400(self, service):
        client, _queue, _store = service
        import http.client

        connection = http.client.HTTPConnection(
            client.host, client.port, timeout=10
        )
        connection.request(
            "POST", "/v1/runs", body=b"{nope",
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        assert response.status == 400
        response.read()
        connection.close()

    def test_invalid_config_is_400(self, service):
        client, _queue, _store = service
        with pytest.raises(ServiceError) as exc:
            client.submit({"bogus_field": 1})
        assert exc.value.code == 400
        assert "invalid scenario config" in str(exc.value)

    def test_field_removed_from_the_config_is_400(self, service):
        # Schema 5 made the heartbeat period a constant: a body that
        # still sets it is refused, not run with the value ignored.
        client, _queue, _store = service
        body = {**CONFIG.to_json_dict(), "heartbeat_period_s": 30.0}
        with pytest.raises(ServiceError) as exc:
            client.submit(body)
        assert exc.value.code == 400
        assert "heartbeat_period_s" in str(exc.value)


class TestGetRun:
    def test_unknown_digest_is_404(self, service):
        client, _queue, _store = service
        with pytest.raises(ServiceError) as exc:
            client.job("0" * 64)
        assert exc.value.code == 404

    def test_malformed_digest_path_is_404(self, service):
        client, _queue, _store = service
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/v1/runs/nothex")
        assert exc.value.code == 404

    def test_listing_filters_by_status(self, service):
        client, _queue, _store = service
        out = client.submit(CONFIG.to_json_dict())
        client.wait(out["digest"], timeout_s=10)
        listing = client.jobs(status="done")
        assert listing["count"] == 1
        assert listing["runs"][0]["digest"] == out["digest"]
        assert client.jobs(status="failed")["count"] == 0

    def test_listing_respects_limit(self, service):
        client, _queue, _store = service
        for seed in (1, 2, 3):
            out = client.submit(CONFIG.replace(seed=seed).to_json_dict())
            client.wait(out["digest"], timeout_s=10)
        assert client.jobs(limit=2)["count"] == 2


class TestExportEndpoint:
    def test_export_finished_run(self, service):
        client, _queue, _store = service
        out = client.submit(CONFIG.to_json_dict())
        client.wait(out["digest"], timeout_s=10)
        document = client.export(out["digest"])
        assert document["digest"] == out["digest"]
        assert document["scenario"]["algorithm"] == Algorithm.FIXED
        # strict JSON: the NaN metric arrives as null/None
        assert document["headline"]["mean_request_hops"] is None

    def test_export_unknown_digest_is_404(self, service):
        client, _queue, _store = service
        with pytest.raises(ServiceError) as exc:
            client.export("0" * 64)
        assert exc.value.code == 404

    def test_export_unfinished_run_is_409(self, tmp_path):
        gate = threading.Event()

        def blocked_runner(config, store_root):
            assert gate.wait(10)
            return make_report(), 0.1, "pid-test"

        queue = thread_queue(tmp_path, blocked_runner, workers=1)
        server = serve(queue=queue, quiet=True)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        client = ServiceClient(port=server.port)
        try:
            out = client.submit(CONFIG.to_json_dict())
            with pytest.raises(ServiceError) as exc:
                client.export(out["digest"])
            assert exc.value.code == 409
        finally:
            gate.set()
            client.wait(config_digest(CONFIG), timeout_s=10)
            server.shutdown()
            server.server_close()
            queue.shutdown(wait=True)


class TestServeParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8373
        assert args.workers == 2
        assert not args.quiet
        assert args.max_retries == 2
        assert args.job_timeout is None
        assert args.queue_depth is None

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--workers", "5", "--quiet",
             "--store", "/tmp/x", "--max-retries", "4",
             "--job-timeout", "90", "--queue-depth", "8"]
        )
        assert args.port == 0
        assert args.workers == 5
        assert args.quiet
        assert args.store == "/tmp/x"
        assert args.max_retries == 4
        assert args.job_timeout == 90.0
        assert args.queue_depth == 8

    def test_export_parser(self):
        args = build_parser().parse_args(["export", "abc", "def"])
        assert args.command == "export"
        assert args.digests == ["abc", "def"]
        assert args.output == "-"
        assert not args.all
