"""The HTTP face of simulation-as-a-service (stdlib only).

A :class:`ThreadingHTTPServer` whose handler threads talk to one shared
:class:`~repro.service.queue.JobQueue`.  Endpoints (see
``docs/SERVICE.md`` for curl examples):

* ``POST /v1/runs`` — validate a ``ScenarioConfig`` JSON body, answer
  immediately with the content digest and job state (``202`` while the
  job is in flight, ``200`` for a cache hit).
* ``GET /v1/runs`` — list job records (``?status=``, ``?limit=``).
* ``GET /v1/runs/<digest>`` — job status; includes the full
  ``RunReport`` once done.  ``?wait=SECONDS`` blocks until the
  in-flight execution settles (bounded by the server's wait cap).
* ``GET /v1/runs/<digest>/export`` — the run as a strict-JSON
  dashboard document (:mod:`repro.service.export`).
* ``GET /v1/store/stats`` — hit/miss/coalesce counters + store
  entry count and byte footprint.
* ``GET /v1/service/stats`` — execution-health counters (retries,
  timeouts, pool rebuilds, rejections), the retry policy, and pool
  supervision state.
* ``GET /healthz`` — liveness (``degraded`` while the pool is broken).

Responses are JSON throughout.  Job/report payloads may contain
Python-style ``NaN`` literals (lossless for the bundled client); the
``/export`` documents are strict JSON with ``null`` instead.

Graceful degradation (``docs/SERVICE.md`` "Failure semantics"): a
submission the queue cannot take — depth cap reached, worker pool
broken beyond rebuilding, shutdown in progress — is answered with
``503`` plus a ``Retry-After`` header, never a ``500``.  ``serve``
reconciles stale job records before accepting traffic.
"""

from __future__ import annotations

import http.server
import json
import re
import socket
import typing
import urllib.parse

from repro.deploy.scenario import ScenarioConfig
from repro.service.export import export_entry
from repro.service.queue import (
    JobQueue,
    RetryPolicy,
    ServiceUnavailable,
    reconcile_queue,
)
from repro.store import JobStatus, RunStore

__all__ = ["ServiceHandler", "ServiceServer", "serve"]

#: Largest accepted request body — a ScenarioConfig is a few KiB even
#: with a long fault script; anything bigger is not a config.
MAX_BODY_BYTES = 1 << 20

#: Upper bound on one ``?wait=`` long-poll, seconds.
MAX_WAIT_S = 60.0

_RUN_PATH = re.compile(
    r"^/v1/runs/(?P<digest>[0-9a-f]{64})(?P<export>/export)?$"
)


def _first(
    query: typing.Mapping[str, typing.List[str]], key: str
) -> typing.Optional[str]:
    values = query.get(key)
    return values[0] if values else None


class ServiceServer(http.server.ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`JobQueue`."""

    daemon_threads = True

    def __init__(
        self,
        address: typing.Tuple[str, int],
        queue: JobQueue,
        quiet: bool = False,
    ) -> None:
        self.queue = queue
        self.quiet = quiet
        super().__init__(address, ServiceHandler)

    @property
    def port(self) -> int:
        """The bound TCP port (useful with an ephemeral ``port=0``)."""
        return int(self.server_address[1])


class ServiceHandler(http.server.BaseHTTPRequestHandler):
    """Routes one request; all state lives on the server's queue."""

    #: Keep-alive requires accurate Content-Length on every response —
    #: ``_send_json`` always sets it.
    protocol_version = "HTTP/1.1"

    #: True once any byte of the current response hit the wire;
    #: reset per request, consulted by the catch-all recovery.
    _response_begun = False

    @property
    def queue(self) -> JobQueue:
        return typing.cast(ServiceServer, self.server).queue

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._response_begun = False
        try:
            self._route_get()
        except Exception as error:
            # The degradation contract: the only 5xx this server emits
            # is a retryable 503 (docs/SERVICE.md, failure semantics).
            self._recover(error)

    def _route_get(self) -> None:
        split = urllib.parse.urlsplit(self.path)
        query = urllib.parse.parse_qs(split.query)
        path = split.path
        if path == "/healthz":
            self._get_health()
        elif path == "/v1/runs":
            self._get_runs(query)
        elif path == "/v1/store/stats":
            self._send_json(200, self.queue.stats())
        elif path == "/v1/service/stats":
            self._send_json(200, self.queue.service_stats())
        else:
            match = _RUN_PATH.match(path)
            if match is None:
                self._send_error(404, f"no such resource: {path}")
            elif match.group("export"):
                self._get_export(match.group("digest"))
            else:
                self._get_run(match.group("digest"), query)

    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        self._response_begun = False
        try:
            path = urllib.parse.urlsplit(self.path).path
            if path != "/v1/runs":
                self._send_error(404, f"no such resource: {path}")
                return
            self._post_run()
        except Exception as error:
            self._recover(error)

    def _recover(self, error: Exception) -> None:
        """Last-resort handling for a handler that raised.

        Before any bytes of a response went out, the documented 503 is
        still a clean answer.  After a status line has been written, a
        second response on the same connection would interleave with
        the first into garbage — drop the connection instead, which
        clients see as a truncated response they must not trust.
        """
        if self._response_begun:
            self.close_connection = True
            return
        self._send_unavailable(f"handler failure: {error}")

    # ------------------------------------------------------------------
    # Endpoints
    # ------------------------------------------------------------------
    def _get_health(self) -> None:
        broken = self.queue.pool.broken
        self._send_json(
            200,
            {
                "status": "degraded" if broken else "ok",
                "workers": self.queue.pool.workers,
                "inflight": self.queue.inflight_count(),
            },
        )

    def _post_run(self) -> None:
        body = self._read_body()
        if body is None:
            return
        try:
            document = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as error:
            self._send_error(400, f"invalid JSON body: {error}")
            return
        if isinstance(document, dict) and "config" in document:
            document = document["config"]
        if not isinstance(document, dict):
            self._send_error(400, "body must be a config JSON object")
            return
        try:
            config = ScenarioConfig.from_json_dict(document)
        except (TypeError, ValueError) as error:
            self._send_error(400, f"invalid scenario config: {error}")
            return
        try:
            outcome = self.queue.submit(config, source="api")
        except ServiceUnavailable as error:
            self._send_unavailable(str(error), error.retry_after_s)
            return
        record = outcome.record
        self._send_json(
            200 if record.terminal else 202,
            {
                "digest": outcome.digest,
                "status": record.status,
                "cached": outcome.cached,
                "coalesced": outcome.coalesced,
                "submissions": record.submissions,
                "url": f"/v1/runs/{outcome.digest}",
            },
        )

    def _get_runs(
        self, query: typing.Dict[str, typing.List[str]]
    ) -> None:
        status = _first(query, "status")
        limit_text = _first(query, "limit")
        limit: typing.Optional[int] = None
        if limit_text is not None:
            try:
                limit = int(limit_text)
            except ValueError:
                self._send_error(400, f"bad limit: {limit_text!r}")
                return
        records = self.queue.list_records(status=status, limit=limit)
        self._send_json(
            200,
            {
                "count": len(records),
                "runs": [record.to_json_dict() for record in records],
            },
        )

    def _get_run(
        self, digest: str, query: typing.Dict[str, typing.List[str]]
    ) -> None:
        wait_text = _first(query, "wait")
        if wait_text is not None:
            try:
                wait_s = min(float(wait_text), MAX_WAIT_S)
            except ValueError:
                self._send_error(400, f"bad wait: {wait_text!r}")
                return
            self.queue.wait(digest, wait_s)
        record = self.queue.status(digest)
        if record is None:
            self._send_error(404, f"unknown digest: {digest}")
            return
        payload: typing.Dict[str, typing.Any] = {
            "digest": digest,
            "job": record.to_json_dict(),
        }
        if record.status == JobStatus.DONE:
            entry = self.queue.result(digest)
            if entry is not None:
                payload["report"] = entry.report.to_json_dict()
                payload["config"] = entry.config.to_json_dict()
        self._send_json(200, payload)

    def _get_export(self, digest: str) -> None:
        entry = self.queue.result(digest)
        if entry is not None:
            self._send_json(200, export_entry(entry), strict=True)
            return
        record = self.queue.status(digest)
        if record is None:
            self._send_error(404, f"unknown digest: {digest}")
        else:
            self._send_error(
                409,
                f"run {digest[:12]} is {record.status}; "
                "export needs a finished result",
            )

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _read_body(self) -> typing.Optional[bytes]:
        length_text = self.headers.get("Content-Length")
        try:
            length = int(length_text) if length_text is not None else -1
        except ValueError:
            length = -1
        if length < 0:
            self._send_error(411, "Content-Length required")
            return None
        if length > MAX_BODY_BYTES:
            self._send_error(413, f"body over {MAX_BODY_BYTES} bytes")
            return None
        return self.rfile.read(length)

    def _send_json(
        self,
        code: int,
        payload: typing.Mapping[str, typing.Any],
        strict: bool = False,
        headers: typing.Optional[typing.Mapping[str, str]] = None,
    ) -> None:
        text = json.dumps(
            payload, sort_keys=True, indent=1, allow_nan=not strict
        )
        body = (text + "\n").encode("utf-8")
        # Everything that can fail for content reasons (serialization)
        # has; from here any bytes written commit this response.
        self._response_begun = True
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if headers:
            for name, value in headers.items():
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message, "code": code})

    def _send_unavailable(
        self, message: str, retry_after_s: float = 1.0
    ) -> None:
        """The documented 503: overloaded/broken/shutting down, not lost.

        Carries ``Retry-After`` (whole seconds, rounded up) so clients
        — including the bundled :class:`ServiceClient` — know when to
        come back.  Best-effort: a half-written or torn-down connection
        must not raise out of the handler.
        """
        retry_after = max(1, int(-(-retry_after_s // 1)))
        try:
            self._send_json(
                503,
                {
                    "error": message,
                    "code": 503,
                    "retry_after_s": retry_after,
                },
                headers={"Retry-After": str(retry_after)},
            )
        except OSError:
            pass

    def log_message(self, format: str, *args: typing.Any) -> None:
        """Default request logging, silenced under ``quiet``."""
        if not typing.cast(ServiceServer, self.server).quiet:
            super().log_message(format, *args)


def serve(
    store: typing.Optional[RunStore] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    quiet: bool = False,
    queue: typing.Optional[JobQueue] = None,
    policy: typing.Optional[RetryPolicy] = None,
) -> ServiceServer:
    """Build a ready-to-run server (not yet serving).

    ``port=0`` binds an ephemeral port — read it back from
    :attr:`ServiceServer.port`.  The caller owns the loop: call
    ``serve_forever()`` (blocking) or run it in a thread, and pair
    ``server.shutdown()`` with ``server.queue.shutdown()`` on exit.

    Without an explicit *queue*, a :class:`JobQueue` is built with
    *policy* (default :class:`RetryPolicy`).  Stale non-terminal job
    records from a previous server life are settled to ``failed``
    ("server restart") before the socket binds — i.e. before the API
    accepts any traffic.
    """
    if queue is None:
        queue = JobQueue(
            store if store is not None else RunStore(),
            policy=policy,
            workers=workers,
        )
    reconcile_queue(queue)
    try:
        return ServiceServer((host, port), queue, quiet=quiet)
    except socket.error:
        queue.shutdown(wait=False)
        raise
