"""Stdlib HTTP/JSON front end for :class:`~repro.service.QueryService`.

``ThreadingHTTPServer`` gives each request its own thread; the service's
admission controller is the real concurrency gate, so the HTTP layer
stays a dumb translator:

* ``POST /query`` — body ``{"sql": "...", "timeout_seconds": 2.5}``
  (timeout optional) → ``200`` with rows, or a typed error body whose
  HTTP status matches the error (429 shed, 503 draining, 504 deadline,
  400 query failure).
* ``GET /healthz`` — admission counts, ladder rung, breaker state;
  ``200`` while serving, ``503`` once draining.
* ``GET /metrics`` — the service MetricsRegistry snapshot as JSON;
  ``GET /metrics?format=prom`` — Prometheus text exposition (0.0.4).
* ``GET /debug/queries`` — the flight recorder's recent query records,
  newest first (``?n=`` limits the count).
* ``GET /debug/trace/<query_id>`` — the auto-captured Chrome trace of a
  slow query, loadable in Perfetto / ``chrome://tracing``.

Keep-alive discipline: a request body is either fully read before the
response is written, or the response carries ``Connection: close`` and
the connection is torn down — never a 400 that leaves unread body bytes
to be misparsed as the next pipelined request.  Every reply leaves in
one send on a no-delay socket: headers and body written apart would
make each keep-alive reply wait out the client's delayed ACK (≈40 ms).

``serve`` wires SIGTERM/SIGINT to graceful drain: admission stops,
in-flight queries finish (or miss their deadlines and are cancelled),
the worker pool is shut down, and only then does the process exit.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs

from repro.obs.live import PROM_CONTENT_TYPE, to_prometheus
from repro.service.core import QueryService
from repro.service.errors import ServiceError

_MAX_BODY_BYTES = 1 << 20  # a SQL text; anything bigger is abuse


class ServiceHTTPServer(ThreadingHTTPServer):
    daemon_threads = True  # drain owns lifecycle; don't block exit on I/O
    # socketserver's default accept backlog is 5; a burst of short-lived
    # connections (scrapers + query storm) overflows that and the kernel
    # resets the excess.  Admission control is the real gate, so let the
    # listener absorb the burst.
    request_queue_size = 128

    def __init__(self, address, service: QueryService) -> None:
        super().__init__(address, _Handler)
        self.service = service
        self.access_log = service.config.access_log


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: ServiceHTTPServer

    # -- plumbing -------------------------------------------------------

    def log_message(self, fmt, *args):
        # Off by default (ServiceConfig.access_log): the query log and
        # metrics are the operational record; this is debug chatter.
        if getattr(self.server, "access_log", False):
            BaseHTTPRequestHandler.log_message(self, fmt, *args)

    def _reply(self, status: int, data: dict | str,
               content_type: str = "application/json",
               retry_after: float | None = None,
               close: bool = False) -> None:
        """Send one response in one write: status line, headers and body
        leave together, so a keep-alive client's delayed ACK never gates
        the body.  ``data`` is JSON-encoded unless it is already text."""
        if not isinstance(data, str):
            data = json.dumps(data)
        payload = data.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:.3f}")
        if close:
            self.send_header("Connection", "close")
        if self.request_version == "HTTP/0.9":
            # No header block to join (a keep-alive connection's previous
            # request leaves an empty buffer behind, so ask the version).
            self.wfile.write(payload)
            return
        self._headers_buffer.append(b"\r\n" + payload)
        self.flush_headers()

    def _read_json(self) -> dict | None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:  # "abc", "1.5": no body length to trust
            length = 0
        if length <= 0 or length > _MAX_BODY_BYTES:
            # The body (if any) was not read and cannot safely be — a
            # keep-alive read would misparse it as the next request, so
            # the connection is closed with the refusal.
            self._reply(400, _error(
                "bad_request", "body must be JSON with a Content-Length "
                f"between 1 and {_MAX_BODY_BYTES} bytes",
            ), close=True)
            return None
        raw = self.rfile.read(length)  # always drained, even on a 400
        try:
            body = json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            self._reply(400, _error("bad_request", "body is not valid JSON"))
            return None
        if not isinstance(body, dict):
            self._reply(400, _error("bad_request", "body must be an object"))
            return None
        return body

    # -- routes ---------------------------------------------------------

    def do_GET(self) -> None:
        service = self.server.service
        path, _, query = self.path.partition("?")
        params = parse_qs(query)
        recorder = service.flight_recorder
        if path == "/healthz":
            status = service.status()
            code = 503 if status["status"] == "draining" else 200
            self._reply(code, status)
        elif path == "/metrics":
            if (params.get("format") or ["json"])[-1] == "prom":
                self._reply(200, to_prometheus(service.metrics),
                            PROM_CONTENT_TYPE)
            else:
                self._reply(200, service.metrics.snapshot())
        elif path.startswith("/debug/") and recorder is None:
            self._reply(404, _error("not_found",
                                    "live observability is disabled"))
        elif path == "/debug/queries":
            raw = (params.get("n") or [None])[-1]
            try:
                limit = None if raw is None else max(0, int(raw))
            except ValueError:
                self._reply(400, _error("bad_request",
                                        "'n' must be an integer"))
                return
            self._reply(200, {"queries": recorder.queries(limit)})
        elif path.startswith("/debug/trace/"):
            raw = path[len("/debug/trace/"):]
            try:
                query_id = int(raw)
            except ValueError:
                self._reply(400, _error(
                    "bad_request",
                    f"query id must be an integer, got {raw!r}",
                ))
                return
            trace = recorder.trace(query_id)
            if trace is None:
                self._reply(404, _error(
                    "not_found", f"no trace captured for query {query_id} "
                    "(only queries over the slow threshold are traced, "
                    "oldest are evicted)",
                ))
                return
            self._reply(200, trace)
        else:
            self._reply(404, _error("not_found", f"no route {self.path!r}"))

    def do_POST(self) -> None:
        if self.path != "/query":
            self._reply(404, _error("not_found", f"no route {self.path!r}"))
            return
        body = self._read_json()
        if body is None:
            return
        sql = body.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            self._reply(400, _error("bad_request",
                                    "body needs a non-empty 'sql' string"))
            return
        timeout = body.get("timeout_seconds")
        # ``True`` is an int and Python's json parses NaN and ±Infinity;
        # none of them is a deadline.
        if timeout is not None and (
            isinstance(timeout, bool) or not isinstance(timeout, (int, float))
            or not 0 < timeout <= sys.float_info.max
        ):
            self._reply(400, _error(
                "bad_request",
                "'timeout_seconds' must be a positive, finite number",
            ))
            return
        try:
            outcome = self.server.service.submit(sql, timeout_seconds=timeout)
        except ServiceError as exc:
            self._reply(exc.http_status, exc.payload(),
                        retry_after=getattr(exc, "retry_after_seconds", None))
            return
        self._reply(200, {
            "query_id": outcome.query_id,
            "table": outcome.table,
            "rows": [list(row) for row in outcome.rows],
            "elapsed_seconds": round(outcome.elapsed_seconds, 6),
            "rung": outcome.rung,
            "retries": outcome.retries,
            "cache_hit": outcome.cache_hit,
        })


def _error(code: str, message: str) -> dict:
    return {"error": code, "message": message}


def create_server(service: QueryService, host: str = "127.0.0.1",
                  port: int = 8642) -> ServiceHTTPServer:
    """Bind the socket and return the server (``port=0`` = OS-assigned;
    read the choice back from ``server.server_port``)."""
    return ServiceHTTPServer((host, port), service)


def serve(service: QueryService, host: str = "127.0.0.1",
          port: int = 8642, install_signals: bool = True,
          server: ServiceHTTPServer | None = None,
          ready: threading.Event | None = None) -> ServiceHTTPServer:
    """Run the HTTP server until SIGTERM/SIGINT, then drain and return.

    Blocks the calling thread.  Pass a pre-bound ``server`` (from
    :func:`create_server`) when the caller needs the port before the
    loop starts; ``ready`` (if given) is set just before serving.
    """
    if server is None:
        server = create_server(service, host, port)

    def _drain_and_stop() -> None:
        service.drain()
        server.shutdown()

    if install_signals:
        def _on_signal(signum, frame):
            # Signal context: do the blocking drain on a helper thread.
            threading.Thread(target=_drain_and_stop, daemon=True).start()

        signal.signal(signal.SIGTERM, _on_signal)
        signal.signal(signal.SIGINT, _on_signal)
    if ready is not None:
        ready.set()
    try:
        server.serve_forever(poll_interval=0.1)
    finally:
        server.server_close()
    return server
