"""Threaded stdlib HTTP front-end for :class:`PredictionService`.

A threading HTTP server (one thread per connection — exactly the
concurrency shape the micro-batcher coalesces) framing the routes of
:class:`repro.serving.app.ServiceApp`:

- ``POST /predict``  ``{"area": int, "day": int, "timeslot": int}`` →
  ``{"gap": float, "version": str, "cached": bool}``;
- ``POST /predict_batch``  ``{"items": [{area, day, timeslot}, ...]}`` →
  ``{"results": [...], "count": int}`` — bitwise-identical to issuing
  the items as sequential ``/predict`` calls;
- ``POST /observe``  ``{"kind": "weather"|"traffic"|"orders", "day": int,
  "minute": int, "area": int?, "values": {...}}`` →
  ``{"invalidated": int, "profiles_dropped": int}``;
- ``GET /healthz``   liveness + current checkpoint version;
- ``GET /stats``     :meth:`PredictionService.stats`;
- ``GET /metrics``   Prometheus text exposition of the service registry
  (serving latency percentiles included — see ``docs/observability.md``);
- ``GET /trace?limit=N`` the newest ``N`` completed spans from the
  service tracer as JSON (empty unless tracing is enabled);
- ``POST /reload``   ``{"checkpoint": path}`` → hot-swap the engine to
  that checkpoint bundle and return the new ``{"version": str}``;
- ``POST /shutdown`` clean stop (used by the smoke test and the fleet
  supervisor).

Invalid inputs are 400s with an ``{"error": ...}`` body; unexpected
failures are 500s.  No dependencies beyond the standard library.

Handler threads are daemons (a hung connection can never pin the
process), but they are *tracked* and joined — with a short timeout —
when the server closes, so an in-flight reply (the ``/shutdown``
acknowledgement in particular) is flushed before the process exits
rather than racing it.  Idle keep-alive connections are shut for
reading first, so closing never waits on a client that keeps its
connection open.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..exceptions import ConfigError, DataError
from ..obs import get_logger
from .app import MAX_BODY_BYTES, Response, ServiceApp
from .service import PredictionService

__all__ = ["build_server", "make_threaded_handler", "serve_forever"]

_log = get_logger(__name__)


class _JoiningHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer that joins its handler threads on close.

    The stock ``ThreadingHTTPServer`` sets ``daemon_threads = True`` and
    therefore never joins handlers: ``serve_forever`` can return (after a
    ``shutdown()``) while a handler thread is still writing its response,
    and a process that exits right after loses the reply — the
    ``/shutdown`` race.  This subclass keeps the daemon property but
    tracks live handler threads and joins each for up to
    ``handler_join_timeout`` seconds total in :meth:`server_close`.

    A handler serving a keep-alive connection parks in ``readline()``
    between requests, so :meth:`server_close` first shuts the read side
    of every open connection: a parked handler then sees EOF at once,
    while writes are untouched and an in-flight reply still goes out.
    """

    daemon_threads = True
    #: Total time budget for draining handler threads at close.
    handler_join_timeout = 5.0

    def __init__(self, *args, **kwargs) -> None:
        self._handler_threads: set = set()
        self._connections: set = set()
        self._handler_lock = threading.Lock()
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        thread = threading.Thread(
            target=self.process_request_thread,
            args=(request, client_address),
            daemon=True,
        )
        with self._handler_lock:
            self._handler_threads = {
                t for t in self._handler_threads if t.is_alive()
            }
            self._handler_threads.add(thread)
            self._connections.add(request)
        thread.start()

    def shutdown_request(self, request) -> None:
        with self._handler_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        super().server_close()
        with self._handler_lock:
            threads, self._handler_threads = self._handler_threads, set()
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RD)
            except OSError:  # already closed by its handler
                pass
        deadline = time.monotonic() + self.handler_join_timeout
        for thread in threads:
            if thread is threading.current_thread():
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            thread.join(timeout=remaining)


def make_threaded_handler(app, logger, log_event: str):
    """A ``BaseHTTPRequestHandler`` subclass framing ``app``'s responses.

    The adapter owns the wire only: it collects the request body with the
    short-read-hardened loop (a truncated ``Content-Length`` is a loud
    400, never a silently parsed prefix), hands ``(method, target,
    body)`` to the app, writes the framed reply, and — for responses
    flagged ``shutdown`` — runs the server's ``shutdown_action`` on a
    separate thread *after* the reply is on its way (``server_close``
    joins this handler thread, so the acknowledgement is flushed before
    the process exits).
    """

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        # TCP_NODELAY on every accepted connection (set by the stdlib's
        # StreamRequestHandler.setup), so no reply — the stdlib's own
        # send_error ones included — waits on the peer's delayed ACK.
        disable_nagle_algorithm = True

        def do_GET(self) -> None:  # noqa: N802 — BaseHTTPRequestHandler API
            self._dispatch("GET")

        def do_POST(self) -> None:  # noqa: N802
            self._dispatch("POST")

        def _dispatch(self, method: str) -> None:
            try:
                body = self._read_body()
            except (DataError, ConfigError) as error:
                self._send(Response(
                    400, json.dumps({"error": str(error)}).encode("utf-8")
                ))
                return
            response = app.handle(method, self.path, body)
            self._send(response)
            if response.shutdown:
                # Reply BEFORE triggering shutdown: the action blocks
                # until serve_forever returns, so it must run off this
                # handler thread.  server_close then joins this thread,
                # so the reply is flushed before the process exits.
                action = getattr(self.server, "shutdown_action", None)
                threading.Thread(
                    target=action if action is not None else self.server.shutdown,
                    daemon=True,
                ).start()

        # --------------------------------------------------------------
        # Plumbing
        # --------------------------------------------------------------

        def _read_body(self) -> bytes:
            length = int(self.headers.get("Content-Length", 0))
            if length <= 0:
                return b""
            if length > MAX_BODY_BYTES:
                raise DataError(
                    f"request body larger than {MAX_BODY_BYTES} bytes"
                )
            # A single read() may return fewer bytes than Content-Length
            # (slow client, small socket buffers); loop until the full
            # body arrives or the connection ends short.
            chunks = []
            remaining = length
            while remaining > 0:
                chunk = self.rfile.read(remaining)
                if not chunk:
                    raise DataError(
                        f"truncated request body: got {length - remaining} "
                        f"of {length} bytes"
                    )
                chunks.append(chunk)
                remaining -= len(chunk)
            return b"".join(chunks)

        def _send(self, response: Response) -> None:
            self.send_response(response.status)
            self.send_header("Content-Type", response.content_type)
            self.send_header("Content-Length", str(len(response.data)))
            # Status line, headers and body leave in one sendall: written
            # as two, Nagle would hold the body back until the peer's
            # delayed ACK of the headers (~40 ms per reply).
            if self.request_version != "HTTP/0.9":
                self._headers_buffer.extend((b"\r\n", response.data))
                self.flush_headers()
            else:
                self.wfile.write(response.data)

        def log_message(self, format: str, *args) -> None:  # noqa: A002
            # Route access logs into the structured logger at debug level
            # instead of raw stderr lines.
            import logging

            logger.event(log_event, level=logging.DEBUG, detail=format % args)

    return Handler


def build_server(
    service: PredictionService,
    host: str = "127.0.0.1",
    port: int = 0,
):
    """An HTTP server bound to ``host:port`` (0 picks a free port).

    The caller owns the lifecycle: ``server.serve_forever()`` to run,
    ``server.shutdown()``/``server.server_close()`` to stop.  The bound
    address is ``server.server_address``.  Closing drains outstanding
    replies so none is lost.
    """
    handler = make_threaded_handler(ServiceApp(service), _log, "serving.http")
    server = _JoiningHTTPServer((host, port), handler)
    server.shutdown_action = server.shutdown
    return server


def serve_forever(server, service: PredictionService) -> None:
    """Run until ``shutdown()``, then close the socket and the service.

    Closing joins outstanding handler work (short timeout), so the
    ``/shutdown`` acknowledgement is on the wire by the time this
    function — and typically the process — exits.
    """
    try:
        server.serve_forever()
    finally:
        server.server_close()
        service.close()
