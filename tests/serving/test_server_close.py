"""Closing a threaded front-end never waits on idle keep-alive clients.

A handler thread serving a keep-alive connection parks in ``readline()``
waiting for the client's next request.  ``server_close`` joins handler
threads so in-flight replies are flushed, and it used to wait out its
whole ``handler_join_timeout`` on such idle threads.  It now shuts the
read side of every open connection first, so a parked handler sees EOF
at once.  Both the worker front-end and the router run this server.
"""

import http.client
import threading
import time

import pytest

from repro.obs import MetricsRegistry
from repro.serving import PredictionService, ServingConfig, build_router, build_server

pytestmark = pytest.mark.serving


class _IdleFleet:
    """The slice of the fleet surface the router touches for ``/healthz``."""

    def __init__(self):
        self.registry = MetricsRegistry()
        self.workers = []

    def healthz(self):
        return 200, {"status": "ok"}


def _close_time_with_idle_client(server):
    """Seconds ``shutdown()`` + ``server_close()`` take while one client
    holds an idle keep-alive connection."""
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=30
    )
    try:
        connection.request("GET", "/healthz")
        response = connection.getresponse()
        response.read()
        assert response.status == 200
        assert not response.will_close  # the connection stays open, idle
        started = time.monotonic()
        server.shutdown()
        server.server_close()
        elapsed = time.monotonic() - started
    finally:
        connection.close()
        thread.join(timeout=10)
    return elapsed


def test_worker_server_closes_without_waiting_on_idle_connection(
    checkpoint, dataset, scale
):
    service = PredictionService.from_checkpoint(
        checkpoint,
        dataset,
        scale.features,
        serving_config=ServingConfig(max_batch=8),
        registry=MetricsRegistry(),
    )
    try:
        server = build_server(service)
        elapsed = _close_time_with_idle_client(server)
    finally:
        service.close()
    assert elapsed < server.handler_join_timeout / 2, elapsed


def test_router_closes_without_waiting_on_idle_connection():
    server = build_router(_IdleFleet())
    try:
        elapsed = _close_time_with_idle_client(server)
    finally:
        server.router_coalescer.close()
    assert elapsed < server.handler_join_timeout / 2, elapsed
