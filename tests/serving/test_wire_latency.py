"""No reply of the threaded front-end waits on the peer's delayed ACK.

Written as two ``send()`` calls on a socket without ``TCP_NODELAY``, a
reply's body is held back by Nagle's algorithm until the client ACKs the
headers, and a client delays that ACK by ~40 ms.  Every worker and the
fleet router run the threaded front-end, so each hop would pay it.  These
tests pin both halves of the fix: the accepted connection has
``TCP_NODELAY`` set, and sequential keep-alive calls stay far below the
delayed-ACK floor.
"""

import http.client
import json
import socket
import statistics
import threading
import time

import pytest

from repro.obs import MetricsRegistry
from repro.serving import (
    FleetConfig,
    FleetSupervisor,
    PredictionService,
    ServingConfig,
    build_router,
    build_server,
)

pytestmark = pytest.mark.serving

CALLS = 50
#: Far below the ~40 ms delayed-ACK stall, far above a localhost round trip.
CEILING_MS = 20.0


def _track_accepted(server):
    """Record every connection ``server`` accepts (install before serving)."""
    accepted = []
    get_request = server.get_request

    def tracking():
        connection, address = get_request()
        accepted.append(connection)
        return connection, address

    server.get_request = tracking
    return accepted


def _median_ms(connection, method, path, body=None):
    """Median wall-clock of ``CALLS`` sequential calls on one connection."""
    data = json.dumps(body).encode() if body is not None else None
    headers = {"Content-Type": "application/json"} if data is not None else {}
    times = []
    for _ in range(CALLS):
        started = time.perf_counter()
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        response.read()
        times.append((time.perf_counter() - started) * 1000.0)
        assert response.status == 200
    return statistics.median(times)


def _assert_no_stall(server, accepted):
    port = server.server_address[1]
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        healthz_ms = _median_ms(connection, "GET", "/healthz")
        predict_ms = _median_ms(
            connection, "POST", "/predict",
            {"area": 1, "day": 2, "timeslot": 90},
        )
        # One keep-alive connection carried all the calls.
        assert len(accepted) == 1
        assert accepted[0].getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
    finally:
        connection.close()
    assert healthz_ms < CEILING_MS, healthz_ms
    assert predict_ms < CEILING_MS, predict_ms


def test_threaded_server_replies_without_delayed_ack_stall(
    checkpoint, dataset, scale
):
    service = PredictionService.from_checkpoint(
        checkpoint,
        dataset,
        scale.features,
        serving_config=ServingConfig(max_batch=8),
        registry=MetricsRegistry(),
    )
    server = build_server(service)
    accepted = _track_accepted(server)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        _assert_no_stall(server, accepted)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        service.close()


def test_router_replies_without_delayed_ack_stall(
    dataset, checkpoint, tmp_path_factory
):
    """Through the router every call crosses two threaded front-ends
    (router, then worker), so a stall on either hop shows."""
    city = tmp_path_factory.mktemp("wire_city") / "city.npz"
    dataset.save(city)
    fleet = FleetSupervisor(
        FleetConfig(
            city=str(city),
            checkpoint=str(checkpoint),
            scale="tiny",
            workers=2,
            run_dir=str(tmp_path_factory.mktemp("wire_fleet_run")),
        ),
        registry=MetricsRegistry(),
    )
    fleet.start()
    server = build_router(fleet)
    accepted = _track_accepted(server)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        _assert_no_stall(server, accepted)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        fleet.shutdown()
