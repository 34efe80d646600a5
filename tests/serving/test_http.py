"""HTTP endpoint round-trip against an in-process server on a free port."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.serving import PredictionService, ServingConfig, build_server

pytestmark = pytest.mark.serving


@pytest.fixture()
def served(checkpoint, mutable_dataset, scale):
    service = PredictionService.from_checkpoint(
        checkpoint,
        mutable_dataset,
        scale.features,
        serving_config=ServingConfig(max_batch=8),
        registry=MetricsRegistry(),
        trace=Tracer(enabled=True),
    )
    server = build_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    yield base, service
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    service.close()


def _post(base, path, payload):
    request = urllib.request.Request(
        base + path,
        json.dumps(payload).encode(),
        {"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10) as response:
        return response.status, json.loads(response.read())


def _get(base, path):
    with urllib.request.urlopen(base + path, timeout=10) as response:
        return response.status, json.loads(response.read())


def test_predict_round_trip(served):
    base, service = served
    status, body = _post(base, "/predict", {"area": 0, "day": 2, "timeslot": 60})
    assert status == 200
    assert set(body) == {"gap", "version", "cached"}
    assert body["version"] == service.version
    assert body["cached"] is False

    status, again = _post(base, "/predict", {"area": 0, "day": 2, "timeslot": 60})
    assert status == 200
    assert again["cached"] is True
    assert again["gap"] == body["gap"]


def test_healthz_and_stats(served):
    base, service = served
    status, health = _get(base, "/healthz")
    assert status == 200
    assert health == {"status": "ok", "version": service.version}

    _post(base, "/predict", {"area": 1, "day": 3, "timeslot": 120})
    status, stats = _get(base, "/stats")
    assert status == 200
    assert stats["version"] == service.version
    assert stats["cache"]["misses"] >= 1


def test_observe_round_trip(served):
    base, _ = served
    _post(base, "/predict", {"area": 2, "day": 3, "timeslot": 110})
    status, outcome = _post(
        base,
        "/observe",
        {"kind": "traffic", "day": 3, "minute": 100, "area": 2,
         "values": {"level_counts": [5, 2, 1, 0]}},
    )
    assert status == 200
    assert outcome["invalidated"] == 1


def test_bad_requests_are_400s(served):
    base, _ = served
    for path, payload in [
        ("/predict", {"area": 999, "day": 2, "timeslot": 60}),
        ("/predict", {"area": 0}),
        ("/observe", {"kind": "nope", "day": 0, "minute": 0}),
        ("/predict", None),  # no JSON object
    ]:
        request = urllib.request.Request(
            base + path,
            json.dumps(payload).encode(),
            {"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        assert "error" in json.loads(excinfo.value.read())


def test_truncated_content_length_is_400_not_hang(served):
    """A client advertising more body than it sends must get a clean 400.

    The old single ``rfile.read(length)`` could also return *fewer* bytes
    and silently parse a prefix; the read loop either gets every
    advertised byte or fails loudly when the connection ends short."""
    base, _ = served
    port = int(base.rsplit(":", 1)[1])
    body = b'{"area": 0, '  # 12 bytes of a valid-looking prefix
    request = (
        b"POST /predict HTTP/1.1\r\n"
        b"Host: 127.0.0.1\r\n"
        b"Content-Type: application/json\r\n"
        b"Content-Length: 100\r\n"
        b"Connection: close\r\n"
        b"\r\n"
    ) + body
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)  # connection ends 88 bytes short
        sock.settimeout(10)
        raw = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            raw += chunk
    head, _, payload = raw.partition(b"\r\n\r\n")
    assert b"400" in head.split(b"\r\n", 1)[0]
    error = json.loads(payload)["error"]
    assert "truncated" in error
    assert "12 of 100" in error


def test_http09_request_gets_the_bare_body(served):
    """An HTTP/0.9 ``GET`` is answered with the body alone (no status
    line, no headers) and the connection closes."""
    base, service = served
    port = int(base.rsplit(":", 1)[1])
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.sendall(b"GET /healthz\r\n\r\n")
        raw = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                break
            raw += chunk
    assert json.loads(raw) == {"status": "ok", "version": service.version}


def test_unknown_path_is_404(served):
    base, _ = served
    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(base + "/nope", timeout=10)
    assert excinfo.value.code == 404


def test_metrics_endpoint_serves_prometheus_text(served):
    base, _ = served
    _post(base, "/predict", {"area": 0, "day": 2, "timeslot": 90})
    with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/plain")
        text = response.read().decode()
    assert "# TYPE repro_serving_requests counter" in text
    assert "# TYPE repro_serving_request_seconds summary" in text
    assert 'repro_serving_request_seconds{quantile="0.99"}' in text
    assert "repro_serving_request_seconds_count 1" in text


def test_trace_endpoint_returns_span_tree(served):
    base, service = served
    _post(base, "/predict", {"area": 1, "day": 2, "timeslot": 90})
    status, body = _get(base, "/trace")
    assert status == 200
    assert body["enabled"] is True
    names = {span["name"] for span in body["spans"]}
    assert {"http.handle", "serving.predict", "batcher.batch"} <= names
    handle = next(s for s in body["spans"] if s["name"] == "http.handle")
    predict = next(s for s in body["spans"] if s["name"] == "serving.predict")
    assert predict["parent_id"] == handle["span_id"]

    status, limited = _get(base, "/trace?limit=2")
    assert status == 200 and len(limited["spans"]) == 2

    with pytest.raises(urllib.error.HTTPError) as excinfo:
        urllib.request.urlopen(base + "/trace?limit=-1", timeout=10)
    assert excinfo.value.code == 400


def test_shutdown_replies_cleanly_and_drains_handlers(
    checkpoint, mutable_dataset, scale
):
    """The /shutdown acknowledgement must be on the wire before the server
    exits: the reply is sent, serve_forever returns, and server_close joins
    the outstanding handler thread instead of racing it."""
    service = PredictionService.from_checkpoint(
        checkpoint,
        mutable_dataset,
        scale.features,
        serving_config=ServingConfig(max_batch=8),
    )
    server = build_server(service, host="127.0.0.1", port=0)
    thread = threading.Thread(
        target=lambda: (server.serve_forever(), server.server_close()),
        daemon=True,
    )
    thread.start()
    base = f"http://127.0.0.1:{server.server_address[1]}"
    try:
        status, body = _post(base, "/shutdown", {})
        assert status == 200
        assert body == {"status": "shutting down"}
        with server._handler_lock:
            handlers = list(server._handler_threads)
        thread.join(timeout=10)
        assert not thread.is_alive()
        # server_close drained every tracked handler thread (the snapshot
        # may already be empty if close won the race — also a clean drain).
        for handler in handlers:
            assert not handler.is_alive()
        assert not server._handler_threads
    finally:
        service.close()
