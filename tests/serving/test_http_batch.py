"""The ``/predict_batch`` endpoint over the threaded HTTP front-end.

Pins the batch endpoint's bitwise-equality contract against per-item
``/predict`` calls, its input validation, and that the front-end puts
exactly the application's response bytes on the wire.
"""

import copy
import http.client
import json
import threading

import pytest

from repro.obs import MetricsRegistry
from repro.serving import PredictionService, ServiceApp, ServingConfig, build_server
from repro.serving.router import request_json

pytestmark = pytest.mark.serving


def _service(checkpoint, dataset, scale):
    return PredictionService.from_checkpoint(
        str(checkpoint),
        copy.deepcopy(dataset),
        scale.features,
        serving_config=ServingConfig(max_batch=8),
        registry=MetricsRegistry(),
    )


@pytest.fixture()
def endpoint(checkpoint, dataset, scale):
    service = _service(checkpoint, dataset, scale)
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    address = "127.0.0.1:%d" % server.server_address[1]
    yield address, service
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    service.close()


def _items(scale, n, offset=0):
    L = scale.features.window_minutes
    return [
        {"area": i % 2, "day": 1 + i % 3, "timeslot": L + 10 * i + offset}
        for i in range(n)
    ]


def test_predict_batch_matches_per_item_predicts(endpoint, scale):
    address, _ = endpoint
    items = _items(scale, 6)
    status, batch = request_json(
        address, "POST", "/predict_batch", {"items": items}
    )
    assert status == 200
    assert batch["count"] == 6 and len(batch["results"]) == 6
    for item, result in zip(items, batch["results"]):
        assert result["cached"] is False  # all cold
        status, single = request_json(address, "POST", "/predict", item)
        assert status == 200
        # JSON round-trips doubles exactly: == here is bitwise equality.
        assert single["gap"] == result["gap"]
        assert single["version"] == result["version"]
        assert single["cached"] is True  # the batch filled the cache


def test_predict_batch_duplicate_items_report_cached(endpoint, scale):
    address, _ = endpoint
    item = _items(scale, 1, offset=640)[0]
    status, batch = request_json(
        address, "POST", "/predict_batch", {"items": [item, item]}
    )
    assert status == 200
    first, second = batch["results"]
    assert first["cached"] is False and second["cached"] is True
    assert first["gap"] == second["gap"]


@pytest.mark.parametrize("body,fragment", [
    ({}, "items"),
    ({"items": []}, "empty"),
    ({"items": "nope"}, "items"),
    ({"items": [{"area": 0}]}, "day"),
    ({"items": [[1, 2, 3]]}, "object"),
    ({"items": [{"area": 99999, "day": 0, "timeslot": 700}]}, "area"),
])
def test_predict_batch_rejects_bad_payloads(endpoint, body, fragment):
    address, _ = endpoint
    status, payload = request_json(address, "POST", "/predict_batch", body)
    assert status == 400
    assert fragment in payload["error"]


def test_predict_batch_size_limit(endpoint, scale):
    address, _ = endpoint
    from repro.serving.app import MAX_BATCH_ITEMS

    items = [{"area": 0, "day": 1, "timeslot": 700}] * (MAX_BATCH_ITEMS + 1)
    status, payload = request_json(
        address, "POST", "/predict_batch", {"items": items}
    )
    assert status == 400 and "limit" in payload["error"]


def test_front_ends_serve_byte_identical_bodies(checkpoint, dataset, scale):
    """The HTTP front-end answers every route with exactly the bytes the
    application renders in-process (headers differ — the stdlib server
    stamps Date/Server — but the payload is the application's alone)."""
    items = _items(scale, 4)
    script = [
        ("POST", "/predict_batch", {"items": items}),
        ("POST", "/predict", items[0]),
        ("GET", "/healthz", None),
        ("POST", "/predict_batch", {"items": "bad"}),
    ]
    direct_service = _service(checkpoint, dataset, scale)
    app = ServiceApp(direct_service)
    try:
        expected = [
            app.handle(
                method, path,
                json.dumps(body).encode() if body is not None else b"",
            ).data
            for method, path, body in script
        ]
    finally:
        direct_service.close()

    service = _service(checkpoint, dataset, scale)
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    connection = http.client.HTTPConnection(
        "127.0.0.1", server.server_address[1], timeout=30
    )
    try:
        wire = []
        for method, path, body in script:
            connection.request(
                method, path,
                body=json.dumps(body) if body is not None else None,
                headers={"Content-Type": "application/json"},
            )
            wire.append(connection.getresponse().read())
    finally:
        connection.close()
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        service.close()
    assert wire == expected
    assert [json.loads(data) for data in wire][3]["error"]
