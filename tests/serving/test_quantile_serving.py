"""Quantile serving invariants (ISSUE 10 satellite).

- Every response from a quantile-head checkpoint carries monotone
  P10 ≤ P50 ≤ P90 intervals, on both call paths.
- Cache hits return the exact floats the cold compute produced.
- Interval fields are identical between one process behind the threaded
  server and a 4-shard fleet behind the router (JSON round-trips doubles
  exactly, so ``==`` on parsed floats is bitwise equality).
"""

import copy
import http.client
import json
import threading

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


def _make_service(q_checkpoint, dataset, scale):
    return PredictionService.from_checkpoint(
        str(q_checkpoint),
        copy.deepcopy(dataset),
        scale.features,
        serving_config=ServingConfig(max_batch=8),
        registry=MetricsRegistry(),
    )


@pytest.fixture(scope="module")
def q_service(q_checkpoint, dataset, scale):
    service = _make_service(q_checkpoint, dataset, scale)
    yield service
    service.close()


def _queries(scale, n, offset=0):
    L = scale.features.window_minutes
    return [(i % 3, 1 + i % 3, L + 17 * i + offset) for i in range(n)]


# ----------------------------------------------------------------------
# Service-level invariants
# ----------------------------------------------------------------------


def test_every_path_returns_monotone_intervals(q_service, scale):
    triples = _queries(scale, 6)
    single = [q_service.predict(*t) for t in triples]
    batch = q_service.predict_batch(_queries(scale, 6, offset=1))
    repeated = q_service.predict_batch(_queries(scale, 6, offset=2) * 2)
    for result in (*single, *batch, *repeated):
        assert result.intervals is not None
        p10, p50, p90 = (result.intervals[k] for k in ("p10", "p50", "p90"))
        assert p10 <= p50 <= p90
        assert list(result.intervals) == ["p10", "p50", "p90"]
    assert q_service.stats()["quantiles"] is True


def test_cache_hits_repeat_cold_intervals_exactly(q_service, scale):
    (triple,) = _queries(scale, 1, offset=500)
    cold = q_service.predict(*triple)
    hit = q_service.predict(*triple)
    assert cold.cached is False and hit.cached is True
    assert hit.gap == cold.gap
    assert hit.intervals == cold.intervals
    # Within-batch duplicates mirror the cache hit too.
    first, dup = q_service.predict_batch([triple, triple])
    assert dup.cached is True
    assert dup.intervals == first.intervals == cold.intervals


def test_point_only_checkpoints_have_no_intervals(checkpoint, dataset, scale):
    service = _make_service(checkpoint, dataset, scale)
    try:
        result = service.predict(0, 1, 400)
        assert result.intervals is None
        assert service.stats()["quantiles"] is False
    finally:
        service.close()


# ----------------------------------------------------------------------
# Front-end byte identity
# ----------------------------------------------------------------------


def _raw_post(address, path, body) -> bytes:
    host, _, port = address.rpartition(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=30)
    try:
        conn.request(
            "POST", path, body=json.dumps(body),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        data = response.read()
        assert response.status == 200, data
        return data
    finally:
        conn.close()


def _script(scale):
    """The request script every front-end replays from a cold start."""
    triples = _queries(scale, 4, offset=3)
    items = [
        {"area": a, "day": d, "timeslot": t} for a, d, t in triples
    ]
    return [
        ("/predict", items[0]),
        ("/predict", items[1]),
        ("/predict", items[0]),  # exact repeat → cache hit everywhere
        ("/predict_batch", {"items": [items[2], items[3], items[2]]}),
    ]


@pytest.fixture(scope="module")
def fleet_address(q_checkpoint, dataset, tmp_path_factory):
    city = tmp_path_factory.mktemp("q_city") / "city.npz"
    dataset.save(city)
    fleet = FleetSupervisor(
        FleetConfig(
            city=str(city),
            checkpoint=str(q_checkpoint),
            scale="tiny",
            workers=4,
            shard_by="area-slot",
            run_dir=str(tmp_path_factory.mktemp("q_fleet_run")),
        ),
        registry=MetricsRegistry(),
    )
    fleet.start()
    server = build_router(fleet)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield "127.0.0.1:%d" % server.server_address[1]
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    fleet.shutdown()


def test_intervals_byte_identical_across_frontends(
    q_checkpoint, dataset, scale, fleet_address
):
    script = _script(scale)
    service = _make_service(q_checkpoint, dataset, scale)
    server = build_server(service)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    address = "127.0.0.1:%d" % server.server_address[1]
    try:
        replies = [_raw_post(address, path, body) for path, body in script]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        service.close()

    fleet_replies = [
        json.loads(_raw_post(fleet_address, path, body))
        for path, body in script
    ]
    local = [json.loads(data) for data in replies]
    for path_body, expected, got in zip(script, local, fleet_replies):
        # Parsed equality on JSON doubles is bitwise equality per field —
        # gap, p10, p50, p90, version and cached all must match.
        assert got == expected, path_body

    # And the intervals in every reply are monotone on the wire.
    for payload in local:
        rows = payload.get("results", [payload])
        for row in rows:
            assert row["p10"] <= row["p50"] <= row["p90"]
