"""Router-level batching: coalescing, scatter-gather, kill-resilience.

Cross-process twins of the in-process ``predict_batch`` properties: a
4-shard fleet answering ``/predict_batch`` through the router must be
bitwise-identical to a local single-process service answering the same
items sequentially; concurrent single ``/predict`` requests coalesced
into upstream batch calls must be indistinguishable from proxied
singles; and a SIGKILLed worker mid-batch-load costs zero failed items.
"""

import threading

import pytest

from repro.city import CityDataset
from repro.obs import MetricsRegistry
from repro.serving import (
    FleetConfig,
    FleetSupervisor,
    PredictionService,
    ServingConfig,
    build_router,
    close_pools,
)
from repro.serving.router import request_json

from .fleet_load import kill_under_load

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def city_path(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("router_batch_city") / "city.npz"
    dataset.save(path)
    return str(path)


def _reference_service(city_path, checkpoint, scale):
    return PredictionService.from_checkpoint(
        checkpoint,
        CityDataset.load(city_path),
        scale.features,
        serving_config=ServingConfig(max_batch=32),
        registry=MetricsRegistry(),
    )


@pytest.fixture(scope="module")
def fleet4(city_path, checkpoint, tmp_path_factory):
    fleet = FleetSupervisor(
        FleetConfig(
            city=city_path,
            checkpoint=str(checkpoint),
            scale="tiny",
            workers=4,
            shard_by="area-slot",
            run_dir=str(tmp_path_factory.mktemp("fleet4b_run")),
        ),
        registry=MetricsRegistry(),
    )
    fleet.start()
    server = build_router(fleet)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    address = "127.0.0.1:%d" % server.server_address[1]
    yield fleet, address, server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    fleet.shutdown()


def _some_items(scale, n, offset=0):
    L = scale.features.window_minutes
    hi = 1440 - scale.features.gap_minutes
    return [
        {
            "area": i % 4,
            "day": 1 + i % 4,
            "timeslot": L + (offset + 17 * i) % (hi - L),
        }
        for i in range(n)
    ]


def test_router_predict_batch_is_bitwise_identical_to_one_process(
    fleet4, city_path, checkpoint, scale
):
    fleet, address, _ = fleet4
    reference = _reference_service(city_path, str(checkpoint), scale)
    try:
        items = _some_items(scale, 24)
        status, payload = request_json(
            address, "POST", "/predict_batch", {"items": items}
        )
        assert status == 200
        assert payload["count"] == len(items)
        # Items hit all four shards (the scatter is real).
        shards = {
            fleet.shard_for_query(item["area"], item["timeslot"])
            for item in items
        }
        assert len(shards) == 4
        for item, result in zip(items, payload["results"]):
            local = reference.predict(
                item["area"], item["day"], item["timeslot"]
            )
            assert result["gap"] == local.gap, item
            assert result["version"] == local.version
    finally:
        reference.close()


def test_router_batch_rejections_are_whole_batch(fleet4):
    _, address, _ = fleet4
    items = [{"area": 0, "day": 1, "timeslot": 700},
             {"area": 99999, "day": 1, "timeslot": 700}]
    status, payload = request_json(
        address, "POST", "/predict_batch", {"items": items}
    )
    assert status == 400 and "error" in payload
    status, payload = request_json(
        address, "POST", "/predict_batch", {"items": []}
    )
    assert status == 400


def test_concurrent_singles_coalesce_into_upstream_batches(
    fleet4, city_path, checkpoint, scale
):
    """Bursts of concurrent ``/predict`` requests must ride shared
    upstream ``/predict_batch`` calls (the coalesced counter moves) and
    still answer every request bitwise-correctly."""
    fleet, address, server = fleet4
    reference = _reference_service(city_path, str(checkpoint), scale)
    coalescer = server.router_coalescer
    before = fleet.registry.counters.get(
        "repro.fleet.router.coalesced_items", 0
    )
    try:
        # Submit a burst directly through the coalescer (as the router's
        # handler threads do): submission is microseconds, one upstream
        # HTTP call is milliseconds, so batches must form.
        items = _some_items(scale, 40, offset=200)
        futures = [
            coalescer.submit(dict(item)) for item in items
        ]
        for item, future in zip(items, futures):
            status, payload = future.result(timeout=60)
            assert status == 200, payload
            local = reference.predict(
                item["area"], item["day"], item["timeslot"]
            )
            assert payload["gap"] == local.gap, item
        after = fleet.registry.counters.get(
            "repro.fleet.router.coalesced_items", 0
        )
        assert after > before, "no upstream batch ever formed"
    finally:
        reference.close()


def test_killed_worker_mid_batch_costs_zero_items(
    city_path, checkpoint, scale, tmp_path_factory
):
    """SIGKILL one of two workers while batch requests are in flight:
    the coalescer retries whole upstream batches against the respawned
    shard, so every item of every batch completes, bitwise-correct."""
    fleet = FleetSupervisor(
        FleetConfig(
            city=city_path,
            checkpoint=str(checkpoint),
            scale="tiny",
            workers=2,
            shard_by="area-slot",
            run_dir=str(tmp_path_factory.mktemp("fleet2b_run")),
            poll_interval=0.1,
        ),
        registry=MetricsRegistry(),
    )
    fleet.start()
    server = build_router(fleet)
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    address = "127.0.0.1:%d" % server.server_address[1]
    reference = _reference_service(city_path, str(checkpoint), scale)
    failures = []
    mismatches = []

    seeds = (5, 105, 205)

    def send(client, round_index):
        seed = seeds[client]
        items = _some_items(scale, 16, offset=seed + 37 * round_index)
        try:
            status, payload = request_json(
                address, "POST", "/predict_batch", {"items": items},
                timeout=120.0,
            )
        except Exception as error:  # noqa: BLE001 — recorded, asserted
            failures.append((seed, round_index, repr(error)))
            return
        if status != 200 or len(payload.get("results", [])) != len(items):
            failures.append((seed, round_index, payload))
            return
        for item, result in zip(items, payload["results"]):
            local = reference.predict(
                item["area"], item["day"], item["timeslot"]
            )
            if result["gap"] != local.gap:
                mismatches.append((item, result["gap"], local.gap))

    try:
        victim = fleet.workers[0]
        # SIGKILL mid-batch: the clients keep sending from their first
        # replies until after the respawn.
        after_kill = kill_under_load(fleet, victim, send, clients=len(seeds))
        assert min(after_kill) >= 1, after_kill
        assert not failures, failures
        assert not mismatches, mismatches
        assert fleet.respawns >= 1
        assert victim.ready.is_set()
    finally:
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=10)
        fleet.shutdown()
        reference.close()


def test_close_pools_releases_every_threads_connections(fleet4):
    """The keep-alive leak fix: connections opened by OTHER threads are
    closable at shutdown, and closed pools transparently reconnect."""
    _, address, _ = fleet4

    def hit():
        status, _ = request_json(address, "GET", "/healthz")
        assert status == 200

    worker = threading.Thread(target=hit)
    worker.start()
    worker.join(timeout=30)
    hit()  # this thread's pool too
    closed = close_pools()
    assert closed >= 2  # at least this thread's + the worker thread's
    assert close_pools() == 0  # idempotent: everything already released
    hit()  # stale-pool reconnect path still works after the sweep
