"""The sharded fleet: cross-process parity, supervision, aggregation.

The serving contract ("batched responses are bitwise-identical to
single-query ``Trainer.predict``; observations invalidate exactly the
staled entries") was proven in-process by the property tests.  These
tests re-assert it as a *cross-process* invariant: a 4-shard fleet
answering a randomized predict/observe interleaving must be bitwise
identical to one local :class:`PredictionService` holding the same city
and checkpoint, and the fleet-wide summed invalidation counts must equal
the single-process counts (each cached entry lives on exactly one
shard, so the partitioned caches sum to the whole).

Worker startup is real process spawning — the fleet fixtures are
module-scoped to pay it once.
"""

import copy
import json
import os
import shutil
import threading
import time

import pytest

from repro.city import CityDataset
from repro.exceptions import ConfigError
from repro.obs import MetricsRegistry
from repro.serving import (
    CheckpointWatcher,
    FleetConfig,
    FleetSupervisor,
    PredictionService,
    ServingConfig,
    aggregate_prometheus,
    build_router,
    generate_ops,
    shard_for,
)
from repro.serving.http import _JoiningHTTPServer
from repro.serving.router import request_json, request_text

from .fleet_load import kill_under_load

pytestmark = pytest.mark.serving


# ----------------------------------------------------------------------
# Pure routing / aggregation units (no processes)
# ----------------------------------------------------------------------


def test_shard_for_is_deterministic_and_spreads():
    first = [shard_for(a, t, 4) for a in range(6) for t in range(20, 200)]
    second = [shard_for(a, t, 4) for a in range(6) for t in range(20, 200)]
    assert first == second  # process-stable, unlike builtin hash()
    assert set(first) == {0, 1, 2, 3}  # every shard gets traffic
    # No shard starves or hogs: a BLAKE2b hash over ~1k keys should be
    # roughly balanced (generous 2x bound either way).
    for shard in range(4):
        share = first.count(shard) / len(first)
        assert 0.125 < share < 0.5


def test_shard_for_area_strategy_ignores_timeslot():
    for area in range(10):
        shards = {shard_for(area, t, 3, by="area") for t in range(20, 1400, 37)}
        assert len(shards) == 1


def test_shard_for_validation():
    with pytest.raises(ConfigError):
        shard_for(0, 0, 0)
    with pytest.raises(ConfigError):
        shard_for(0, 0, 2, by="nope")
    assert shard_for(3, 77, 1) == 0


def test_aggregate_prometheus_merges_by_kind():
    texts = [
        "# TYPE repro_x counter\nrepro_x 3\n"
        "# TYPE lat summary\n"
        'lat{quantile="0.5"} 0.2\nlat_sum 1.0\nlat_count 4\n'
        "# TYPE depth gauge\ndepth 2\n",
        "# TYPE repro_x counter\nrepro_x 4\n"
        "# TYPE lat summary\n"
        'lat{quantile="0.5"} 0.5\nlat_sum 2.0\nlat_count 6\n'
        "# TYPE depth gauge\ndepth 5\n",
    ]
    merged = aggregate_prometheus(texts)
    lines = merged.strip().splitlines()
    assert "# TYPE repro_x counter" in lines
    assert "repro_x 7.0" in lines  # counters sum
    assert 'lat{quantile="0.5"} 0.5' in lines  # quantiles take the max
    assert "lat_sum 3.0" in lines  # summary _sum sums
    assert "lat_count 10" in lines  # _count sums, stays integral
    assert "depth 7.0" in lines  # gauges sum
    # One TYPE header per metric, not one per source text.
    assert sum(1 for line in lines if line.startswith("# TYPE lat ")) == 1


# ----------------------------------------------------------------------
# Process fixtures
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def city_path(dataset, tmp_path_factory):
    """The shared tiny city, saved so worker subprocesses can load it."""
    path = tmp_path_factory.mktemp("fleet_city") / "city.npz"
    dataset.save(path)
    return str(path)


def _reference_service(city_path, checkpoint, scale):
    """A local single-process service on the same bytes the fleet loads."""
    return PredictionService.from_checkpoint(
        checkpoint,
        CityDataset.load(city_path),
        scale.features,
        serving_config=ServingConfig(max_batch=32),
        registry=MetricsRegistry(),
    )


@pytest.fixture(scope="module")
def fleet4(city_path, checkpoint, tmp_path_factory):
    """A 4-shard fleet plus router, shared by the parity tests."""
    fleet = FleetSupervisor(
        FleetConfig(
            city=city_path,
            checkpoint=str(checkpoint),
            scale="tiny",
            workers=4,
            shard_by="area-slot",
            run_dir=str(tmp_path_factory.mktemp("fleet4_run")),
        ),
        registry=MetricsRegistry(),
    )
    fleet.start()
    server = build_router(fleet)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    address = "127.0.0.1:%d" % server.server_address[1]
    yield fleet, address
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    fleet.shutdown()


def _observe_locally(service, body):
    area = body.get("area")
    return service.observe(
        str(body["kind"]),
        int(body["day"]),
        int(body["minute"]),
        area_id=int(area) if area is not None else None,
        **dict(body.get("values", {})),
    )


# ----------------------------------------------------------------------
# Cross-process parity (the tentpole invariant)
# ----------------------------------------------------------------------


def test_four_shard_fleet_is_bitwise_identical_to_one_process(
    fleet4, city_path, checkpoint, scale
):
    """Randomized predict/observe interleavings, replayed twice — once
    through the 4-shard fleet, once against a local service — must agree
    bitwise on every gap and exactly on every invalidation count, with
    state carried forward across rounds."""
    fleet, address = fleet4
    reference = _reference_service(city_path, str(checkpoint), scale)
    try:
        for round_seed in (101, 202):
            ops = generate_ops(
                scale, 60, observe_fraction=0.3, seed=round_seed
            )
            for path, body in ops:
                status, payload = request_json(address, "POST", path, body)
                assert status == 200, payload
                if path == "/predict":
                    local = reference.predict(
                        body["area"], body["day"], body["timeslot"]
                    )
                    # JSON floats round-trip doubles exactly: equality
                    # here is bitwise equality of the prediction.
                    assert payload["gap"] == local.gap, (body, payload)
                    assert payload["version"] == local.version
                else:
                    local = _observe_locally(reference, body)
                    assert payload["workers_reached"] == 4
                    # Each cached entry lives on exactly one shard, so
                    # the summed exact-set invalidations match the
                    # single-process count.  (profiles_dropped may
                    # legitimately exceed it: several replicas can hold
                    # the same (area, day) warm profile.)
                    assert payload["invalidated"] == local["invalidated"], body
    finally:
        reference.close()


def test_fleet_validation_errors_match_single_process(fleet4):
    _, address = fleet4
    status, payload = request_json(
        address, "POST", "/predict", {"area": 999, "day": 2, "timeslot": 60}
    )
    assert status == 400 and "error" in payload
    status, payload = request_json(
        address, "POST", "/observe", {"kind": "nope", "day": 0, "minute": 0}
    )
    assert status == 400 and "error" in payload
    # A rejected observe must not linger in the journal (it mutated
    # nothing anywhere, so replaying it would be wrong).
    status, stats = request_json(address, "GET", "/stats")
    journal = stats["fleet"]["journal_entries"]
    status, payload = request_json(
        address, "POST", "/observe", {"kind": "nope", "day": 0, "minute": 0}
    )
    assert status == 400
    status, stats = request_json(address, "GET", "/stats")
    assert stats["fleet"]["journal_entries"] == journal


def test_fleet_aggregates_stats_and_metrics(fleet4):
    _, address = fleet4
    status, stats = request_json(address, "GET", "/stats")
    assert status == 200
    assert stats["fleet"]["workers"] == 4
    assert len(stats["workers"]) == 4
    assert all(w["ready"] for w in stats["workers"])

    status, health = request_json(address, "GET", "/healthz")
    assert status == 200 and health["status"] == "ok"

    status, text, content_type = request_text(address, "/metrics")
    assert status == 200 and content_type.startswith("text/plain")
    # Worker counters merged into fleet totals alongside router counters.
    assert "# TYPE repro_serving_requests counter" in text
    assert "# TYPE repro_fleet_router_requests counter" in text
    requests_line = next(
        line for line in text.splitlines()
        if line.startswith("repro_serving_requests ")
    )
    assert float(requests_line.split()[1]) > 0


# ----------------------------------------------------------------------
# Supervision: SIGKILL a worker under load
# ----------------------------------------------------------------------


def test_killed_worker_respawns_and_no_request_fails(
    city_path, checkpoint, scale, tmp_path_factory
):
    """SIGKILL one of two workers mid-load: every in-flight and
    subsequent request completes via router retry, the supervisor
    respawns the worker, and journal replay restores observations made
    before *and while* it was dead."""
    fleet = FleetSupervisor(
        FleetConfig(
            city=city_path,
            checkpoint=str(checkpoint),
            scale="tiny",
            workers=2,
            shard_by="area-slot",
            run_dir=str(tmp_path_factory.mktemp("fleet2_run")),
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

    pre_kill_observe = {
        "kind": "orders", "day": 4, "minute": 200, "area": 1,
        "values": {"valid": 17, "invalid": 3},
    }
    mid_kill_observe = {
        "kind": "traffic", "day": 4, "minute": 300, "area": 2,
        "values": {"level_counts": [9, 4, 2, 1]},
    }

    client_ops = [
        generate_ops(scale, 25, observe_fraction=0.0, seed=seed)
        for seed in (11, 22, 33)
    ]

    def send(client, n):
        ops = client_ops[client]
        _, body = ops[n % len(ops)]
        try:
            status, payload = request_json(
                address, "POST", "/predict", body, timeout=60.0
            )
        except Exception as error:  # noqa: BLE001 — recorded, asserted
            failures.append((body, repr(error)))
            return
        if status != 200:
            failures.append((body, payload))
        else:
            local = reference.predict(
                body["area"], body["day"], body["timeslot"]
            )
            if payload["gap"] != local.gap:
                mismatches.append((body, payload["gap"], local.gap))

    def observe_while_dead():
        # An observation while the worker is dead: reaches the live
        # worker now and the dead one via journal replay after respawn.
        # No client query reads this traffic minute, so the clients can
        # compare against the reference while it lands.
        status, _ = request_json(address, "POST", "/observe", mid_kill_observe)
        assert status == 200
        _observe_locally(reference, mid_kill_observe)

    try:
        status, _ = request_json(address, "POST", "/observe", pre_kill_observe)
        assert status == 200
        _observe_locally(reference, pre_kill_observe)

        victim = fleet.workers[0]
        # The clients keep sending from their first replies until after
        # the respawn, so the kill always lands mid-load.
        after_kill = kill_under_load(
            fleet, victim, send, clients=len(client_ops),
            on_kill=observe_while_dead,
        )
        assert min(after_kill) >= 1, after_kill
        assert not failures, failures
        assert not mismatches, mismatches
        assert fleet.respawns >= 1
        assert victim.ready.is_set()
        assert victim.generation == 2

        # The respawned replica converged: queries routed to shard 0
        # reflect both observations, bitwise.
        probed = 0
        for timeslot in range(210, 1430):
            if fleet.shard_for_query(1, timeslot) != 0:
                continue
            body = {"area": 1, "day": 4, "timeslot": timeslot}
            status, payload = request_json(address, "POST", "/predict", body)
            local = reference.predict(1, 4, timeslot)
            assert status == 200
            assert payload["gap"] == local.gap
            probed += 1
            if probed >= 3:
                break
        assert probed >= 3
    finally:
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=10)
        fleet.shutdown()
        reference.close()


def test_shutdown_with_warm_router_connections_skips_handler_join(
    city_path, checkpoint, tmp_path_factory
):
    """The router's idle keep-alive connections are closed before the
    fleet waits on its workers, so no worker's ``server_close`` spends
    its whole ``handler_join_timeout`` on their handler threads."""
    fleet = FleetSupervisor(
        FleetConfig(
            city=city_path,
            checkpoint=str(checkpoint),
            scale="tiny",
            workers=2,
            shard_by="area-slot",
            run_dir=str(tmp_path_factory.mktemp("fleet2_shutdown_run")),
        ),
        registry=MetricsRegistry(),
    )
    fleet.start()
    server = build_router(fleet)
    server_thread = threading.Thread(target=server.serve_forever, daemon=True)
    server_thread.start()
    address = "127.0.0.1:%d" % server.server_address[1]
    try:
        # Warm router->worker connections to both shards.
        items = [{"area": a, "day": 1, "timeslot": 100 + a} for a in range(6)]
        shards = {fleet.shard_for_query(i["area"], i["timeslot"]) for i in items}
        assert shards == {0, 1}
        status, _ = request_json(
            address, "POST", "/predict_batch", {"items": items}
        )
        assert status == 200
        started = time.monotonic()
        fleet.shutdown()
        elapsed = time.monotonic() - started
        assert all(worker.proc.poll() is not None for worker in fleet.workers)
    finally:
        server.shutdown()
        server.server_close()
        server_thread.join(timeout=10)
        fleet.shutdown()
    assert elapsed < _JoiningHTTPServer.handler_join_timeout, elapsed


# ----------------------------------------------------------------------
# Checkpoint distribution
# ----------------------------------------------------------------------


def _install_bundle(source_json, directory, epoch):
    """Copy the bundle behind ``source_json`` into ``directory`` under a
    new ``ckpt-<epoch>`` stem (spill files renamed too), then flip the
    ``latest.json`` pointer — the same shape an atomic trainer save
    leaves behind."""
    directory = str(directory)
    os.makedirs(directory, exist_ok=True)
    source_dir = os.path.dirname(source_json)
    with open(source_json, encoding="utf-8") as handle:
        payload = json.load(handle)
    stem = f"ckpt-{epoch:05d}"
    shutil.copy(
        os.path.join(source_dir, payload["arrays_file"]),
        os.path.join(directory, f"{stem}.npz"),
    )
    payload = copy.deepcopy(payload)
    payload["epoch"] = epoch
    payload["arrays_file"] = f"{stem}.npz"
    for index, entry in enumerate(payload.get("best", [])):
        if "file" in entry:
            renamed = f"best-{epoch:05d}{index}.npz"
            shutil.copy(
                os.path.join(source_dir, entry["file"]),
                os.path.join(directory, renamed),
            )
            entry["file"] = renamed
    with open(os.path.join(directory, f"{stem}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(payload, handle)
    with open(os.path.join(directory, "latest.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"latest": stem}, handle)
    return os.path.join(directory, f"{stem}.json")


def test_checkpoint_watcher_hot_swaps_new_bundles(
    checkpoint, other_checkpoint, mutable_dataset, scale, tmp_path
):
    watch_dir = tmp_path / "watched"
    first = _install_bundle(str(checkpoint), watch_dir, epoch=10)
    service = PredictionService.from_checkpoint(
        first,
        mutable_dataset,
        scale.features,
        registry=MetricsRegistry(),
    )
    try:
        watcher = CheckpointWatcher(service, str(watch_dir),
                                    interval_seconds=0.05)
        old_version = service.version
        assert watcher.poll_once() is None  # nothing new yet
        baseline = service.predict(0, 2, 60).gap

        _install_bundle(str(other_checkpoint), watch_dir, epoch=11)
        swapped = watcher.poll_once()
        assert swapped is not None
        assert service.version == swapped != old_version

        # The swapped engine answers with the new weights, bitwise equal
        # to a service built directly on the other checkpoint.
        direct = PredictionService.from_checkpoint(
            str(other_checkpoint),
            mutable_dataset,  # same city
            scale.features,
            registry=MetricsRegistry(),
        )
        try:
            assert service.predict(0, 2, 60).gap == direct.predict(0, 2, 60).gap
            assert service.predict(0, 2, 60).gap != baseline
        finally:
            direct.close()

        assert watcher.poll_once() is None  # stable again
    finally:
        service.close()


def test_checkpoint_watcher_rejects_bad_interval(checkpoint, mutable_dataset, scale):
    service = PredictionService.from_checkpoint(
        str(checkpoint), mutable_dataset, scale.features,
        registry=MetricsRegistry(),
    )
    try:
        with pytest.raises(ConfigError):
            CheckpointWatcher(service, ".", interval_seconds=0)
    finally:
        service.close()
