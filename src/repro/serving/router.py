"""Front router for the prediction fleet: shard, coalesce, proxy, aggregate.

The router is the fleet's single public endpoint.  It speaks exactly the
same JSON API as a lone :mod:`repro.serving.http` service — clients
cannot tell a 4-shard fleet from one process — and owns four jobs:

- **Routing.**  ``POST /predict`` hashes the query's ``(area, timeslot)``
  (or ``area`` alone, with ``shard_by="area"``) onto one worker with
  :func:`shard_for` — a process-stable BLAKE2b hash, never the builtin
  randomized ``hash()`` — and proxies the request there.  The same query
  always lands on the same shard, so each cached gap lives on exactly
  one worker and the fleet-wide cache is a partition, not a mirror.
- **Coalescing.**  Concurrent in-flight ``/predict`` requests bound for
  the same shard ride ONE upstream ``POST /predict_batch`` call instead
  of N sequential round-trips (:class:`PredictCoalescer`).  The gather
  window is the eager-flush micro-batcher's natural one: whatever
  arrives while the previous upstream call is in flight goes out
  together, and a lone request is proxied immediately with zero added
  latency.  ``POST /predict_batch`` at the router splits its items
  across shards the same way and reassembles the results in order.
- **Fan-out.**  ``POST /observe`` must reach every worker (each replica
  owns a full copy of the city state), so it broadcasts through the
  supervisor's observation journal and returns the summed invalidation
  counts — the single-process exact-set invariant, preserved across
  processes.  ``POST /reload`` broadcasts a checkpoint hot-swap.
- **Retry-on-reconnect.**  A proxy attempt that dies on a transport
  error reports the failure to the supervisor (which respawns dead
  workers) and retries against the shard's next live address until
  ``retry_timeout`` — a SIGKILLed worker costs latency, never a failed
  request.  Predictions are pure, so replay is always safe, batched or
  not.

``GET /stats``, ``/healthz`` and ``/metrics`` aggregate per-worker state
through the router (see :func:`aggregate_prometheus` for the merge
semantics).  The router runs on the same threaded front-end as the
workers (:mod:`repro.serving.http`).
"""

from __future__ import annotations

import hashlib
import http.client
import json
import threading
import time
from typing import Dict, List, Optional, Tuple

from ..exceptions import ConfigError
from ..obs import get_logger
from .app import (
    BAD_REQUEST_ERRORS,
    Response,
    json_response,
    parse_batch_items,
    parse_json_body,
    text_response,
)
from .batcher import MicroBatcher
from .http import _JoiningHTTPServer, make_threaded_handler

__all__ = [
    "SHARD_STRATEGIES",
    "PredictCoalescer",
    "RouterApp",
    "aggregate_prometheus",
    "build_router",
    "close_pools",
    "request_json",
    "request_text",
    "shard_for",
]

_log = get_logger(__name__)

#: Supported ``shard_by`` strategies: ``area-slot`` spreads a single
#: area's timeslots across the fleet (finest balance), ``area`` pins an
#: area to one worker (best cache/invalidation locality for
#: area-scoped observations).
SHARD_STRATEGIES = ("area-slot", "area")

#: Transport-level failures that mean "this worker connection is gone" —
#: retriable against a respawned worker, unlike an HTTP-level error.
TRANSPORT_ERRORS = (OSError, http.client.HTTPException)


def shard_for(
    area_id: int, timeslot: int, n_shards: int, by: str = "area-slot"
) -> int:
    """Deterministic worker index for one query.

    Uses an 8-byte BLAKE2b digest so the mapping is identical in every
    process and across runs (the builtin ``hash()`` is randomized per
    process for strings and must never leak into routing).
    """
    if n_shards <= 0:
        raise ConfigError(f"n_shards must be positive, got {n_shards}")
    if by == "area":
        key = b"%d" % int(area_id)
    elif by == "area-slot":
        key = b"%d:%d" % (int(area_id), int(timeslot))
    else:
        raise ConfigError(f"unknown shard_by {by!r}; known: {SHARD_STRATEGIES}")
    digest = hashlib.blake2b(key, digest_size=8).digest()
    return int.from_bytes(digest, "big") % n_shards


# ----------------------------------------------------------------------
# Worker-facing HTTP client (thread-local keep-alive connections)
# ----------------------------------------------------------------------

_local = threading.local()

#: Every thread-local pool ever created, so :func:`close_pools` can close
#: keep-alive connections owned by threads other than the caller's.  A
#: handler thread that exits leaves its (empty, tiny) dict here; the
#: sockets themselves are what must not leak, and they are reachable.
_all_pools: List[Dict[str, http.client.HTTPConnection]] = []
_all_pools_lock = threading.Lock()


def _connection(address: str, timeout: float) -> http.client.HTTPConnection:
    pool: Dict[str, http.client.HTTPConnection] = getattr(_local, "pool", None)
    if pool is None:
        pool = _local.pool = {}
        with _all_pools_lock:
            _all_pools.append(pool)
    connection = pool.get(address)
    if connection is None:
        host, _, port = address.rpartition(":")
        connection = http.client.HTTPConnection(host, int(port), timeout=timeout)
        pool[address] = connection
    return connection


def drop_connection(address: str) -> None:
    """Discard this thread's cached connection to ``address`` (if any)."""
    pool = getattr(_local, "pool", None)
    if pool:
        connection = pool.pop(address, None)
        if connection is not None:
            connection.close()


def close_pools() -> int:
    """Close every cached worker connection held by ANY thread.

    The keep-alive pools are thread-local by design (an
    ``HTTPConnection`` is not thread-safe), which used to mean only each
    owning thread could close its own sockets — and router handler
    threads never did, so every router shutdown leaked one ESTABLISHED
    connection per (handler thread x worker) until process exit.  The
    router's shutdown action now calls this instead.  Returns the number
    of connections closed.  Racing an in-flight request on another
    thread is acceptable at the one call site (teardown: the workers are
    stopping anyway and a closed socket surfaces as a normal transport
    error).
    """
    with _all_pools_lock:
        pools = list(_all_pools)
    closed = 0
    for pool in pools:
        for address in list(pool):
            connection = pool.pop(address, None)
            if connection is not None:
                try:
                    connection.close()
                except Exception:  # noqa: BLE001 — best-effort teardown
                    pass
                closed += 1
    if closed:
        _log.event("fleet.router_pools_closed", connections=closed)
    return closed


def _roundtrip(
    address: str, method: str, path: str, body: Optional[dict], timeout: float
) -> Tuple[int, bytes, str]:
    """One request on this thread's keep-alive connection to ``address``.

    A stale keep-alive connection (worker restarted between requests)
    fails on the *first* byte, so one reconnect-and-replay is safe for
    every method we proxy; a failure on the fresh connection propagates
    to the caller's retry/failure handling.
    """
    data = json.dumps(body).encode("utf-8") if body is not None else None
    headers = {"Content-Type": "application/json"} if data is not None else {}
    for attempt in (0, 1):
        connection = _connection(address, timeout)
        try:
            connection.request(method, path, body=data, headers=headers)
            response = connection.getresponse()
            payload = response.read()
            return response.status, payload, response.headers.get("Content-Type", "")
        except TRANSPORT_ERRORS:
            drop_connection(address)
            if attempt:
                raise
    raise AssertionError("unreachable")  # pragma: no cover


def request_json(
    address: str,
    method: str,
    path: str,
    body: Optional[dict] = None,
    timeout: float = 30.0,
) -> Tuple[int, dict]:
    """JSON round-trip to ``host:port``; raises ``TRANSPORT_ERRORS`` on
    connection-level failure, returns ``(status, payload)`` otherwise."""
    status, raw, _ = _roundtrip(address, method, path, body, timeout)
    try:
        payload = json.loads(raw) if raw else {}
    except ValueError:
        payload = {"error": raw.decode("utf-8", errors="replace")}
    return status, payload


def request_text(
    address: str, path: str, timeout: float = 30.0
) -> Tuple[int, str, str]:
    """Plain-text GET (the ``/metrics`` exposition); returns
    ``(status, text, content_type)``."""
    status, raw, content_type = _roundtrip(address, "GET", path, None, timeout)
    return status, raw.decode("utf-8", errors="replace"), content_type


# ----------------------------------------------------------------------
# Metrics aggregation
# ----------------------------------------------------------------------


def aggregate_prometheus(texts: List[str]) -> str:
    """Merge per-worker Prometheus expositions into one fleet view.

    Merge semantics per metric kind:

    - **counter** samples and summary ``_sum``/``_count`` samples sum
      across workers (fleet totals);
    - **gauge** samples sum (e.g. queue depths add up to fleet backlog);
    - **summary** ``quantile=...`` samples take the **max** across
      workers — quantile sketches cannot be merged from exposition text,
      and the worst per-worker percentile is the honest conservative
      bound for "how slow can a request be somewhere in the fleet".
    """
    kinds: Dict[str, str] = {}
    order: List[str] = []
    samples: Dict[str, List[str]] = {}
    values: Dict[Tuple[str, str], float] = {}

    def base_metric(sample_name: str) -> str:
        name = sample_name.split("{", 1)[0]
        for suffix in ("_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in kinds:
                return name[: -len(suffix)]
        return name

    for text in texts:
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split()
                if len(parts) >= 4 and parts[1] == "TYPE":
                    metric, kind = parts[2], parts[3]
                    if metric not in kinds:
                        kinds[metric] = kind
                        order.append(metric)
                        samples[metric] = []
                continue
            name, _, value_text = line.rpartition(" ")
            try:
                value = float(value_text)
            except ValueError:
                continue
            metric = base_metric(name)
            if metric not in kinds:  # sample with no TYPE line — skip
                continue
            key = (metric, name)
            if key not in values:
                samples[metric].append(name)
                values[key] = value
            elif kinds[metric] == "summary" and "quantile=" in name:
                values[key] = max(values[key], value)
            else:
                values[key] += value

    lines: List[str] = []
    for metric in order:
        lines.append(f"# TYPE {metric} {kinds[metric]}")
        for name in samples[metric]:
            value = values[(metric, name)]
            if name.endswith("_count"):
                lines.append(f"{name} {int(value)}")
            else:
                lines.append(f"{name} {repr(float(value))}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Predict coalescing
# ----------------------------------------------------------------------


class PredictCoalescer:
    """Coalesce concurrent per-shard predicts into upstream batch calls.

    One eager-flush :class:`MicroBatcher` per shard: requests that pile
    up while the previous upstream call is in flight are dispatched
    together as a single ``POST /predict_batch``; a lone request is
    proxied as a plain ``POST /predict`` with no extra hop or wait.  The
    worker's fixed-block batch-invariant forward guarantees the batched
    reply is bitwise-identical to per-item replies, so coalescing is
    invisible to clients.

    Failure semantics per item, not per batch:

    - transport errors retry the whole upstream batch against the
      shard's next live address (``fleet.report_failure`` +
      ``fleet.address_of``) until the deadline — a SIGKILLed worker
      never fails a coalesced request;
    - an HTTP-level batch rejection (one malformed item 400s the whole
      upstream batch) falls back to per-item ``/predict`` replays so a
      bad query cannot poison its batch-mates.

    Each future resolves to ``(status, payload)`` exactly as
    :func:`request_json` returns for a single proxied predict.
    """

    def __init__(self, fleet, max_batch: int = 256) -> None:
        self._fleet = fleet
        self._registry = fleet.registry
        self._batchers = [
            MicroBatcher(
                handler=(lambda bodies, shard=shard: self._handle(shard, bodies)),
                max_batch=max_batch,
                registry=fleet.registry,
            )
            for shard in range(len(fleet.workers))
        ]

    def submit(self, body: dict):
        """Future resolving to ``(status, payload)`` for one predict body."""
        shard = self._fleet.shard_for_query(
            int(body["area"]), int(body["timeslot"])
        )
        return self._batchers[shard].submit(body)

    def predict(self, body: dict) -> Tuple[int, dict]:
        return self.submit(body).result()

    def close(self) -> None:
        for batcher in self._batchers:
            batcher.close()

    # ------------------------------------------------------------------
    # Worker-thread side (one thread per shard)
    # ------------------------------------------------------------------

    def _handle(self, shard: int, bodies: List[dict]) -> List[Tuple[int, dict]]:
        deadline = time.monotonic() + self._fleet.retry_timeout
        if len(bodies) == 1:
            return [self._single(shard, bodies[0], deadline)]
        attempt = 0
        while True:
            address = self._fleet.address_of(shard, deadline)
            try:
                status, payload = request_json(
                    address, "POST", "/predict_batch",
                    {"items": bodies}, timeout=self._fleet.retry_timeout,
                )
            except TRANSPORT_ERRORS:
                attempt += 1
                self._registry.counter("repro.fleet.router.retries")
                self._fleet.report_failure(shard, address)
                if time.monotonic() >= deadline:
                    self._registry.counter(
                        "repro.fleet.router.unavailable", len(bodies)
                    )
                    error = {
                        "error": f"shard {shard} unavailable after "
                                 f"{attempt} attempts"
                    }
                    return [(503, error)] * len(bodies)
                time.sleep(min(0.05 * attempt, 0.5))
                continue
            results = payload.get("results") if status == 200 else None
            if not isinstance(results, list) or len(results) != len(bodies):
                # Batch-level rejection (a malformed item 400s the whole
                # upstream batch) — replay per item for error isolation.
                return [
                    self._single(shard, body, deadline) for body in bodies
                ]
            self._registry.counter(
                "repro.fleet.router.coalesced_items", len(bodies)
            )
            self._registry.counter("repro.fleet.router.coalesced_batches")
            return [(200, result) for result in results]

    def _single(
        self, shard: int, body: dict, deadline: float
    ) -> Tuple[int, dict]:
        attempt = 0
        while True:
            address = self._fleet.address_of(shard, deadline)
            try:
                return request_json(
                    address, "POST", "/predict", body,
                    timeout=self._fleet.retry_timeout,
                )
            except TRANSPORT_ERRORS as error:
                # The worker died mid-request (or between requests).
                # Predictions are pure, so replaying the query against
                # the respawned shard is always correct.
                attempt += 1
                self._registry.counter("repro.fleet.router.retries")
                self._fleet.report_failure(shard, address)
                if time.monotonic() >= deadline:
                    self._registry.counter("repro.fleet.router.unavailable")
                    return 503, {
                        "error": f"shard {shard} unavailable after "
                                 f"{attempt} attempts: {error!r}"
                    }
                time.sleep(min(0.05 * attempt, 0.5))


# ----------------------------------------------------------------------
# The router application + server
# ----------------------------------------------------------------------


class RouterApp:
    """The fleet-facing twin of :class:`repro.serving.app.ServiceApp`.

    Same ``handle(method, target, body) -> Response`` interface and the
    same routes, so the same threaded front-end drives it.
    """

    def __init__(self, fleet, coalescer: PredictCoalescer) -> None:
        self.fleet = fleet
        self.registry = fleet.registry
        self.coalescer = coalescer

    def handle(self, method: str, target: str, body: bytes) -> Response:
        path = target.split("?", 1)[0]
        try:
            if method == "GET":
                return self._get(path)
            if method == "POST":
                return self._post(path, body)
            return json_response(405, {"error": f"method {method} not allowed"})
        except BAD_REQUEST_ERRORS as error:
            return json_response(400, {"error": str(error)})
        except TimeoutError as error:
            self.registry.counter("repro.fleet.router.unavailable")
            return json_response(503, {"error": str(error)})
        except Exception as error:  # noqa: BLE001 — last-resort 500
            _log.event("fleet.router_error", path=path, error=repr(error))
            return json_response(500, {"error": repr(error)})

    def _get(self, path: str) -> Response:
        if path == "/healthz":
            return json_response(*self.fleet.healthz())
        if path == "/stats":
            return json_response(200, self.fleet.stats())
        if path == "/metrics":
            return text_response(200, self.fleet.metrics_text())
        return json_response(404, {"error": f"unknown path {path}"})

    def _post(self, path: str, body: bytes) -> Response:
        self.registry.counter("repro.fleet.router.requests")
        with self.registry.timer("repro.fleet.router.request_seconds"):
            if path == "/predict":
                return json_response(
                    *self.coalescer.predict(parse_json_body(body))
                )
            if path == "/predict_batch":
                return self._predict_batch(parse_json_body(body))
            if path == "/observe":
                return json_response(
                    *self.fleet.broadcast_observe(parse_json_body(body))
                )
            if path == "/reload":
                parsed = parse_json_body(body)
                return json_response(
                    *self.fleet.broadcast_reload(str(parsed["checkpoint"]))
                )
            if path == "/shutdown":
                return json_response(
                    200, {"status": "shutting down"}, shutdown=True
                )
            return json_response(404, {"error": f"unknown path {path}"})

    def _predict_batch(self, parsed: dict) -> Response:
        """Scatter items across shards, gather replies in request order.

        Submitting every item through the coalescer scatters the batch
        into at most one upstream ``/predict_batch`` per shard (items
        for the same shard ride together) while the per-shard calls run
        concurrently on their batcher threads.  Futures are resolved in
        submission order, so the reassembled ``results`` list matches
        the request's item order exactly.  Mirroring the worker's
        all-or-nothing batch semantics, the first failed item fails the
        whole batch with its status.
        """
        triples = parse_batch_items(parsed)
        futures = [
            self.coalescer.submit(
                {"area": area, "day": day, "timeslot": timeslot}
            )
            for area, day, timeslot in triples
        ]
        results = []
        for future in futures:
            status, payload = future.result()
            if status != 200:
                return json_response(status, payload)
            results.append(payload)
        return json_response(
            200, {"results": results, "count": len(results)}
        )


def build_router(
    fleet,
    host: str = "127.0.0.1",
    port: int = 0,
    coalesce_batch: int = 256,
):
    """An HTTP front router bound to ``host:port`` proxying ``fleet``.

    ``fleet`` is a :class:`repro.serving.fleet.FleetSupervisor` (anything
    with its routing/broadcast surface works).  The caller owns the
    lifecycle exactly as with :func:`repro.serving.http.build_server`;
    ``POST /shutdown`` drains the coalescer, stops the workers, closes
    every keep-alive worker connection (:func:`close_pools`), then stops
    the router itself.
    """
    coalescer = PredictCoalescer(fleet, max_batch=coalesce_batch)
    handler = make_threaded_handler(
        RouterApp(fleet, coalescer), _log, "fleet.router_http"
    )
    server = _JoiningHTTPServer((host, port), handler)

    def stop_everything() -> None:
        # Drain in-flight coalesced predicts against live workers first,
        # then stop the fleet, then release every pooled connection —
        # the fix for the router's keep-alive socket leak.
        try:
            coalescer.close()
        finally:
            try:
                fleet.shutdown()
            finally:
                close_pools()
                server.shutdown()

    server.shutdown_action = stop_everything
    server.router_coalescer = coalescer
    return server
