"""Workload ``fleet_mixed``: a mixed stream through ``repro serve --workers 2``.

Set-up starts the shipped fleet (a router in front of two sharded worker
processes, default threaded front-end, eager flush, tape on, 4096-entry
cache per worker) on the fixture city and checkpoint, and warms every
per-(area, day) profile in both workers.  One dispatcher then sends a
closed loop of calls over one keep-alive connection to the router.  One
round is 20 calls in a seeded order:

- 12 ``/predict_batch`` calls, one batch size drawn from each twelfth of
  [1, 64];
- 6 ``/predict`` calls;
- 2 ``/observe`` calls.

The queries replay the fixture city's own orders (:class:`OrderReplay`):
each round starts at a seeded (day, minute), and from there every order
placed in the city, valid or not, asks in time order for the gap of its
area over the ten minutes from its minute, as a dispatcher would before
sending a car there.  A round covers about a quarter of an hour of
orders, so a run mixes many times of day.  How often a query repeats,
and so how often the caches answer, follows from the city's order
counts.  The observations are those of ``repro loadtest``'s
``generate_ops`` (its traffic : weather : orders mix of 1:1:1 and its
value ranges), each placed at the minute before the replay's current one
and, for traffic and orders, in the area of the last query: the feed of
the minute just completed, which stales what the fleet cached for the
current minute.
"""

from __future__ import annotations

import collections
import dataclasses
import http.client
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

import numpy as np
from repro.city import CityDataset
from repro.config import get_scale
from repro.serving import PredictionService
from repro.serving.loadtest import generate_ops
from repro.serving.router import shard_for

import checks
import common

SINGLE_CALLS = 6
OBSERVE_CALLS = 2
#: Observations drawn from ``generate_ops`` at a time.
OBSERVE_CHUNK = 64
#: Calls per probe burst in a traced run (the first is discarded).
PROBE_BURST = 5
#: Largest batch the final consistency check sends per call.
CHECK_BATCH = 256
STARTUP_TIMEOUT_S = 120.0


class Client:
    """One keep-alive HTTP/1.1 connection speaking the serving JSON API."""

    def __init__(self, address: str) -> None:
        host, port = address.rsplit(":", 1)
        self._connection = http.client.HTTPConnection(host, int(port), timeout=60)

    def call(self, method: str, path: str, body=None):
        data = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if data else {}
        self._connection.request(method, path, body=data, headers=headers)
        response = self._connection.getresponse()
        raw = response.read()
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(raw)
        return response.status, raw.decode("utf-8")

    def close(self) -> None:
        self._connection.close()


class Fleet:
    """``repro serve --workers 2`` as a child process of the benchmark."""

    def __init__(self, city: str, checkpoint: str) -> None:
        self.run_dir = common.work_dir("fleet", str(os.getpid()))
        self._stderr = open(os.path.join(self.run_dir, "router.err"), "wb")
        self.client = None
        self.worker_clients = {}
        self.pids = []
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--city", city,
                "--checkpoint", checkpoint,
                "--scale", common.SCALE,
                "--workers", "2",
                "--fleet-run-dir", self.run_dir,
                "--manifest", os.path.join(self.run_dir, "router.manifest.json"),
                "--quiet",
            ],
            stdout=subprocess.PIPE,
            stderr=self._stderr,
            env=dict(os.environ, PYTHONPATH=common.SRC),
            cwd=common.ROOT,
        )
        try:
            self.client = Client(self._read_banner())
            status, stats = self.client.call("GET", "/stats")
            if status != 200:
                raise common.BenchError(f"router /stats answered {status}")
            self.worker_clients = {
                entry["shard"]: Client(entry["address"])
                for entry in stats["workers"]
            }
            self.pids = [self.proc.pid] + common.child_pids(self.proc.pid)
        except BaseException:
            print(f"fleet stderr tail:\n{self._stderr_tail()}", file=sys.stderr)
            self.close()
            raise

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            print(f"fleet stderr tail:\n{self._stderr_tail()}", file=sys.stderr)
        self.close()

    def _read_banner(self) -> str:
        """``HOST:PORT`` from the router's ``serving ... on http://HOST:PORT``."""
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        with selectors.DefaultSelector() as selector:
            selector.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if not selector.select(timeout=1.0):
                    continue
                line = self.proc.stdout.readline().decode("utf-8")
                if not line:
                    break
                if line.startswith("serving ") and "http://" in line:
                    return line.split("http://", 1)[1].split()[0].rstrip("/")
        raise common.BenchError("fleet did not print its serving banner")

    def _stderr_tail(self) -> str:
        self._stderr.flush()
        with open(self._stderr.name, "rb") as handle:
            return handle.read()[-2000:].decode("utf-8", "replace")

    def peak_rss_mb(self) -> float:
        return sum(common.process_peak_rss_mb(pid) for pid in self.pids)

    def close(self) -> None:
        """``POST /shutdown``, then make sure the router and both workers
        have exited (killing what is left after a grace period)."""
        for client in self.worker_clients.values():
            client.close()
        try:
            workers = set(self.pids[1:]) | set(common.child_pids(self.proc.pid))
            if self.proc.poll() is None:
                if self.client is not None:
                    try:
                        self.client.call("POST", "/shutdown", {})
                    except (OSError, http.client.HTTPException):
                        pass
                else:
                    self.proc.terminate()
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait(timeout=10)
            if self.client is not None:
                self.client.close()
            self.proc.stdout.close()
            for pid in workers:
                _reap(pid)
        finally:
            self._stderr.close()
            shutil.rmtree(self.run_dir, ignore_errors=True)


def _running_worker(pid: int) -> bool:
    """Whether ``pid`` is still a running (not zombie) ``repro`` process."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            stat = handle.read()
        with open(f"/proc/{pid}/cmdline", "rb") as handle:
            cmdline = handle.read()
    except OSError:
        return False
    return stat[stat.rindex(b")") + 2:][:1] != b"Z" and b"repro" in cmdline


def _reap(pid: int) -> None:
    """Wait (up to 15 s) for a worker the router was stopping, then kill it."""
    deadline = time.monotonic() + 15.0
    while _running_worker(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _running_worker(pid):
        os.kill(pid, signal.SIGKILL)


def prometheus_sums(text: str) -> dict:
    """``{metric: value}`` for the plain samples of an exposition."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.split()
            values[name] = float(value)
    return values


def scrape(clients) -> list:
    """The plain samples of each client's ``/metrics``."""
    expositions = []
    for client in clients:
        status, text = client.call("GET", "/metrics")
        if status != 200:
            raise checks.CheckFailed(f"/metrics answered {status}")
        expositions.append(prometheus_sums(text))
    return expositions


class StreamTotals:
    """The fleet's request timers and cache counts summed over the
    stream's calls only: a traced run pauses it while it probes."""

    def __init__(self, fleet: "Fleet") -> None:
        self._fleet = fleet
        self._start = None
        self.totals = collections.defaultdict(float)

    def _snapshot(self) -> dict:
        """Router samples as ``("router", name)``; worker samples, scraped
        from each worker (the router's /metrics adds them to its own), as
        ``("worker", name)`` summed over workers; cache hits and misses."""
        flat = collections.defaultdict(float)
        for name, value in scrape([self._fleet.client])[0].items():
            flat["router", name] += value
        for exposition in scrape(self._fleet.worker_clients.values()):
            for name, value in exposition.items():
                flat["worker", name] += value
        flat["cache", "hits"], flat["cache", "misses"] = _cache_counts(
            self._fleet.client
        )
        return flat

    def resume(self) -> None:
        self._start = self._snapshot()

    def pause(self) -> None:
        for key, value in self._snapshot().items():
            self.totals[key] += value - self._start.get(key, 0.0)

    def mean_ms(self, side: str, metric: str) -> float:
        """Mean of a summary metric over the stream's calls, in ms."""
        return (
            1000.0 * self.totals[side, f"{metric}_sum"]
            / self.totals[side, f"{metric}_count"]
        )

    def hit_ratio(self) -> float:
        hits, misses = self.totals["cache", "hits"], self.totals["cache", "misses"]
        return hits / (hits + misses)


class OrderReplay:
    """The fixture city's orders in time order, each one a query
    ``(area, day, minute)``; orders of the same minute come in a seeded
    order.  :meth:`restart` moves the replay to a seeded (day, minute).
    Past the last measured slot of a day the replay goes on with the next
    day, and after the last day with the first."""

    def __init__(self, dataset, rng: np.random.Generator) -> None:
        self._orders = dataset.valid_counts + dataset.invalid_counts
        self._rng = rng
        self._pending = collections.deque()
        self.restart()

    def restart(self) -> None:
        self._day = int(self._rng.integers(self._orders.shape[1]))
        self._minute = int(
            self._rng.integers(common.FIRST_SLOT, common.LAST_SLOT + 1)
        )
        self._pending.clear()
        self._next_minute()
        #: The query most recently handed out (at first, the next one):
        #: the replay's "now".
        self.last = self._pending[0]

    def queries(self, n: int) -> list:
        out = []
        while len(out) < n:
            if not self._pending:
                self._next_minute()
            out.append(self._pending.popleft())
        self.last = out[-1]
        return out

    def _next_minute(self) -> None:
        areas = np.empty(0, dtype=np.int64)
        while not areas.size:
            day, minute = self._day, self._minute
            self._minute += 1
            if self._minute > common.LAST_SLOT:
                self._minute = common.FIRST_SLOT
                self._day = (self._day + 1) % self._orders.shape[1]
            areas = np.repeat(
                np.arange(self._orders.shape[0]), self._orders[:, day, minute]
            )
        self._rng.shuffle(areas)
        self._pending.extend((int(area), day, minute) for area in areas)


class Stream:
    """The seeded inputs: the order replay and the observations."""

    def __init__(self, dataset, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.replay = OrderReplay(dataset, self.rng)
        self._observations = collections.deque()
        self.kinds = np.array(
            ["batch"] * common.BATCH_CALLS
            + ["single"] * SINGLE_CALLS
            + ["observe"] * OBSERVE_CALLS
        )

    def observation(self) -> tuple:
        """The next ``generate_ops`` observation, moved to the minute before
        the last query's and, unless it is city-wide, to that query's area:
        ``(body, query)``."""
        if not self._observations:
            ops = generate_ops(
                get_scale(common.SCALE),
                OBSERVE_CHUNK,
                observe_fraction=1.0,
                seed=int(self.rng.integers(2**32)),
            )
            self._observations.extend(body for _, body in ops)
        area, day, slot = self.replay.last
        body = dict(self._observations.popleft(), day=day, minute=slot - 1)
        if "area" in body:
            body["area"] = area
        return body, (area, day, slot)


def apply_observation(dataset, body: dict) -> None:
    """The benchmark's own application of an observation to a city copy
    (array writes, independent of the service's ``observe``)."""
    day, minute, values = body["day"], body["minute"], body["values"]
    if body["kind"] == "orders":
        area = body["area"]
        dataset.valid_counts[area, day, minute] = values["valid"]
        dataset.invalid_counts[area, day, minute] = values["invalid"]
    elif body["kind"] == "traffic":
        dataset.traffic.level_counts[body["area"], day, minute] = np.asarray(
            values["level_counts"], dtype=np.float64
        )
    else:
        dataset.weather.types[day, minute] = values["weather_type"]
        dataset.weather.temperature[day, minute] = values["temperature"]
        dataset.weather.pm25[day, minute] = values["pm25"]


def run(started: float, seed: int, seconds: float, trace: bool) -> dict:
    paths = common.fixture()
    features = get_scale(common.SCALE).features
    dataset = CityDataset.load(paths["city"])
    with Fleet(paths["city"], paths["checkpoint"]) as fleet:
        warm = [
            {"area": area, "day": day, "timeslot": common.WARM_SLOT}
            for area in range(dataset.n_areas)
            for day in range(dataset.n_days)
        ]
        for client in fleet.worker_clients.values():
            status, payload = client.call("POST", "/predict_batch", {"items": warm})
            checks.check_http_batch(status, payload, len(warm))
        setup_s = time.perf_counter() - started - paths["build_s"]

        stream = Stream(dataset, seed)
        window = StreamTotals(fleet)
        probes = {"noop_ms": [], "hop_ms": []}
        window.resume()
        loop = _measure(
            fleet.client,
            stream,
            seconds,
            after_round=(lambda loop: _probe(fleet, window, loop, probes))
            if trace
            else None,
        )
        window.pause()
        peak_rss_mb = common.own_peak_rss_mb() + fleet.peak_rss_mb()
        mae = _check_against_reference(
            fleet.client, paths, features, loop["observed"]
        )

    invalidated = [reply["invalidated"] for reply in loop["observe_replies"]]
    if trace:
        metrics = {
            "front.noop_ms": (statistics.median(probes["noop_ms"]), "ms"),
            "router.hop_ms": (statistics.median(probes["hop_ms"]), "ms"),
            "router.request_ms": (
                window.mean_ms("router", "repro_fleet_router_request_seconds"), "ms"
            ),
            "worker.request_ms": (
                window.mean_ms("worker", "repro_serving_request_seconds"), "ms"
            ),
            "worker.batch_ms": (
                window.mean_ms("worker", "repro_serving_batch_seconds"), "ms"
            ),
            "cache.hit_ratio": (window.hit_ratio(), "ratio"),
            "service.invalidated_per_observe": (
                statistics.fmean(invalidated), "entries"
            ),
        }
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (statistics.median(loop["round_rates"]), "items/s"),
            "latency_p50_ms": (float(np.quantile(loop["latency_ms"], 0.50)), "ms"),
            "latency_p95_ms": (float(np.quantile(loop["latency_ms"], 0.95)), "ms"),
            "observe_p50_ms": (float(np.quantile(loop["observe_ms"], 0.50)), "ms"),
            "test_mae": (mae, "orders"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "attempted": common.TALLY.attempted,
        "failed": common.TALLY.failed,
        "metrics": metrics,
        "notes": {
            "rounds": len(loop["round_rates"]),
            "predictions": loop["predictions"],
            "distinct_queries": len(loop["distinct"]),
            "latency_samples": len(loop["latency_ms"]),
            "observe_samples": len(loop["observe_ms"]),
            "cache_hit_ratio": window.hit_ratio(),
            "invalidated_per_observe": statistics.fmean(invalidated),
        },
    }


def _measure(router: Client, stream: Stream, seconds: float, after_round=None) -> dict:
    """The timed closed loop: whole rounds until ``seconds`` have passed.
    ``after_round(loop)``, if given, runs between rounds, outside their
    timing."""
    loop = {
        "latency_ms": [],
        "observe_ms": [],
        "observed": [],
        "observe_replies": [],
        # Items per second of each round: the median over rounds is robust
        # to short stalls of a shared machine.
        "round_rates": [],
        "last_single": None,
        "distinct": set(),
        "predictions": 0,
    }
    t_run = time.perf_counter()
    while time.perf_counter() - t_run < seconds or not loop["round_rates"]:
        stream.replay.restart()
        sizes = iter(common.batch_sizes(stream.rng))
        round_items = 0
        round_start = time.perf_counter()
        for kind in stream.rng.permutation(stream.kinds):
            with common.TALLY.operation():
                if kind == "observe":
                    body, target = stream.observation()
                    t = time.perf_counter()
                    status, payload = router.call("POST", "/observe", body)
                    loop["observe_ms"].append(1000.0 * (time.perf_counter() - t))
                    if status != 200:
                        raise checks.CheckFailed(
                            f"/observe answered {status}: {payload}"
                        )
                    loop["observed"].append((body, target))
                    loop["observe_replies"].append(payload)
                elif kind == "batch":
                    queries = stream.replay.queries(next(sizes))
                    items = [
                        {"area": a, "day": d, "timeslot": s} for a, d, s in queries
                    ]
                    t = time.perf_counter()
                    status, payload = router.call(
                        "POST", "/predict_batch", {"items": items}
                    )
                    loop["latency_ms"].append(1000.0 * (time.perf_counter() - t))
                    checks.check_http_batch(status, payload, len(items))
                    loop["distinct"].update(queries)
                    round_items += len(items)
                else:
                    query = stream.replay.queries(1)[0]
                    body = dict(zip(("area", "day", "timeslot"), query))
                    t = time.perf_counter()
                    status, payload = router.call("POST", "/predict", body)
                    loop["latency_ms"].append(1000.0 * (time.perf_counter() - t))
                    if status != 200 or not np.isfinite(payload.get("gap", np.nan)):
                        raise checks.CheckFailed(
                            f"/predict answered {status}: {payload}"
                        )
                    loop["distinct"].add(query)
                    loop["last_single"] = body
                    round_items += 1
        loop["round_rates"].append(round_items / (time.perf_counter() - round_start))
        loop["predictions"] += round_items
        if after_round is not None:
            after_round(loop)
    return loop


def _probe(fleet: Fleet, window: StreamTotals, loop: dict, probes: dict) -> None:
    """Layer probes of a traced run, between two rounds of the stream (so
    the connections are as busy as the stream's) and outside the
    stream's totals: a no-op burst to each worker, and a hop burst with
    the round's last single query."""
    window.pause()
    for client in fleet.worker_clients.values():
        probes["noop_ms"].extend(_noop_probe(client))
    probes["hop_ms"].extend(
        _hop_probe(fleet.client, fleet.worker_clients, loop["last_single"])
    )
    window.resume()


def _cache_counts(router: Client) -> np.ndarray:
    """Fleet-wide ``[hits, misses]`` of the workers' prediction caches."""
    status, stats = router.call("GET", "/stats")
    if status != 200:
        raise checks.CheckFailed(f"router /stats answered {status}")
    caches = [worker["stats"]["cache"] for worker in stats["workers"]]
    return np.array(
        [
            sum(cache["hits"] for cache in caches),
            sum(cache["misses"] for cache in caches),
        ],
        dtype=np.float64,
    )


def _noop_probe(client: Client) -> list:
    """``GET /healthz`` straight to one worker: the front-end's own cost.

    Sent as a burst on one connection, keeping the samples after the
    first: an idle connection is in TCP quick-ACK mode, while the
    dispatcher's busy connection is not, and only the busy state shows
    what the stream's calls pay.
    """
    samples = []
    for _ in range(PROBE_BURST):
        t = time.perf_counter()
        status, _ = client.call("GET", "/healthz")
        samples.append(1000.0 * (time.perf_counter() - t))
        if status != 200:
            raise checks.CheckFailed(f"worker /healthz answered {status}")
    return samples[1:]


def _hop_probe(router: Client, workers: dict, body: dict) -> list:
    """A cached ``/predict`` through the router minus the same query sent
    straight to the worker that owns it.

    Each side is a burst on its own connection, keeping the samples after
    the first, as in :func:`_noop_probe`: alternating the two would let
    one connection idle while the other is used, and an idle connection
    skips the delayed-ACK stall the stream's calls pay.
    """
    owner = workers[shard_for(body["area"], body["timeslot"], len(workers))]
    sides = []
    for client in (router, owner):
        samples, gaps = [], set()
        for _ in range(PROBE_BURST):
            t = time.perf_counter()
            status, payload = client.call("POST", "/predict", body)
            samples.append(time.perf_counter() - t)
            if status != 200:
                raise checks.CheckFailed(f"hop probe answered {status}: {payload}")
            gaps.add(payload["gap"])
        sides.append((samples[1:], gaps))
    (routed, via_router), (straight, direct) = sides
    if via_router != direct or len(direct) != 1:
        raise checks.CheckFailed(
            f"router and owning worker disagree on {body}: "
            f"{sorted(via_router)!r} vs {sorted(direct)!r}"
        )
    return [1000.0 * (r - d) for r, d in zip(routed, straight)]


def _check_against_reference(router, paths, features, observed) -> float:
    """Served gaps vs a fresh in-process service on a city to which the
    benchmark applied the same observations; returns the MAE of the served
    gaps at the test timeslots against the realised gaps.

    The sample is every test query plus, for each observation, the query
    it targeted and the first and last slot of its window, in every area
    it touched (all areas for weather) and, for orders, on the next day
    too — the entries a missed invalidation would leave stale.
    """
    dataset = CityDataset.load(paths["city"])
    for body, _ in observed:
        apply_observation(dataset, body)
    # Rebuild the derived gap-label index from the updated counts.
    dataset = dataclasses.replace(dataset)

    test_queries = [
        (area, day, slot)
        for area in range(dataset.n_areas)
        for day in range(features.train_days, features.n_days)
        for slot in features.test_timeslots()
    ]
    touched = []
    for body, (area, day, slot) in observed:
        areas = [area] if "area" in body else range(dataset.n_areas)
        days = [day]
        if body["kind"] == "orders" and day + 1 < dataset.n_days:
            days.append(day + 1)
        minute = body["minute"]
        slots = [
            s
            for s in (slot, minute + 1, minute + features.window_minutes)
            if common.FIRST_SLOT <= s <= common.LAST_SLOT
        ]
        touched += [(a, d, s) for a in areas for d in days for s in slots]
    queries = list(dict.fromkeys(test_queries + touched))

    served = {}
    for start in range(0, len(queries), CHECK_BATCH):
        chunk = queries[start:start + CHECK_BATCH]
        items = [{"area": a, "day": d, "timeslot": s} for a, d, s in chunk]
        status, payload = router.call("POST", "/predict_batch", {"items": items})
        checks.check_http_batch(status, payload, len(items))
        served.update(
            (query, result["gap"]) for query, result in zip(chunk, payload["results"])
        )
    with PredictionService.from_checkpoint(
        paths["checkpoint"], dataset, features
    ) as reference:
        expected = {
            query: result.gap
            for query, result in zip(queries, reference.predict_batch(queries))
        }
    checks.check_equal(served, expected, "fleet vs in-process service")

    gaps = np.array([served[query] for query in test_queries])
    areas, days, slots = (np.array(column) for column in zip(*test_queries))
    realised = dataset.gaps(areas, days, slots, horizon=features.gap_minutes)
    return float(np.abs(gaps - realised).mean())
