"""Concurrent load generator for the serving API (single node or fleet).

``repro loadtest`` drives a mixed stream of ``/predict`` and ``/observe``
requests — thousands of them, from many threads with keep-alive
connections — against any endpoint speaking the serving JSON API: a lone
``repro serve`` process or a fleet router.  It measures what the bench
harness's in-process loop cannot: the full HTTP + router + retry path
under saturation, including worker deaths mid-load.

The op stream is generated deterministically from ``seed`` and the scale
config (areas/days/valid timeslot range), so two runs against equivalent
deployments issue byte-identical request bodies.  Results land in the
canonical ``BENCH_perf.json`` trajectory under ``serving.fleet.*`` keys
(see ``docs/performance.md``): latency percentiles in milliseconds plus
saturation throughput as ``items_per_sec`` — the key family the perf
regression gate watches.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..bench import BENCH_SCHEMA_VERSION, load_bench, write_bench
from ..config import ExperimentScale
from ..exceptions import ConfigError
from ..obs import Histogram, get_logger
from .router import TRANSPORT_ERRORS, request_json

__all__ = [
    "LoadTestResult",
    "generate_ops",
    "merge_bench",
    "run_loadtest",
    "verify_batch_identical",
]

_log = get_logger(__name__)

_MINUTES_PER_DAY = 1440


@dataclass
class LoadTestResult:
    """Outcome of one load-test run.

    ``requests`` counts HTTP round-trips; ``items`` counts logical
    operations (a ``/predict_batch`` of 32 is one request, 32 items).
    The two are equal in single-item mode.
    """

    requests: int
    errors: int
    seconds: float
    concurrency: int
    p50_ms: float
    p95_ms: float
    p99_ms: float
    items: int = 0
    batch: int = 1

    def __post_init__(self) -> None:
        if self.items <= 0:
            self.items = self.requests

    @property
    def items_per_sec(self) -> float:
        return self.items / self.seconds if self.seconds > 0 else 0.0

    def metrics(self, prefix: str = "serving.fleet") -> Dict[str, float]:
        """Flat metric dict for the ``BENCH_perf.json`` trajectory."""
        return {
            f"{prefix}.requests": float(self.requests),
            f"{prefix}.items": float(self.items),
            f"{prefix}.errors": float(self.errors),
            f"{prefix}.seconds": self.seconds,
            f"{prefix}.concurrency": float(self.concurrency),
            f"{prefix}.items_per_sec": self.items_per_sec,
            f"{prefix}.p50_ms": self.p50_ms,
            f"{prefix}.p95_ms": self.p95_ms,
            f"{prefix}.p99_ms": self.p99_ms,
        }


def generate_ops(
    scale: ExperimentScale,
    n_requests: int,
    observe_fraction: float = 0.2,
    seed: int = 0,
) -> List[Tuple[str, dict]]:
    """A deterministic mixed op stream of ``(path, body)`` pairs.

    Predictions draw uniformly over the city's valid query space (any
    area/day, timeslots with a full lookback window and room for the
    gap); observations split evenly across the three kinds with
    in-domain values.  Everything derives from ``seed`` via one
    ``default_rng``, so the stream is reproducible across runs and
    machines.
    """
    if n_requests <= 0:
        raise ConfigError(f"n_requests must be positive, got {n_requests}")
    if not 0.0 <= observe_fraction <= 1.0:
        raise ConfigError(
            f"observe_fraction must be in [0, 1], got {observe_fraction}"
        )
    rng = np.random.default_rng(seed)
    n_areas = scale.simulation.n_areas
    n_days = scale.features.n_days
    slot_lo = scale.features.window_minutes
    slot_hi = _MINUTES_PER_DAY - scale.features.gap_minutes
    ops: List[Tuple[str, dict]] = []
    for _ in range(n_requests):
        if rng.random() < observe_fraction:
            kind = ("traffic", "weather", "orders")[int(rng.integers(3))]
            day = int(rng.integers(n_days))
            minute = int(rng.integers(_MINUTES_PER_DAY))
            if kind == "traffic":
                body = {
                    "kind": kind, "day": day, "minute": minute,
                    "area": int(rng.integers(n_areas)),
                    "values": {
                        "level_counts": [int(v) for v in rng.integers(0, 30, 4)]
                    },
                }
            elif kind == "weather":
                body = {
                    "kind": kind, "day": day, "minute": minute,
                    "values": {
                        "weather_type": int(rng.integers(4)),
                        "temperature": round(float(rng.uniform(-5, 35)), 2),
                        "pm25": round(float(rng.uniform(5, 300)), 2),
                    },
                }
            else:
                valid = int(rng.integers(0, 40))
                body = {
                    "kind": kind, "day": day, "minute": minute,
                    "area": int(rng.integers(n_areas)),
                    "values": {
                        "valid": valid,
                        "invalid": int(rng.integers(0, max(1, valid))),
                    },
                }
            ops.append(("/observe", body))
        else:
            ops.append((
                "/predict",
                {
                    "area": int(rng.integers(n_areas)),
                    "day": int(rng.integers(n_days)),
                    "timeslot": int(rng.integers(slot_lo, slot_hi + 1)),
                },
            ))
    return ops


def _address_of(url: str) -> str:
    """``http://host:port/...`` or bare ``host:port`` → ``host:port``."""
    stripped = url.strip()
    if "//" in stripped:
        stripped = stripped.split("//", 1)[1]
    return stripped.split("/", 1)[0]


def group_batches(
    ops: List[Tuple[str, dict]], batch: int
) -> List[Tuple[str, dict, int]]:
    """Fold runs of ``/predict`` ops into ``/predict_batch`` wire ops.

    Consecutive predictions (up to ``batch`` of them) become one
    ``{"items": [...]}`` request; an ``/observe`` in the stream flushes
    the run so the observe/predict interleaving the seed generated is
    preserved.  Returns ``(path, body, n_items)`` triples.
    """
    if batch <= 1:
        return [(path, body, 1) for path, body in ops]
    wire: List[Tuple[str, dict, int]] = []
    run: List[dict] = []

    def flush() -> None:
        if not run:
            return
        if len(run) == 1:
            wire.append(("/predict", run[0], 1))
        else:
            wire.append(("/predict_batch", {"items": list(run)}, len(run)))
        run.clear()

    for path, body in ops:
        if path == "/predict":
            run.append(body)
            if len(run) >= batch:
                flush()
        else:
            flush()
            wire.append((path, body, 1))
    flush()
    return wire


def run_loadtest(
    url: str,
    scale: ExperimentScale,
    n_requests: int = 2000,
    concurrency: int = 8,
    observe_fraction: float = 0.2,
    seed: int = 0,
    timeout: float = 60.0,
    batch: int = 1,
) -> LoadTestResult:
    """Drive ``n_requests`` mixed ops at ``url`` from ``concurrency``
    threads; every thread keeps its own keep-alive connection.

    ``batch > 1`` folds runs of predictions into ``/predict_batch``
    requests of up to that many items (:func:`group_batches`), measuring
    the batched transport plane; ``n_requests`` still counts *items*.

    A request counts as an error when it returns a non-200 status or
    dies on a transport error (the fleet router's retry loop makes the
    latter rare even while workers are being killed).  Latency is
    end-to-end per request, recorded into a quantile sketch.
    """
    if concurrency <= 0:
        raise ConfigError(f"concurrency must be positive, got {concurrency}")
    if batch <= 0:
        raise ConfigError(f"batch must be positive, got {batch}")
    address = _address_of(url)
    ops = generate_ops(scale, n_requests, observe_fraction, seed)
    wire_ops = group_batches(ops, batch)
    latencies = Histogram()
    histogram_lock = threading.Lock()
    errors = [0] * concurrency
    cursor = {"next": 0}
    cursor_lock = threading.Lock()

    def drive(thread_index: int) -> None:
        while True:
            with cursor_lock:
                index = cursor["next"]
                if index >= len(wire_ops):
                    return
                cursor["next"] = index + 1
            path, body, n_items = wire_ops[index]
            started = time.perf_counter()
            try:
                status, _ = request_json(
                    address, "POST", path, body, timeout=timeout
                )
            except TRANSPORT_ERRORS:
                status = -1
            elapsed = time.perf_counter() - started
            if status != 200:
                errors[thread_index] += n_items
            with histogram_lock:
                latencies.observe(elapsed)

    threads = [
        threading.Thread(target=drive, args=(i,), daemon=True,
                         name=f"repro-loadtest-{i}")
        for i in range(concurrency)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - started

    result = LoadTestResult(
        requests=len(wire_ops),
        items=len(ops),
        batch=batch,
        errors=sum(errors),
        seconds=seconds,
        concurrency=concurrency,
        p50_ms=latencies.quantile(0.50) * 1000.0,
        p95_ms=latencies.quantile(0.95) * 1000.0,
        p99_ms=latencies.quantile(0.99) * 1000.0,
    )
    _log.event(
        "loadtest.finished",
        requests=result.requests,
        items=result.items,
        batch=batch,
        errors=result.errors,
        seconds=round(result.seconds, 3),
        items_per_sec=round(result.items_per_sec, 1),
        p99_ms=round(result.p99_ms, 2),
    )
    return result


def verify_batch_identical(
    url: str,
    scale: ExperimentScale,
    n_items: int = 64,
    seed: int = 7_777,
    timeout: float = 60.0,
) -> Dict[str, float]:
    """Cross-check ``/predict_batch`` against per-item ``/predict``.

    Issues one set of fresh queries per item first and then as one
    batch, and a second disjoint set batch-first — so both the
    single-computed-then-batch-read and batch-computed-then-single-read
    directions are exercised end to end through whatever (router, fleet,
    cache) sits behind ``url``.  Gaps are compared with ``==`` on the
    JSON-decoded floats, which is bitwise equality for doubles (JSON
    round-trips them exactly).

    Returns ``{"serving.batch.identical": 0|1,
    "serving.batch.checked": n, "serving.batch.mismatches": k}`` ready
    to merge into the bench trajectory.
    """
    if n_items < 2:
        raise ConfigError(f"n_items must be >= 2, got {n_items}")
    address = _address_of(url)
    rng = np.random.default_rng(seed)
    n_areas = scale.simulation.n_areas
    n_days = scale.features.n_days
    slot_lo = scale.features.window_minutes
    slot_hi = _MINUTES_PER_DAY - scale.features.gap_minutes
    seen = set()
    items: List[dict] = []
    while len(items) < n_items:
        triple = (
            int(rng.integers(n_areas)),
            int(rng.integers(n_days)),
            int(rng.integers(slot_lo, slot_hi + 1)),
        )
        if triple in seen:
            continue
        seen.add(triple)
        items.append(
            {"area": triple[0], "day": triple[1], "timeslot": triple[2]}
        )
    half = len(items) // 2
    mismatches = 0
    checked = 0

    def single(body: dict) -> dict:
        status, payload = request_json(
            address, "POST", "/predict", body, timeout=timeout
        )
        if status != 200:
            raise RuntimeError(f"/predict -> {status}: {payload}")
        return payload

    def batched(bodies: List[dict]) -> List[dict]:
        status, payload = request_json(
            address, "POST", "/predict_batch", {"items": bodies},
            timeout=timeout,
        )
        if status != 200:
            raise RuntimeError(f"/predict_batch -> {status}: {payload}")
        results = payload.get("results", [])
        if len(results) != len(bodies):
            raise RuntimeError(
                f"/predict_batch returned {len(results)} results "
                f"for {len(bodies)} items"
            )
        return results

    # Direction 1: compute per item, read back as one batch.
    first = items[:half]
    singles = [single(body) for body in first]
    for expected, got in zip(singles, batched(first)):
        checked += 1
        if expected["gap"] != got["gap"] or expected["version"] != got["version"]:
            mismatches += 1
    # Direction 2: compute as one batch, read back per item.
    second = items[half:]
    batch_results = batched(second)
    for expected, body in zip(batch_results, second):
        got = single(body)
        checked += 1
        if expected["gap"] != got["gap"] or expected["version"] != got["version"]:
            mismatches += 1

    identical = 1.0 if mismatches == 0 else 0.0
    _log.event(
        "loadtest.batch_verified",
        checked=checked,
        mismatches=mismatches,
        identical=bool(identical),
    )
    return {
        "serving.batch.identical": identical,
        "serving.batch.checked": float(checked),
        "serving.batch.mismatches": float(mismatches),
    }


def merge_bench(
    metrics: Dict[str, float],
    path: str,
    scale_name: Optional[str] = None,
) -> str:
    """Merge ``metrics`` into the bench trajectory at ``path``.

    Existing keys outside ``metrics`` are preserved (the loadtest only
    owns its ``serving.fleet.*`` family); a missing file gets a fresh
    skeleton so the loadtest can bootstrap a trajectory on its own.
    """
    if os.path.exists(path):
        payload = load_bench(path)
    else:
        payload = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "generated_by": "repro loadtest",
            "scale": scale_name or "tiny",
            "cpu_count": os.cpu_count() or 1,
            "metrics": {},
        }
    payload.setdefault("metrics", {}).update(
        {name: round(float(value), 4) for name, value in metrics.items()}
    )
    return write_bench(payload, path)
