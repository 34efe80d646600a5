"""Workload ``serve_cold``: an in-process PredictionService on cold queries.

Set-up loads the fixture city and checkpoint, stands the service up with
its shipped defaults and warms every per-(area, day) profile.  A
dispatcher thread then asks only queries the service has never seen —
the steady state of a live server meeting a new timeslot every minute —
so every prediction goes through featurize + forward and the cache never
answers.  One round is 17 closed-loop calls in a seeded order:

- 12 ``predict_batch`` calls, one batch size drawn from each twelfth of
  [1, 64] (the spread is the same in every round, the sizes are seeded);
- 3 single ``predict`` calls;
- 2 ``observe`` calls that re-assert the temperature the city already
  holds at a seeded (day, minute): the write path runs in full
  (validation, city update, invalidation scan over the cache) while the
  city stays equal to the fixture, so served gaps remain checkable
  against it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from repro.city import CityDataset
from repro.config import get_scale
from repro.core import Trainer
from repro.features import FeatureBuilder
from repro.obs import Tracer
from repro.serving import PredictionService

import checks
import common

SINGLE_CALLS = 3
OBSERVE_CALLS = 2
#: Queries whose answers the run records for the batch-vs-single check.
SAMPLE = 64


class QueryStream:
    """Distinct queries in a seeded order: never repeating, never the
    warm-up slot."""

    def __init__(self, n_areas: int, n_days: int, seed: int) -> None:
        self.n_days = n_days
        self._order = np.random.default_rng(seed).permutation(
            common.query_space(n_areas, n_days)
        )
        self._next = 0

    def take(self, n: int) -> list:
        if self._next + n > len(self._order):
            raise common.BenchError("distinct query space exhausted")
        chunk = self._order[self._next:self._next + n]
        self._next += n
        return [common.decode_query(index, self.n_days) for index in chunk]


def run(started: float, seed: int, seconds: float, trace: bool) -> dict:
    paths = common.fixture()
    features = get_scale(common.SCALE).features
    dataset = CityDataset.load(paths["city"])
    tracer = Tracer(capacity=1 << 16, enabled=False)
    with PredictionService.from_checkpoint(
        paths["checkpoint"], dataset, features, trace=tracer
    ) as service:
        service.predict_batch(
            [
                (area, day, common.WARM_SLOT)
                for area in range(dataset.n_areas)
                for day in range(dataset.n_days)
            ]
        )
        setup_s = time.perf_counter() - started - paths["build_s"]
        rng = np.random.default_rng(seed)
        loop = _measure(service, dataset, rng, seed, seconds, trace)
        # Peak memory of set-up and the measured loop, before any check runs.
        peak_rss_mb = common.own_peak_rss_mb()
        trainer, test_set, served = _check_test_queries(
            service, paths, dataset, features
        )
    _check_batch_vs_single(loop["recorded"], paths, dataset, features)

    mae = float(np.abs(served - test_set.gaps).mean())
    rates = loop["round_rates"]
    if trace:
        spans = common.SpanTotals()
        spans.add(common.spans_of(tracer), attr="rows")
        metrics = {
            "predictor.featurize_us_per_row": (
                spans.per_attr_us("batch.featurize"), "us"
            ),
            "predictor.featurize_share_pct": (
                100.0 * spans.seconds["batch.featurize"]
                / spans.seconds["batcher.batch"],
                "%",
            ),
            "trainer.forward_us_per_row": (spans.per_attr_us("batch.forward"), "us"),
            "trainer.predict_us_per_row": (
                _predict_us_per_row(trainer, test_set, rng), "us"
            ),
            "batcher.queue_wait_ms": (spans.mean_ms("batcher.queue_wait"), "ms"),
            "batcher.rows_per_forward": (
                spans.attr_sum["batch.forward"] / spans.count["batch.forward"],
                "rows",
            ),
            "cache.lookup_ms": (spans.mean_ms("cache.lookup"), "ms"),
            "trace.overhead_pct": (
                common.overhead_pct(
                    statistics.median(rates[False]), statistics.median(rates[True])
                ),
                "%",
            ),
        }
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (statistics.median(rates[False]), "items/s"),
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
            "rounds": len(rates[False]) + len(rates[True]),
            "predictions": loop["predictions"],
            "latency_samples": len(loop["latency_ms"]),
            "observe_samples": len(loop["observe_ms"]),
            "invalidated": loop["invalidated"],
            "served_vs_predict_max_diff": float(
                np.abs(served - trainer.predict(test_set)).max()
            ),
        },
    }


def _measure(service, dataset, rng, seed: int, seconds: float, trace: bool) -> dict:
    """The timed closed loop: whole rounds until ``seconds`` have passed
    (and, in a traced run, an even number of rounds)."""
    stream = QueryStream(dataset.n_areas, dataset.n_days, seed)
    kinds = np.array(
        ["batch"] * common.BATCH_CALLS
        + ["single"] * SINGLE_CALLS
        + ["observe"] * OBSERVE_CALLS
    )
    loop = {
        "latency_ms": [],
        "observe_ms": [],
        # Items per second of each round, apart for traced rounds: the
        # median over rounds is robust to short stalls of a shared machine.
        "round_rates": {False: [], True: []},
        "recorded": [],
        "predictions": 0,
        "invalidated": 0,
    }
    rounds = 0
    t_run = time.perf_counter()
    while (
        time.perf_counter() - t_run < seconds
        or rounds == 0
        or (trace and rounds % 2)
    ):
        traced = trace and rounds % 2 == 1
        service.tracer.enabled = traced
        sizes = iter(common.batch_sizes(rng))
        round_items = 0
        round_start = time.perf_counter()
        for kind in rng.permutation(kinds):
            with common.TALLY.operation():
                if kind == "observe":
                    day = int(rng.integers(dataset.n_days))
                    minute = int(rng.integers(1440))
                    value = float(dataset.weather.temperature[day, minute])
                    t = time.perf_counter()
                    reply = service.observe("weather", day, minute, temperature=value)
                    loop["observe_ms"].append(1000.0 * (time.perf_counter() - t))
                    loop["invalidated"] += reply["invalidated"]
                else:
                    queries = stream.take(next(sizes) if kind == "batch" else 1)
                    t = time.perf_counter()
                    if kind == "batch":
                        results = service.predict_batch(queries)
                    else:
                        results = [service.predict(*queries[0])]
                    loop["latency_ms"].append(1000.0 * (time.perf_counter() - t))
                    round_items += len(results)
                    checks.check_batch_answers(queries, results, expect_cold=True)
                    loop["recorded"].append((queries[0], results[0].gap))
        loop["round_rates"][traced].append(
            round_items / (time.perf_counter() - round_start)
        )
        loop["predictions"] += round_items
        rounds += 1
    service.tracer.enabled = False
    return loop


def _check_test_queries(service, paths, dataset, features):
    """Served gaps at the test queries vs ``Trainer.predict`` on the rows
    ``FeatureBuilder.build_test`` makes for them; returns the trainer, the
    test rows and the served gaps."""
    trainer = Trainer.from_checkpoint(paths["checkpoint"])
    scalers = {
        name: (float(pair[0]), float(pair[1]))
        for name, pair in trainer.serving_meta["feature_scalers"].items()
    }
    test_set = FeatureBuilder(dataset, features).build_test(scalers)
    queries = list(
        zip(
            test_set.area_ids.tolist(),
            test_set.day_ids.tolist(),
            test_set.time_ids.tolist(),
        )
    )
    served = np.array([result.gap for result in service.predict_batch(queries)])
    checks.check_close(
        served,
        trainer.predict(test_set),
        checks.SERVED_VS_BATCH_ATOL,
        "served vs Trainer.predict on builder rows",
    )
    return trainer, test_set, served


def _check_batch_vs_single(recorded, paths, dataset, features) -> None:
    """Batch answers recorded during the run vs one-at-a-time predicts on
    a cold service."""
    picks = np.linspace(0, len(recorded) - 1, num=min(SAMPLE, len(recorded)))
    sample = dict(recorded[int(i)] for i in picks)
    with PredictionService.from_checkpoint(
        paths["checkpoint"], dataset, features
    ) as fresh:
        singles = {query: fresh.predict(*query).gap for query in sample}
    checks.check_equal(sample, singles, "predict_batch vs cold single predict")


def _predict_us_per_row(trainer, test_set, rng: np.random.Generator) -> float:
    """Cross-check of the ``batch.forward`` span: ``Trainer.predict``
    timed from outside on test rows, in batches of the workload's sizes."""
    rows = 0
    seconds = 0.0
    for _ in range(8):
        for size in common.batch_sizes(rng):
            subset = test_set.subset(rng.choice(test_set.n_items, size, replace=False))
            t = time.perf_counter()
            trainer.predict(subset)
            seconds += time.perf_counter() - t
            rows += int(size)
    return 1e6 * seconds / rows
