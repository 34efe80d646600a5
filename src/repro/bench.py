"""Canonical performance benchmark: the numbers behind ``BENCH_perf.json``.

``repro bench`` measures the throughput of the pipeline's hot paths
— featurization, training epochs, inference, online serving — plus the
wall-clock of a
multi-model experiment run serially versus through the parallel runner,
and writes one canonical JSON file (``BENCH_perf.json`` at the repo root
by default).  That file is the repo's perf trajectory: every optimisation
PR regenerates it, and ``scripts/smoke.sh`` fails if any recorded
throughput regresses more than :data:`REGRESSION_FACTOR`× against the
committed baseline.

Every timed section runs the stack that ships: the execution tape
(:mod:`repro.nn.tape`) for training and inference, and the default
:class:`repro.serving.ServingConfig` for serving.  Module dispatch stays
the tape's trace source and fallback, so the train-epoch, inference and
serving sections each also make one untimed module-dispatch pass and
record a bitwise ``*.taped.identical`` cross-check against it.  The
experiment section re-runs the same task set in fresh caches both ways
and records whether the results matched bitwise, making every bench run
also a determinism check.

All numbers are honest wall-clock measurements on the current machine;
the parallel speedup in particular scales with available cores
(``cpu_count`` is recorded alongside it for interpretation).
"""

from __future__ import annotations

import json
import os
import statistics
import tempfile
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

from .config import get_scale
from .obs import Histogram, MetricsRegistry, get_logger, get_registry

_log = get_logger(__name__)

BENCH_SCHEMA_VERSION = 1
DEFAULT_BENCH_PATH = "BENCH_perf.json"
#: A recorded throughput may not drop below 1/REGRESSION_FACTOR of the
#: committed baseline (generous: benchmarks run on heterogeneous machines).
REGRESSION_FACTOR = 2.0
#: Warm serving passes over the same cache hits; the median is reported.
WARM_PASSES = 5


@contextmanager
def _cache_dir(path: Optional[str] = None) -> Iterator[str]:
    """Temporarily point ``REPRO_CACHE_DIR`` at a (fresh) directory."""
    previous = os.environ.get("REPRO_CACHE_DIR")
    target = path or tempfile.mkdtemp(prefix="repro_bench_")
    os.environ["REPRO_CACHE_DIR"] = target
    try:
        yield target
    finally:
        if previous is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = previous


def bench_featurization(scale_name: str) -> Dict[str, float]:
    """Items/sec of a cold FeatureBuilder.build() (simulation excluded)."""
    from .city import simulate_city
    from .features import FeatureBuilder

    scale = get_scale(scale_name)
    dataset = simulate_city(scale.simulation)
    started = time.perf_counter()
    train, test = FeatureBuilder(dataset, scale.features).build()
    seconds = time.perf_counter() - started
    items = train.n_items + test.n_items
    return {
        "featurize.items": float(items),
        "featurize.seconds": seconds,
        "featurize.items_per_sec": items / seconds if seconds else 0.0,
    }


def bench_train_epoch(scale_name: str, epochs: int = 2) -> Dict[str, float]:
    """Taped train-epoch throughput, plus a bitwise module-dispatch check.

    Both runs do identical arithmetic (same model seed, same shuffle
    stream); ``train_epoch.taped.identical`` compares their final weights
    bitwise.  Only the taped run is timed, and its time includes the
    one-off trace cost — honest for short runs.
    """
    from .core import BasicDeepSD, InputScales, Trainer, TrainingConfig
    from .nn import Adam

    scale = get_scale(scale_name)
    with _cache_dir():
        from .experiments.context import ExperimentContext

        context = ExperimentContext(scale=scale)
        train_set = context.train_set
        n_areas = context.dataset.n_areas

    config = TrainingConfig(epochs=epochs, best_k=1, seed=1)

    def trainer_run(use_tape: bool):
        """Trainer epochs, each timed into a quantile sketch so the
        trajectory records tail latency, not just the mean."""
        model = BasicDeepSD(
            n_areas,
            scale.features.window_minutes,
            scale.embeddings,
            dropout=0.1,
            seed=1,
        )
        model.input_scales = InputScales.from_example_set(train_set)
        model.train()
        trainer = Trainer(model, config, use_tape=use_tape)
        optimizer = Adam(model.parameters(), lr=config.learning_rate)
        rng = np.random.default_rng(config.seed)
        sketch = Histogram()
        started = time.perf_counter()
        for _ in range(epochs):
            epoch_started = time.perf_counter()
            trainer._run_epoch(train_set, optimizer, rng)
            sketch.observe(time.perf_counter() - epoch_started)
        return model, time.perf_counter() - started, sketch

    module_model, _, _ = trainer_run(use_tape=False)
    model, seconds, sketch = trainer_run(use_tape=True)
    state, module_state = model.state_dict(), module_model.state_dict()
    identical = all(
        np.array_equal(state[name], module_state[name]) for name in state
    )

    items = float(train_set.n_items * epochs)
    return {
        "train_epoch.items": items,
        "train_epoch.epochs": float(epochs),
        "train_epoch.seconds": seconds,
        "train_epoch.items_per_sec": items / seconds if seconds else 0.0,
        "train_epoch.p95_ms": _quantile_ms(sketch, 0.95),
        "train_epoch.taped.identical": float(identical),
    }


def _quantile_ms(histogram: Histogram, q: float) -> float:
    """A sketch quantile, in milliseconds (0.0 when nothing was observed)."""
    value = histogram.quantile(q)
    return value * 1000.0 if value is not None else 0.0


def bench_inference(scale_name: str) -> Dict[str, float]:
    """Single-pass taped prediction throughput over the train set, with a
    bitwise ``identical`` check against one module-dispatch pass."""
    from .core import BasicDeepSD, InputScales, Trainer

    scale = get_scale(scale_name)
    with _cache_dir():
        from .experiments.context import ExperimentContext

        context = ExperimentContext(scale=scale)
        example_set = context.train_set
        n_areas = context.dataset.n_areas
    model = BasicDeepSD(
        n_areas,
        scale.features.window_minutes,
        scale.embeddings,
        dropout=0.0,
        seed=1,
    )
    model.input_scales = InputScales.from_example_set(example_set)
    module_outputs = Trainer(model, use_tape=False)._predict_current(example_set)

    trainer = Trainer(model, use_tape=True)
    trainer._predict_current(example_set)  # warm up (traces the tape)
    started = time.perf_counter()
    outputs = trainer._predict_current(example_set)
    seconds = time.perf_counter() - started
    return {
        "inference.items": float(example_set.n_items),
        "inference.seconds": seconds,
        "inference.items_per_sec": (
            example_set.n_items / seconds if seconds else 0.0
        ),
        "inference.taped.identical": float(
            np.array_equal(outputs, module_outputs)
        ),
    }


def bench_serving(scale_name: str) -> Dict[str, float]:
    """Serving throughput: cold micro-batched queries and warm cache hits.

    Stands up a full :class:`repro.serving.PredictionService` with the
    default :class:`~repro.serving.ServingConfig` (untrained weights —
    throughput does not depend on the parameter values) and drives it
    from a few submitter threads, the same concurrency shape the HTTP
    front-end produces.  The cold pass answers distinct queries through
    featurize + forward; the warm passes re-ask them and must be answered
    from the LRU cache.  ``serving.taped.identical`` asserts that one
    untimed module-dispatch service returned bitwise the same gaps.
    """
    import threading

    from .core import BasicDeepSD, InputScales, Trainer
    from .serving import PredictionService, ServingConfig

    scale = get_scale(scale_name)
    with _cache_dir():
        from .experiments.context import ExperimentContext

        context = ExperimentContext(scale=scale)
        dataset = context.dataset
        train_set = context.train_set

    L = scale.features.window_minutes
    slots = range(L, 1440 - scale.features.gap_minutes, 7)
    queries = [
        (area, day, slot)
        for area in range(dataset.n_areas)
        for day in range(1, dataset.n_days)
        for slot in slots
    ][:600]

    def build_service(use_tape: Optional[bool], registry: MetricsRegistry):
        model = BasicDeepSD(
            dataset.n_areas,
            scale.features.window_minutes,
            scale.embeddings,
            dropout=0.0,
            seed=1,
        )
        model.input_scales = InputScales.from_example_set(train_set)
        return PredictionService(
            Trainer(model),
            dataset,
            scale.features,
            train_set.scalers,
            serving_config=ServingConfig(use_tape=use_tape),
            registry=registry,
        )

    with build_service(False, MetricsRegistry()) as module_service:
        module_gaps = [
            result.gap for result in module_service.predict_batch(queries)
        ]

    # Private registry: per-request latency quantiles for this service
    # only, resettable between the cold and warm passes.
    registry = MetricsRegistry()
    service = build_service(None, registry)
    results: Dict[tuple, float] = {}

    def drive(chunk):
        for query in chunk:
            results[query] = service.predict(*query).gap

    def timed_pass() -> float:
        n_threads = 4
        chunks = [queries[i::n_threads] for i in range(n_threads)]
        threads = [
            threading.Thread(target=drive, args=(chunk,)) for chunk in chunks
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - started

    def request_quantiles(prefix: str) -> Dict[str, float]:
        sketch = registry.histograms.get(
            "repro.serving.request_seconds", Histogram()
        )
        return {
            f"{prefix}.p50_ms": _quantile_ms(sketch, 0.50),
            f"{prefix}.p95_ms": _quantile_ms(sketch, 0.95),
            f"{prefix}.p99_ms": _quantile_ms(sketch, 0.99),
        }

    service.predict(*queries[0])  # warm up imports and the first profile
    registry.reset()
    cold_seconds = timed_pass()
    metrics = request_quantiles("serving.cold")
    registry.reset()
    warm_passes = [timed_pass()]
    metrics.update(request_quantiles("serving.warm"))
    # One warm pass lasts about one GIL switch interval, so a single
    # scheduling stall can halve its rate: the throughput is the median
    # of WARM_PASSES passes over the same hits (latencies: the first).
    warm_passes += [timed_pass() for _ in range(WARM_PASSES - 1)]
    warm_seconds = statistics.median(warm_passes)
    service.close()
    items = float(len(queries))
    metrics.update(
        {
            "serving.items": items,
            "serving.cold.seconds": cold_seconds,
            "serving.cold.items_per_sec": (
                items / cold_seconds if cold_seconds else 0.0
            ),
            "serving.warm.seconds": warm_seconds,
            "serving.warm.items_per_sec": (
                items / warm_seconds if warm_seconds else 0.0
            ),
            "serving.taped.identical": float(
                [results[query] for query in queries] == module_gaps
            ),
        }
    )
    return metrics


def bench_experiment(
    scale_name: str, workers: int = 2, experiment: str = "table2"
) -> Dict[str, float]:
    """Serial vs parallel wall-clock of one multi-model experiment.

    Each mode runs in its own fresh cache directory, so both pay the full
    simulate + featurize + train cost; ``identical`` records whether the
    two runs' result rows matched exactly (the runner's determinism
    guarantee, doubling as a self-check of every bench run).
    """
    from .experiments import runner
    from .experiments.context import ExperimentContext

    def one_run(n_workers: int):
        with _cache_dir():
            context = ExperimentContext(scale=get_scale(scale_name))
            started = time.perf_counter()
            result, _ = runner.run_experiment(
                experiment, context, workers=n_workers
            )
            return result, time.perf_counter() - started

    serial_result, serial_seconds = one_run(1)
    parallel_result, parallel_seconds = one_run(workers)
    return {
        "experiment.serial_seconds": serial_seconds,
        "experiment.parallel_seconds": parallel_seconds,
        "experiment.workers": float(workers),
        "experiment.speedup": (
            serial_seconds / parallel_seconds if parallel_seconds else 0.0
        ),
        "experiment.identical": float(serial_result == parallel_result),
    }


def run_bench(
    scale_name: str = "tiny",
    *,
    workers: int = 2,
    epochs: int = 2,
    experiment: str = "table2",
) -> dict:
    """Run every section and assemble the ``BENCH_perf.json`` payload."""
    registry = get_registry()
    metrics: Dict[str, float] = {}
    for section, fn in (
        ("featurize", lambda: bench_featurization(scale_name)),
        ("train_epoch", lambda: bench_train_epoch(scale_name, epochs)),
        ("inference", lambda: bench_inference(scale_name)),
        ("serving", lambda: bench_serving(scale_name)),
        ("experiment", lambda: bench_experiment(scale_name, workers, experiment)),
    ):
        _log.event("bench.section", section=section)
        with registry.timer(f"repro.bench.{section}.seconds"):
            metrics.update(fn())
    for name, value in metrics.items():
        registry.gauge(f"repro.bench.{name}", value)
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_by": "repro bench",
        "scale": scale_name,
        "experiment": experiment,
        "cpu_count": os.cpu_count() or 1,
        "metrics": metrics,
    }


def write_bench(payload: dict, path: str = DEFAULT_BENCH_PATH) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bench(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


#: Latency metrics gated by :func:`find_regressions` — these fail in the
#: opposite direction from throughput: current must not EXCEED baseline
#: by more than the factor.
LATENCY_GATES = (
    "serving.cold.p99_ms",
    "serving.warm.p99_ms",
    # End-to-end single-item fleet latency through the router: the batch
    # transport plane must never buy its throughput with p99 (gated
    # alongside serving.fleet.items_per_sec, which the items_per_sec
    # sweep below picks up once the baseline records it).
    "serving.fleet.p99_ms",
)


def find_regressions(
    current: dict, baseline: dict, factor: float = REGRESSION_FACTOR
) -> List[str]:
    """Metrics that regressed more than ``factor``× against baseline.

    ``*.items_per_sec`` metrics gate on throughput drops; the
    :data:`LATENCY_GATES` tail-latency metrics gate on increases.
    Absolute seconds vary with scale/epoch knobs and the experiment
    speedup varies with core count, so neither is gated.  Returns
    human-readable findings (empty = no regression).
    """
    findings = []
    base_metrics = baseline.get("metrics", {})
    current_metrics = current.get("metrics", {})
    for name, value in current_metrics.items():
        if not name.endswith("items_per_sec"):
            continue
        reference = base_metrics.get(name)
        if not reference or reference <= 0:
            continue
        if value < reference / factor:
            findings.append(
                f"{name}: {value:.1f} items/s is more than {factor:g}x below "
                f"baseline {reference:.1f} items/s"
            )
    for name in LATENCY_GATES:
        value = current_metrics.get(name)
        reference = base_metrics.get(name)
        if not value or not reference or reference <= 0:
            continue
        if value > reference * factor:
            findings.append(
                f"{name}: {value:.2f} ms is more than {factor:g}x above "
                f"baseline {reference:.2f} ms"
            )
    return findings
