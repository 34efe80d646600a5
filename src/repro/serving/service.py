"""The online prediction service: checkpoint in, low-latency gaps out.

:class:`PredictionService` is the deployable wrapper the paper's
conclusion sketches (DeepSD inside Didi's scheduling system).  It loads a
trained model from a checkpoint bundle (:meth:`from_checkpoint`), keeps
warm per-city featurization state (the :class:`~repro.core.GapPredictor`
per-area history tables), and answers ``predict(area, day, timeslot)`` queries
through a micro-batching queue: concurrent requests accumulate while the
previous batch is in flight, then are featurized and forwarded in one
vectorized pass and fanned back out.

Correctness contract
--------------------
Batched responses are **bitwise identical** to one-at-a-time
``Trainer.predict`` on the same checkpoint, for every batch size and
interleaving.  Inference forwards run in batch-invariant matmul mode
(:func:`repro.nn.batch_invariant`), which makes each output row depend
only on that row's features and the weights — never on who else shares
the batch.

Consistency model
-----------------
- An immutable ``_Engine`` snapshot (trainer + predictor + version tag)
  is read exactly once per request and once per batch, so every response
  is produced by exactly one checkpoint version even while
  :meth:`load_checkpoint` hot-swaps underneath.
- Cache keys embed the engine version plus an 8-byte hash of the query's
  weather/traffic windows, so a hot-swap or an environment change can
  never serve a stale hit; old entries age out via LRU/TTL.
- :meth:`observe` additionally invalidates the exact ``(area, timeslot)``
  windows an observation touches — load-bearing for order-count updates,
  which the environment hash does not cover.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import FeatureConfig
from ..core import GapPredictor, GapQuery, Trainer
from ..exceptions import ConfigError, DataError
from ..obs import MetricsRegistry, Tracer, get_logger, get_registry, resolve_tracer
from .batcher import MicroBatcher
from .cache import TTLCache

if TYPE_CHECKING:  # pragma: no cover
    from ..city.dataset import CityDataset

__all__ = [
    "CheckpointWatcher",
    "ObservationKind",
    "PredictionResult",
    "PredictionService",
    "ServingConfig",
]

_log = get_logger(__name__)

_MISS = object()

MINUTES_PER_DAY = 1440

#: Observation kinds accepted by :meth:`PredictionService.observe`.
ObservationKind = ("weather", "traffic", "orders")


@dataclass(frozen=True)
class ServingConfig:
    """Knobs for the serving hot path."""

    max_batch: int = 32
    cache_size: int = 4096
    cache_ttl_seconds: Optional[float] = None
    #: Execution-tape forwards: None defers to the trainer/model default
    #: (on for tape-safe models); False forces module dispatch.  Applied
    #: to every engine, including hot-swapped checkpoints.
    use_tape: Optional[bool] = None


@dataclass(frozen=True)
class PredictionResult:
    """One answered query.

    ``intervals`` is present when the serving checkpoint carries a trained
    quantile head (``{"p10": …, "p50": …, "p90": …}``, keys ascending by
    level); point-only checkpoints leave it ``None`` and the HTTP layer
    omits the fields entirely.
    """

    gap: float
    version: str
    cached: bool
    intervals: Optional[Dict[str, float]] = None


class _Engine:
    """Immutable (trainer, predictor, version, quantile head) snapshot.

    The service swaps whole engines atomically; request threads read
    ``service._engine`` once and use that snapshot throughout, so a
    response always comes from exactly one checkpoint version.
    """

    __slots__ = ("trainer", "predictor", "version", "quantiles")

    def __init__(self, trainer: Trainer, predictor: GapPredictor, version: str):
        self.trainer = trainer
        self.predictor = predictor
        self.version = version
        # The checkpoint's P10/P50/P90 residual head (or None).  Snapshot
        # alongside the weights so gaps and intervals always come from the
        # same checkpoint version, even mid-hot-swap.
        self.quantiles = getattr(trainer, "quantile_head", None)


class PredictionService:
    """Batched, cached, hot-swappable gap serving for one city.

    Parameters
    ----------
    trainer:
        A trained :class:`Trainer` (or one built by
        :meth:`Trainer.from_checkpoint`).
    dataset:
        The city whose live streams feed featurization — and the target
        of :meth:`observe` updates.
    config:
        Featurization constants; must match training.
    scalers:
        Training-set environment scalers
        ``{"temperature": (mean, std), "pm25": (mean, std)}``.
    serving_config, registry, clock:
        Batching/cache knobs, metrics sink and cache clock (injectable
        for deterministic tests).
    trace:
        Span tracing knob: ``None`` uses the process tracer (off unless
        enabled via ``repro.obs.configure_tracing`` / ``--trace``),
        ``True``/``False`` creates a private tracer in that state, or
        pass a :class:`repro.obs.Tracer` directly.  Tracing observes
        timings only — responses are bitwise-identical either way.
    """

    def __init__(
        self,
        trainer: Trainer,
        dataset: "CityDataset",
        config: FeatureConfig,
        scalers: Dict[str, Tuple[float, float]],
        serving_config: Optional[ServingConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        version: str = "v0:in-memory",
        trace=None,
    ) -> None:
        self.dataset = dataset
        self.config = config
        self.serving_config = serving_config or ServingConfig()
        self._registry = registry if registry is not None else get_registry()
        self._tracer = resolve_tracer(trace)
        self.cache = TTLCache(
            max_size=self.serving_config.cache_size,
            ttl_seconds=self.serving_config.cache_ttl_seconds,
            clock=clock or time.monotonic,
            registry=self._registry,
        )
        self._swap_count = 0
        self._apply_tape_policy(trainer)
        self._engine = _Engine(
            trainer, self._make_predictor(trainer, scalers), version
        )
        self._batcher = MicroBatcher(
            self._handle_batch,
            max_batch=self.serving_config.max_batch,
            registry=self._registry,
            tracer=self._tracer,
        )
        self._closed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        dataset: "CityDataset",
        config: FeatureConfig,
        serving_config: Optional[ServingConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Optional[Callable[[], float]] = None,
        trace=None,
    ) -> "PredictionService":
        """Stand up a service from a checkpoint bundle alone.

        The checkpoint's ``serving`` extras (model spec, input scales,
        feature scalers, training window/area counts) are cross-checked
        against ``config`` and ``dataset`` — a mismatch is a loud
        :class:`ConfigError`, never a silently wrong prediction.
        """
        trainer = Trainer.from_checkpoint(path)
        scalers = cls._check_serving_meta(trainer, dataset, config, source=path)
        return cls(
            trainer,
            dataset,
            config,
            scalers,
            serving_config=serving_config,
            registry=registry,
            clock=clock,
            version=f"v0:{os.path.basename(path)}",
            trace=trace,
        )

    @staticmethod
    def _check_serving_meta(
        trainer: Trainer,
        dataset: "CityDataset",
        config: FeatureConfig,
        source: str,
    ) -> Dict[str, Tuple[float, float]]:
        meta = trainer.serving_meta or {}
        window = meta.get("window")
        if window is not None and int(window) != config.window_minutes:
            raise ConfigError(
                f"checkpoint {source} was trained with window={window} but the "
                f"serving FeatureConfig uses window={config.window_minutes}"
            )
        n_areas = meta.get("n_areas")
        if n_areas is not None and int(n_areas) != dataset.n_areas:
            raise ConfigError(
                f"checkpoint {source} was trained on {n_areas} areas but the "
                f"serving dataset has {dataset.n_areas}"
            )
        raw = meta.get("feature_scalers")
        if not raw:
            raise ConfigError(
                f"checkpoint {source} has no feature scalers in its serving "
                "extras; re-train with a current version to serve from it"
            )
        return {name: (float(pair[0]), float(pair[1])) for name, pair in raw.items()}

    def _apply_tape_policy(self, trainer: Trainer) -> None:
        if self.serving_config.use_tape is not None:
            trainer.use_tape = bool(self.serving_config.use_tape)

    def _make_predictor(
        self, trainer: Trainer, scalers: Dict[str, Tuple[float, float]]
    ) -> GapPredictor:
        return GapPredictor(trainer, self.dataset, self.config, scalers)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------

    @property
    def version(self) -> str:
        """The current engine's checkpoint version tag."""
        return self._engine.version

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics sink this service records into (``/metrics``)."""
        return self._registry

    @property
    def tracer(self) -> Tracer:
        """The span sink this service records into (``/trace``)."""
        return self._tracer

    def predict(self, area_id: int, day: int, timeslot: int) -> PredictionResult:
        """Predicted gap for ``[timeslot, timeslot + C)`` in one area.

        Thread-safe.  Invalid queries raise :class:`DataError`
        synchronously (they never poison a batch); valid ones are served
        from the cache or folded into the next micro-batch.  Equal to
        ``predict_batch([(area_id, day, timeslot)])[0]``.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        engine = self._engine
        query = GapQuery(int(area_id), int(day), int(timeslot))
        engine.predictor._validate(query)
        with self._tracer.span(
            "serving.predict", area=query.area_id, day=query.day,
            timeslot=query.timeslot,
        ) as span:
            with self._registry.timer("repro.serving.request_seconds"):
                (result,) = self._answer(engine, [query], {})
            span.set(cached=result.cached)
        return result

    def predict_batch(
        self, items: Sequence[Tuple[int, int, int]]
    ) -> List[PredictionResult]:
        """Answer N ``(area, day, timeslot)`` triples in one shot.

        The batched transport hot path: items are partitioned into cache
        hits and misses, and *all* misses ride the batcher queue as a
        single group — one wakeup, one vectorized featurize+forward over
        the unique queries (the fixed-block ``batch_invariant()`` matmul
        mode and the per-block-size tape cache make every row independent
        of its batch-mates), then one cache fill per unique key.
        Responses are bitwise-identical to issuing the items as N
        sequential :meth:`predict` calls: within the batch, a duplicate
        of an earlier miss reports ``cached=True`` and repeats its float
        exactly as it would have hit the cache the sequential way.

        Every item is validated up front, so an invalid item raises
        :class:`DataError` before any work happens (no partial batch).
        """
        if self._closed:
            raise RuntimeError("service is closed")
        engine = self._engine
        queries = [
            GapQuery(int(area_id), int(day), int(timeslot))
            for area_id, day, timeslot in items
        ]
        for query in queries:
            engine.predictor._validate(query)
        with self._tracer.span("serving.predict_batch", n=len(queries)):
            self._registry.counter("repro.serving.batch_requests")
            return self._answer(engine, queries, {"n": len(queries)})

    def _answer(
        self, engine: _Engine, queries: List[GapQuery], lookup_attrs: Dict
    ) -> List[PredictionResult]:
        """Cache lookups, then one batcher group for every miss.

        The single cache/result path behind :meth:`predict` and
        :meth:`predict_batch`.  Queries must already be validated.
        """
        self._registry.counter("repro.serving.requests", len(queries))
        results: List[Optional[PredictionResult]] = [None] * len(queries)
        first_miss: Dict[object, int] = {}
        duplicates: List[Tuple[int, int]] = []
        with self._tracer.span("cache.lookup", **lookup_attrs):
            for index, query in enumerate(queries):
                key = self._cache_key(engine.version, query)
                if key in first_miss:
                    # Sequentially, the earlier miss would have filled
                    # the cache by now — mirror that hit exactly, stats
                    # included, without touching the cache.
                    self.cache.note_hit()
                    duplicates.append((index, first_miss[key]))
                    continue
                value = self.cache.get(key, _MISS)
                if value is _MISS:
                    first_miss[key] = index
                else:
                    results[index] = PredictionResult(
                        gap=value,
                        version=engine.version,
                        cached=True,
                        intervals=self._intervals(engine, value, query.timeslot),
                    )
        hits = len(queries) - len(first_miss)
        if hits:
            self._registry.counter("repro.serving.cache.hits", hits)
        if first_miss:
            misses = list(first_miss.values())
            self._registry.counter("repro.serving.cache.misses", len(misses))
            answers = self._batcher.submit([queries[i] for i in misses]).result()
            for index, (gap, version, intervals) in zip(misses, answers):
                results[index] = PredictionResult(
                    gap=gap, version=version, cached=False, intervals=intervals
                )
        for index, source in duplicates:
            results[index] = replace(results[source], cached=True)
        return results

    @staticmethod
    def _intervals(
        engine: _Engine, gap: float, timeslot: int
    ) -> Optional[Dict[str, float]]:
        """P10/P50/P90 for a gap, from the engine's quantile head (or None).

        Computed at result-assembly time from the (cached or freshly
        forwarded) point gap — the cache keeps bare floats, so a hit
        derives intervals bitwise-identical to the cold compute: the key
        pins the engine version, hence the exact same offset table.
        """
        if engine.quantiles is None:
            return None
        return engine.quantiles.intervals(gap, timeslot)

    def _cache_key(self, version: str, query: GapQuery):
        return (
            version,
            query.area_id,
            query.day,
            query.timeslot,
            self._env_hash(query.area_id, query.day, query.timeslot),
        )

    def _env_hash(self, area_id: int, day: int, timeslot: int) -> bytes:
        """8-byte digest of the query's weather + traffic windows.

        Keys change whenever the environment inputs the model would see
        change, so cached gaps can never outlive the data they were
        computed from.  Order counts are intentionally NOT hashed (the
        signal vectors are too wide to hash per request); order
        observations rely on targeted invalidation instead.
        """
        L = self.config.window_minutes
        lo, hi = timeslot - L, timeslot
        weather = self.dataset.weather
        digest = hashlib.blake2b(digest_size=8)
        digest.update(weather.types[day, lo:hi].tobytes())
        digest.update(weather.temperature[day, lo:hi].tobytes())
        digest.update(weather.pm25[day, lo:hi].tobytes())
        digest.update(self.dataset.traffic.level_counts[area_id, day, lo:hi].tobytes())
        return digest.digest()

    def _handle_batch(
        self, groups: List[List[GapQuery]]
    ) -> List[List[Tuple[float, str, Optional[Dict[str, float]]]]]:
        """One vectorized pass for a micro-batch (batcher thread only).

        Each item is the list of cache-missed queries of one
        :meth:`predict` / :meth:`predict_batch` call; the groups are
        flattened into one forward pass, so concurrent calls coalesce at
        zero extra cost.  Duplicate queries collapse to one forward row,
        so every duplicate gets the same float — bitwise equal to a
        one-at-a-time answer.  The batcher runs this under its
        ``batcher.batch`` span, so the stage spans below nest there
        automatically.
        """
        engine = self._engine
        queries = [query for group in groups for query in group]
        keys = [self._cache_key(engine.version, query) for query in queries]
        unique: Dict[object, int] = {}
        unique_queries: List[GapQuery] = []
        for key, query in zip(keys, queries):
            if key not in unique:
                unique[key] = len(unique_queries)
                unique_queries.append(query)
        with self._tracer.span("batch.featurize", rows=len(unique_queries)):
            example_set = engine.predictor._featurize(unique_queries)
        with self._tracer.span("batch.forward", rows=len(unique_queries)):
            gaps = engine.trainer.predict(example_set)
        with self._tracer.span("cache.fill", entries=len(unique)):
            for key, index in unique.items():
                self.cache.put(key, float(gaps[index]))
        self._registry.counter("repro.serving.predictions", len(unique_queries))
        answers = []
        for key, query in zip(keys, queries):
            gap = float(gaps[unique[key]])
            answers.append(
                (gap, engine.version, self._intervals(engine, gap, query.timeslot))
            )
        results = []
        start = 0
        for group in groups:
            results.append(answers[start:start + len(group)])
            start += len(group)
        return results

    # ------------------------------------------------------------------
    # Hot swap
    # ------------------------------------------------------------------

    def load_checkpoint(self, path: str) -> str:
        """Swap in a new checkpoint without dropping in-flight requests.

        The swap is a single reference assignment: requests that already
        read the old engine finish on it; later requests (and the batches
        serving them) see the new one.  No cache flush is needed — the
        new version tag changes every cache key.  Returns the new
        version string.
        """
        trainer = Trainer.from_checkpoint(path)
        scalers = self._check_serving_meta(
            trainer, self.dataset, self.config, source=path
        )
        self._apply_tape_policy(trainer)
        self._swap_count += 1
        version = f"v{self._swap_count}:{os.path.basename(path)}"
        self._engine = _Engine(trainer, self._make_predictor(trainer, scalers), version)
        self._registry.counter("repro.serving.checkpoint_swaps")
        _log.event("serving.checkpoint_swapped", version=version, path=path)
        return version

    # ------------------------------------------------------------------
    # Live observations
    # ------------------------------------------------------------------

    def observe(
        self,
        kind: str,
        day: int,
        minute: int,
        area_id: Optional[int] = None,
        **values,
    ) -> Dict[str, int]:
        """Ingest one observation and invalidate exactly what it staled.

        An observation at minute ``m`` sits inside the lookback window of
        timeslots ``t`` with ``m < t <= m + L`` — only those cache
        entries are dropped (for every area on weather, which is
        city-wide; for ``area_id`` alone on traffic and orders).  Order
        observations additionally update the area's history tables in
        place (:meth:`GapPredictor.refresh_orders`) and drop any cached
        entry for later days in that area, whose per-weekday histories may
        average over the mutated day.

        Returns ``{"invalidated": n, "profiles_dropped": m}``, where ``m``
        is 1 if the area's history tables were held and updated.
        """
        if kind not in ObservationKind:
            raise DataError(f"unknown observation kind {kind!r}; known: {ObservationKind}")
        if not 0 <= day < self.dataset.n_days:
            raise DataError(f"day {day} outside the simulation")
        if not 0 <= minute < MINUTES_PER_DAY:
            raise DataError(f"minute {minute} must be in [0, {MINUTES_PER_DAY})")
        if kind in ("traffic", "orders"):
            if area_id is None:
                raise DataError(f"{kind} observations require area_id")
            if not 0 <= area_id < self.dataset.n_areas:
                raise DataError(f"area {area_id} outside the city")

        with self._tracer.span("serving.observe", kind=kind):
            return self._observe(kind, day, minute, area_id, values)

    def _observe(
        self,
        kind: str,
        day: int,
        minute: int,
        area_id: Optional[int],
        values: Dict,
    ) -> Dict[str, int]:
        L = self.config.window_minutes
        profiles_dropped = 0
        if kind == "weather":
            self._apply_weather(day, minute, values)

            def stale(key) -> bool:
                return key[2] == day and minute < key[3] <= minute + L

        elif kind == "traffic":
            self._apply_traffic(area_id, day, minute, values)

            def stale(key) -> bool:
                return (
                    key[1] == area_id
                    and key[2] == day
                    and minute < key[3] <= minute + L
                )

        else:  # orders
            self._apply_orders(area_id, day, minute, values)
            profiles_dropped = self._engine.predictor.refresh_orders(area_id, day)

            def stale(key) -> bool:
                if key[1] != area_id:
                    return False
                if key[2] > day:
                    return True
                return key[2] == day and minute < key[3] <= minute + L

        invalidated = self.cache.invalidate(stale)
        self._registry.counter("repro.serving.observations")
        self._registry.counter("repro.serving.invalidated", invalidated)
        _log.event(
            "serving.observed",
            kind=kind,
            day=day,
            minute=minute,
            area=area_id,
            invalidated=invalidated,
        )
        return {"invalidated": invalidated, "profiles_dropped": profiles_dropped}

    def _apply_weather(self, day: int, minute: int, values: Dict) -> None:
        known = {"weather_type", "temperature", "pm25"}
        self._check_values(values, known)
        weather = self.dataset.weather
        if "weather_type" in values:
            weather.types[day, minute] = int(values["weather_type"])
        if "temperature" in values:
            weather.temperature[day, minute] = float(values["temperature"])
        if "pm25" in values:
            weather.pm25[day, minute] = float(values["pm25"])

    def _apply_traffic(
        self, area_id: int, day: int, minute: int, values: Dict
    ) -> None:
        self._check_values(values, {"level_counts"})
        counts = np.asarray(values["level_counts"], dtype=np.float64)
        if counts.shape != (4,):
            raise DataError(
                f"level_counts must have 4 congestion levels, got shape {counts.shape}"
            )
        self.dataset.traffic.level_counts[area_id, day, minute] = counts

    def _apply_orders(
        self, area_id: int, day: int, minute: int, values: Dict
    ) -> None:
        self._check_values(values, {"valid", "invalid"})
        if "valid" in values:
            self.dataset.valid_counts[area_id, day, minute] = int(values["valid"])
        if "invalid" in values:
            self.dataset.invalid_counts[area_id, day, minute] = int(values["invalid"])
            # Keep the O(1) gap-label cumsum coherent for this (area, day).
            self.dataset._invalid_cumsum[area_id, day, 1:] = self.dataset.invalid_counts[
                area_id, day
            ].cumsum(dtype=np.int64)

    @staticmethod
    def _check_values(values: Dict, known: set) -> None:
        unknown = set(values) - known
        if unknown:
            raise DataError(f"unknown observation fields {sorted(unknown)}; known: {sorted(known)}")
        if not values:
            raise DataError(f"observation needs at least one of {sorted(known)}")

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------

    def stats(self) -> dict:
        """Service-level state for the ``/stats`` endpoint and tests."""
        return {
            "version": self._engine.version,
            "quantiles": self._engine.quantiles is not None,
            "swap_count": self._swap_count,
            "cache": self.cache.stats(),
            "max_batch": self.serving_config.max_batch,
        }

    def close(self) -> None:
        """Drain and stop the batcher (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._batcher.close()

    def __enter__(self) -> "PredictionService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class CheckpointWatcher:
    """Hot-swap the service whenever a new bundle lands in a directory.

    This is the fleet's checkpoint-distribution mechanism: a trainer (or
    the continuous-learning loop, someday) writes a new atomic bundle
    into the shared checkpoint directory, and every worker's watcher
    notices the ``latest.json`` pointer move and swaps its engine
    snapshot independently — no coordination, no downtime, and never a
    torn read, because bundles are written tmp+rename with the pointer
    updated last.

    A failed swap (e.g. a bundle trained for a different window) is
    logged and retried on the next poll; the worker keeps serving its
    current engine.
    """

    def __init__(
        self,
        service: PredictionService,
        directory: str,
        interval_seconds: float = 2.0,
    ) -> None:
        from ..core.checkpoint import Checkpoint

        if interval_seconds <= 0:
            raise ConfigError(
                f"interval_seconds must be positive, got {interval_seconds}"
            )
        self._checkpoint_cls = Checkpoint
        self._service = service
        self.directory = os.fspath(directory)
        self.interval_seconds = interval_seconds
        self._stem = Checkpoint.latest_stem(self.directory)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-serving-ckpt-watcher", daemon=True
        )

    def start(self) -> "CheckpointWatcher":
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 5.0) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=timeout)

    def poll_once(self) -> Optional[str]:
        """Check the pointer; swap if it moved.  Returns the new version."""
        try:
            stem = self._checkpoint_cls.latest_stem(self.directory)
        except OSError:
            return None
        if stem is None or stem == self._stem:
            return None
        try:
            version = self._service.load_checkpoint(self.directory)
        except Exception as error:  # noqa: BLE001 — keep serving old engine
            _log.event(
                "serving.watch_swap_failed",
                directory=self.directory,
                stem=stem,
                error=repr(error),
            )
            return None
        self._stem = stem
        _log.event(
            "serving.watch_swapped", directory=self.directory,
            stem=stem, version=version,
        )
        return version

    def _run(self) -> None:
        while not self._stop.wait(self.interval_seconds):
            self.poll_once()
