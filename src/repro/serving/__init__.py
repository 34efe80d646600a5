"""Online inference: batched low-latency gap serving.

The deployment story the paper's conclusion describes — DeepSD answering
live "what will the gap be here, now?" queries inside a dispatch system:

- :class:`PredictionService` — loads a checkpoint bundle, keeps warm
  per-city featurization state, micro-batches concurrent requests into
  single vectorized forwards, caches results (LRU + TTL + targeted
  invalidation) and hot-swaps checkpoints without downtime;
- :class:`MicroBatcher` / :class:`TTLCache` — the reusable pieces;
- :class:`ServiceApp` (:mod:`repro.serving.app`) — the transport-
  agnostic route layer the HTTP front-end drives;
- :mod:`repro.serving.http` — the threaded stdlib JSON endpoint behind
  ``repro serve`` (every worker and the fleet router);
- :class:`FleetSupervisor` / :mod:`repro.serving.router` — the sharded
  multi-worker fleet behind ``repro serve --workers N``: supervised
  worker processes, hash-partitioned queries, broadcast observations,
  retry-on-reconnect and aggregated metrics;
- :class:`CheckpointWatcher` — per-process checkpoint-directory polling
  for zero-touch hot-swaps (``repro serve --watch-checkpoint``);
- :func:`run_loadtest` — the ``repro loadtest`` concurrency driver that
  records ``serving.fleet.*`` latency/throughput into the bench
  trajectory.

Batched responses are bitwise-identical to one-at-a-time
``Trainer.predict`` on the same checkpoint — and a sharded fleet is
bitwise-identical to one process (see ``docs/serving.md``).
"""

from .app import ServiceApp
from .batcher import MicroBatcher
from .cache import TTLCache
from .fleet import FleetConfig, FleetSupervisor
from .http import build_server, serve_forever
from .loadtest import (
    LoadTestResult,
    generate_ops,
    group_batches,
    merge_bench,
    run_loadtest,
    verify_batch_identical,
)
from .router import (
    SHARD_STRATEGIES,
    PredictCoalescer,
    RouterApp,
    aggregate_prometheus,
    build_router,
    close_pools,
    shard_for,
)
from .service import (
    CheckpointWatcher,
    ObservationKind,
    PredictionResult,
    PredictionService,
    ServingConfig,
)

__all__ = [
    "SHARD_STRATEGIES",
    "CheckpointWatcher",
    "FleetConfig",
    "FleetSupervisor",
    "LoadTestResult",
    "MicroBatcher",
    "ObservationKind",
    "PredictCoalescer",
    "PredictionResult",
    "PredictionService",
    "RouterApp",
    "ServiceApp",
    "ServingConfig",
    "TTLCache",
    "aggregate_prometheus",
    "build_router",
    "build_server",
    "close_pools",
    "generate_ops",
    "group_batches",
    "merge_bench",
    "run_loadtest",
    "serve_forever",
    "shard_for",
    "verify_batch_identical",
]
