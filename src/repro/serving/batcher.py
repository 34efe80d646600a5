"""Micro-batching request queue.

Request threads submit items and get back futures; one daemon worker
drains the queue, hands the batch to a vectorized handler, and fans the
results back out.  The flush policy is **eager**: dispatch as soon as
the worker is free, batching whatever is already queued (up to
``max_batch``).  Under load, requests naturally accumulate while the
previous batch is being handled — the handler's own duration is the
batching window — so throughput self-batches with zero added latency.
A lone request is dispatched immediately; the worker never sleeps
waiting for batch-mates.

Model forwards are NOT thread-safe here (the trainer's best-k ensemble
swaps weights in and out of one model instance), so confining every
handler call to the single worker thread is load-bearing, not just an
optimization.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Callable, List, Optional, Sequence

from ..exceptions import ConfigError
from ..obs import MetricsRegistry, Tracer, get_registry, get_tracer

__all__ = ["MicroBatcher"]

_STOP = object()


class MicroBatcher:
    """Collect-then-dispatch wrapper around a batch handler.

    Parameters
    ----------
    handler:
        ``handler(items) -> results`` — called on the worker thread with
        1..max_batch items; must return one result per item, in order.
    max_batch:
        Largest batch handed to ``handler``.
    registry:
        Metrics sink (defaults to the process registry).  Emits
        ``repro.serving.batcher.queue_depth`` (gauge, sampled per
        dispatch) and ``repro.serving.batch_size`` (histogram).
    tracer:
        Span sink (defaults to the process tracer, off unless enabled).
        When tracing, :meth:`submit` captures the caller's active span
        context and the worker records one ``batcher.queue_wait`` span
        per item under it — the explicit hand-off that keeps parent/child
        nesting intact across the thread boundary — plus one
        ``batcher.batch`` span (parented to the first item's context)
        around the handler call.
    """

    def __init__(
        self,
        handler: Callable[[List[object]], Sequence[object]],
        max_batch: int = 32,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if max_batch <= 0:
            raise ConfigError(f"max_batch must be positive, got {max_batch}")
        self._handler = handler
        self.max_batch = max_batch
        self._registry = registry if registry is not None else get_registry()
        self._tracer = tracer if tracer is not None else get_tracer()
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = False
        # Guards the closed-check + enqueue in submit() against close():
        # without it a submit that passed the check could enqueue after
        # the _STOP sentinel and its future would never resolve.
        self._lifecycle_lock = threading.Lock()
        self._worker = threading.Thread(
            target=self._run, name="repro-serving-batcher", daemon=True
        )
        self._worker.start()

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------

    def submit(self, item: object) -> "Future":
        """Enqueue one item; the future resolves to the handler's result."""
        future: "Future" = Future()
        tracer = self._tracer
        if tracer.enabled:
            # Capture the submitting context here: the worker thread has
            # its own (empty) contextvars context, so the parent link must
            # travel with the queue item.
            context = tracer.current()
            enqueued = tracer.clock()
        else:
            context, enqueued = None, 0.0
        with self._lifecycle_lock:
            if self._closed:
                raise RuntimeError("batcher is closed")
            self._queue.put((item, future, context, enqueued))
        return future

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Stop the worker after it drains what is already queued."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            self._queue.put(_STOP)
        self._worker.join(timeout=timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------

    def _run(self) -> None:
        while True:
            first = self._queue.get()
            if first is _STOP:
                self._drain_closed()
                return
            batch = [first]
            stop_after = False
            # Take only what is already queued — never sleep.  The next
            # batch accumulates while the handler runs.
            while len(batch) < self.max_batch:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _STOP:
                    stop_after = True
                    break
                batch.append(item)
            self._registry.gauge(
                "repro.serving.batcher.queue_depth", self._queue.qsize()
            )
            self._registry.observe("repro.serving.batch_size", len(batch))
            self._dispatch(batch)
            if stop_after:
                self._drain_closed()
                return

    def _drain_closed(self) -> None:
        """Fail anything still queued when the worker exits.

        The lifecycle lock means nothing should ever follow the ``_STOP``
        sentinel, but a hung future is the worst failure mode a batcher
        can have, so the worker sweeps the queue anyway and resolves any
        stragglers with a loud error instead of leaving them pending
        forever.
        """
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is _STOP:
                continue
            _, future, _, _ = item
            if not future.done():
                future.set_exception(RuntimeError("batcher closed"))

    def _dispatch(self, batch) -> None:
        items = [item for item, _, _, _ in batch]
        futures = [future for _, future, _, _ in batch]
        tracer = self._tracer
        parent = None
        if tracer.enabled:
            now = tracer.clock()
            for _, _, context, enqueued in batch:
                if context is not None:
                    tracer.record(
                        "batcher.queue_wait",
                        start=enqueued,
                        duration=now - enqueued,
                        parent=context,
                    )
                    if parent is None:
                        parent = context
        try:
            with tracer.span("batcher.batch", parent=parent, batch_size=len(items)):
                with self._registry.timer("repro.serving.batch_seconds"):
                    results = list(self._handler(items))
            if len(results) != len(items):
                raise RuntimeError(
                    f"batch handler returned {len(results)} results "
                    f"for {len(items)} items"
                )
        except BaseException as error:  # noqa: BLE001 — fanned to callers
            for future in futures:
                if not future.done():
                    future.set_exception(error)
            return
        for future, result in zip(futures, results):
            if not future.done():
                future.set_result(result)
