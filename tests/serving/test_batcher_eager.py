"""Eager-flush batching: dispatch immediately, batch by backpressure.

The worker never sleeps waiting for batch-mates — it takes whatever is
already queued and runs the handler; the *handler's own duration* is the
batching window.  These tests pin the two halves of that contract: a
lone submit is served at once, and items that queue up behind a slow
handler are coalesced into one batch.
"""

import threading
import time

import pytest

from repro.obs import MetricsRegistry
from repro.serving import MicroBatcher

pytestmark = pytest.mark.serving


def test_eager_flush_skips_the_linger_wait():
    """A single queued item is answered without waiting for batch-mates."""
    batcher = MicroBatcher(
        lambda items: [item + 1 for item in items],
        max_batch=8,
        registry=MetricsRegistry(),
    )
    try:
        start = time.perf_counter()
        assert batcher.submit(41).result(timeout=5.0) == 42
        elapsed = time.perf_counter() - start
        assert elapsed < 0.1, f"eager flush still lingered: {elapsed:.3f}s"
    finally:
        batcher.close()


def test_eager_flush_coalesces_backlog_into_batches():
    """Items queued while the handler runs are dispatched together."""
    release = threading.Event()
    batches = []

    def handler(items):
        batches.append(list(items))
        if len(batches) == 1:
            release.wait(timeout=5.0)  # hold the first batch open
        return [item * 2 for item in items]

    batcher = MicroBatcher(
        handler, max_batch=8, registry=MetricsRegistry(),
    )
    try:
        first = batcher.submit(0)
        # Wait until the worker is inside the handler with batch #1.
        deadline = time.perf_counter() + 5.0
        while not batches and time.perf_counter() < deadline:
            time.sleep(0.001)
        assert batches, "worker never picked up the first item"
        backlog = [batcher.submit(value) for value in (1, 2, 3)]
        release.set()
        assert first.result(timeout=5.0) == 0
        assert [f.result(timeout=5.0) for f in backlog] == [2, 4, 6]
        # The backlog accumulated behind the held handler must have been
        # flushed as one batch, not three singletons.
        assert batches[1] == [1, 2, 3]
    finally:
        batcher.close()


def test_eager_flush_respects_max_batch():
    release = threading.Event()
    batches = []

    def handler(items):
        batches.append(list(items))
        if len(batches) == 1:
            release.wait(timeout=5.0)
        return list(items)

    batcher = MicroBatcher(
        handler, max_batch=2, registry=MetricsRegistry(),
    )
    try:
        first = batcher.submit(0)
        deadline = time.perf_counter() + 5.0
        while not batches and time.perf_counter() < deadline:
            time.sleep(0.001)
        futures = [batcher.submit(value) for value in (1, 2, 3)]
        release.set()
        first.result(timeout=5.0)
        for future in futures:
            future.result(timeout=5.0)
        assert all(len(batch) <= 2 for batch in batches), batches
    finally:
        batcher.close()
