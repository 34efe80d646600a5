"""The close()/submit() lifecycle race, hammered.

The bug this pins down: ``submit`` used to check ``_closed`` and then
enqueue without a lock, so a submitter could pass the check, lose the
CPU, and enqueue *after* ``close()`` pushed the stop sentinel — the
worker had already exited and that future hung forever.  With the
lifecycle lock (plus the worker's belt-and-braces queue sweep), every
submitted item must resolve: either with the handler's result or with a
loud ``RuntimeError`` — never a hang.
"""

import threading
from concurrent.futures import Future

import pytest

from repro.obs import MetricsRegistry
from repro.serving import MicroBatcher

pytestmark = pytest.mark.serving

_ITERATIONS = 100
_SUBMITTERS = 4
_PER_THREAD = 8


def test_concurrent_submit_vs_close_never_hangs_a_future():
    """100 iterations of submitters racing close(): every future that
    ``submit`` handed out resolves within the timeout."""
    for iteration in range(_ITERATIONS):
        batcher = MicroBatcher(
            lambda items: [item * 2 for item in items],
            max_batch=4,
            registry=MetricsRegistry(),
        )
        start = threading.Barrier(_SUBMITTERS + 1)
        futures = []
        futures_lock = threading.Lock()
        rejected = [0] * _SUBMITTERS

        def submit_some(thread_index):
            start.wait()
            for value in range(_PER_THREAD):
                try:
                    future = batcher.submit(value)
                except RuntimeError as error:
                    # The only acceptable refusal, and only after close.
                    assert "closed" in str(error)
                    rejected[thread_index] += 1
                    continue
                with futures_lock:
                    futures.append((value, future))

        threads = [
            threading.Thread(target=submit_some, args=(i,), daemon=True)
            for i in range(_SUBMITTERS)
        ]
        for thread in threads:
            thread.start()
        start.wait()  # release submitters and close() together
        batcher.close()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive(), f"submitter hung (iteration {iteration})"

        accepted = 0
        for value, future in futures:
            # The hang is the bug: an accepted future must resolve fast.
            try:
                result = future.result(timeout=10)
            except RuntimeError as error:
                assert str(error) == "batcher closed"
            else:
                assert result == value * 2
                accepted += 1
        assert len(futures) + sum(rejected) == _SUBMITTERS * _PER_THREAD

    # Not a vacuous race: across 100 iterations both outcomes must occur
    # somewhere (some work accepted overall, and close() ran to completion).
    assert batcher._closed


def test_submit_after_close_raises_immediately():
    batcher = MicroBatcher(
        lambda items: items, max_batch=2, registry=MetricsRegistry()
    )
    assert batcher.submit(1).result(timeout=10) == 1
    batcher.close()
    with pytest.raises(RuntimeError, match="closed"):
        batcher.submit(2)
    batcher.close()  # idempotent


def test_drain_fails_stragglers_not_silently():
    """Items that somehow sit behind the stop sentinel are failed loudly
    by the worker's sweep, not left pending (direct unit poke at the
    drain path, bypassing the lock)."""
    batcher = MicroBatcher(
        lambda items: items, max_batch=2, registry=MetricsRegistry()
    )
    batcher.close()
    straggler: Future = Future()
    batcher._queue.put(("late", straggler, None, 0.0))
    batcher._drain_closed()
    with pytest.raises(RuntimeError, match="batcher closed"):
        straggler.result(timeout=1)
