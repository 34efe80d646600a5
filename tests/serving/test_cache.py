"""TTLCache and MicroBatcher unit tests (fake clocks, private registries)."""

import threading

import pytest

from repro.exceptions import ConfigError
from repro.obs import MetricsRegistry
from repro.serving import MicroBatcher, TTLCache

pytestmark = pytest.mark.serving


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestTTLCache:
    def test_lru_eviction_order(self):
        cache = TTLCache(max_size=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # touch: "b" is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert cache.stats()["evictions"] == 1

    def test_ttl_expiry(self):
        clock = FakeClock()
        cache = TTLCache(max_size=8, ttl_seconds=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(9.999)
        assert cache.get("a") == 1
        clock.advance(0.002)
        assert cache.get("a") is None
        stats = cache.stats()
        assert stats["expirations"] == 1
        assert stats["size"] == 0

    def test_put_refreshes_ttl(self):
        clock = FakeClock()
        cache = TTLCache(max_size=8, ttl_seconds=10.0, clock=clock)
        cache.put("a", 1)
        clock.advance(8.0)
        cache.put("a", 2)
        clock.advance(8.0)
        assert cache.get("a") == 2

    def test_invalidate_predicate_is_exact(self):
        cache = TTLCache(max_size=16)
        for area in range(4):
            for slot in range(4):
                cache.put(("v0", area, slot), area * 10 + slot)
        removed = cache.invalidate(lambda key: key[1] == 2)
        assert removed == 4
        assert ("v0", 2, 0) not in cache
        assert ("v0", 1, 0) in cache
        assert cache.stats()["invalidations"] == 4

    def test_stats_are_exact(self):
        cache = TTLCache(max_size=4)
        assert cache.get("missing") is None
        cache.put("a", 1)
        cache.get("a")
        cache.get("a")
        stats = cache.stats()
        assert stats["hits"] == 2
        assert stats["misses"] == 1
        assert stats["size"] == 1

    def test_clear_counts_invalidations(self):
        cache = TTLCache(max_size=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert len(cache) == 0
        assert cache.stats()["invalidations"] == 2

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            TTLCache(max_size=0)
        with pytest.raises(ConfigError):
            TTLCache(max_size=4, ttl_seconds=0)

    def test_registry_counters_track_churn(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        cache = TTLCache(max_size=2, ttl_seconds=10.0, clock=clock,
                         registry=registry)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts "a"
        assert registry.counters["repro.serving.cache.evictions"] == 1
        clock.advance(11.0)
        assert cache.get("b") is None  # expired
        assert registry.counters["repro.serving.cache.expirations"] == 1
        cache.put("d", 4)
        removed = cache.invalidate(lambda key: key == "d")
        assert removed == 1
        assert registry.counters["repro.serving.cache.invalidated_entries"] == 1
        cache.put("e", 5)
        cache.clear()
        assert registry.counters["repro.serving.cache.invalidated_entries"] >= 2

    def test_no_registry_means_no_metrics(self):
        cache = TTLCache(max_size=1)
        cache.put("a", 1)
        cache.put("b", 2)  # evicts without a registry — must not raise
        assert cache.stats()["evictions"] == 1

    def test_custom_metric_prefix(self):
        registry = MetricsRegistry()
        cache = TTLCache(max_size=1, registry=registry, metric_prefix="my.cache")
        cache.put("a", 1)
        cache.put("b", 2)
        assert registry.counters["my.cache.evictions"] == 1


class TestMicroBatcher:
    """Each test holds the handler on an Event, so the items submitted
    meanwhile form a backlog that the eager worker then coalesces."""

    def test_coalesces_concurrent_submissions(self):
        registry = MetricsRegistry()
        seen_batches = []
        started = threading.Event()

        def handler(items):
            started.wait(timeout=5)
            seen_batches.append(list(items))
            return [item * 2 for item in items]

        with MicroBatcher(handler, max_batch=8, registry=registry) as batcher:
            futures = [batcher.submit(i) for i in range(6)]
            started.set()
            results = [future.result(timeout=5) for future in futures]
        assert results == [0, 2, 4, 6, 8, 10]
        # The first dispatch may race ahead with a partial batch, but the
        # items must arrive in order and some coalescing must happen.
        assert [i for batch in seen_batches for i in batch] == list(range(6))
        assert max(len(batch) for batch in seen_batches) > 1
        assert registry.histograms["repro.serving.batch_size"].count == len(seen_batches)

    def test_respects_max_batch(self):
        release = threading.Event()
        sizes = []

        def handler(items):
            release.wait(timeout=5)
            sizes.append(len(items))
            return items

        batcher = MicroBatcher(handler, max_batch=3, registry=MetricsRegistry())
        futures = [batcher.submit(i) for i in range(7)]
        release.set()
        for future in futures:
            future.result(timeout=5)
        batcher.close()
        assert max(sizes) <= 3
        # At least four items queued behind the held first batch.
        assert 3 in sizes

    def test_handler_error_fans_to_all_futures(self):
        release = threading.Event()
        sizes = []

        def handler(items):
            release.wait(timeout=5)
            sizes.append(len(items))
            raise RuntimeError("boom")

        batcher = MicroBatcher(handler, max_batch=4, registry=MetricsRegistry())
        futures = [batcher.submit(i) for i in range(3)]
        release.set()
        for future in futures:
            with pytest.raises(RuntimeError, match="boom"):
                future.result(timeout=5)
        batcher.close()
        assert max(sizes) > 1

    def test_result_count_mismatch_is_an_error(self):
        release = threading.Event()

        def handler(items):
            release.wait(timeout=5)
            return items[:-1] if len(items) > 1 else []

        batcher = MicroBatcher(handler, max_batch=4, registry=MetricsRegistry())
        future = batcher.submit(1)
        backlog = [batcher.submit(value) for value in (2, 3)]
        release.set()
        with pytest.raises(RuntimeError, match="results"):
            future.result(timeout=5)
        for pending in backlog:
            with pytest.raises(RuntimeError, match="results"):
                pending.result(timeout=5)
        batcher.close()

    def test_close_drains_then_rejects(self):
        release = threading.Event()

        def handler(items):
            release.wait(timeout=5)
            return items

        batcher = MicroBatcher(handler, max_batch=4, registry=MetricsRegistry())
        future = batcher.submit("x")
        backlog = [batcher.submit(value) for value in ("y", "z")]
        releaser = threading.Timer(0.05, release.set)
        releaser.start()
        batcher.close()
        releaser.join()
        assert future.result(timeout=5) == "x"
        assert [pending.result(timeout=5) for pending in backlog] == ["y", "z"]
        with pytest.raises(RuntimeError):
            batcher.submit("y")
        batcher.close()  # idempotent

    def test_rejects_bad_config(self):
        with pytest.raises(ConfigError):
            MicroBatcher(lambda items: items, max_batch=0)
        with pytest.raises(ConfigError):
            MicroBatcher(lambda items: items, max_batch=-1)
