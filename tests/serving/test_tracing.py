"""Span-tree tests for the serving path, across the batcher thread.

Every traced ``predict`` must resolve into one complete tree — the
request span owning its cache lookup and queue wait, the micro-batch
span owning featurize/forward/cache-fill — with the parent links intact
across the MicroBatcher's worker-thread boundary.  And tracing must be
purely observational: enabling it cannot move a single bit of any served
gap (the PR-4 parity contract).
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, Tracer
from repro.serving import MicroBatcher, PredictionService, ServingConfig

pytestmark = pytest.mark.serving


def _service(checkpoint, dataset, scale, trace, **config):
    return PredictionService.from_checkpoint(
        checkpoint,
        dataset,
        scale.features,
        serving_config=ServingConfig(
            max_batch=config.pop("max_batch", 4), **config
        ),
        trace=trace,
    )


class TestSpanTree:
    def test_uncached_predict_resolves_to_complete_tree(
        self, checkpoint, dataset, scale
    ):
        tracer = Tracer(enabled=True)
        service = _service(checkpoint, dataset, scale, tracer)
        try:
            service.predict(0, 2, 60)
        finally:
            service.close()
        spans = {span.name: span for span in tracer.spans()}
        expected = {
            "serving.predict", "cache.lookup", "batcher.queue_wait",
            "batcher.batch", "batch.featurize", "batch.forward", "cache.fill",
        }
        assert expected <= set(spans)

        root = spans["serving.predict"]
        assert root.parent_id is None
        assert root.attrs["cached"] is False
        # Everything belongs to the one request's trace...
        for name in expected:
            assert spans[name].trace_id == root.trace_id, name
        # ...with the documented parentage: request-side children under
        # the request span, batch-side children under the batch span.
        assert spans["cache.lookup"].parent_id == root.span_id
        assert spans["batcher.queue_wait"].parent_id == root.span_id
        assert spans["batcher.batch"].parent_id == root.span_id
        batch = spans["batcher.batch"]
        assert batch.attrs["batch_size"] == 1
        for name in ("batch.featurize", "batch.forward", "cache.fill"):
            assert spans[name].parent_id == batch.span_id, name
        # The batch side really did run on a different thread.
        assert batch.thread != root.thread

    def test_cached_predict_stays_on_the_request_thread(
        self, checkpoint, dataset, scale
    ):
        tracer = Tracer(enabled=True)
        service = _service(checkpoint, dataset, scale, tracer)
        try:
            service.predict(0, 2, 60)
            tracer.clear()
            result = service.predict(0, 2, 60)
        finally:
            service.close()
        assert result.cached is True
        names = [span.name for span in tracer.spans()]
        assert names == ["cache.lookup", "serving.predict"]
        root = next(s for s in tracer.spans() if s.name == "serving.predict")
        assert root.attrs["cached"] is True

    def test_each_request_gets_its_own_queue_wait(
        self, checkpoint, dataset, scale
    ):
        tracer = Tracer(enabled=True)
        service = _service(checkpoint, dataset, scale, tracer)
        queries = [(0, 2, 60), (1, 2, 60), (2, 2, 60)]
        threads = [
            threading.Thread(target=service.predict_batch, args=([query],))
            for query in queries
        ]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            service.close()
        spans = tracer.spans()
        waits = [s for s in spans if s.name == "batcher.queue_wait"]
        assert len(waits) == 3
        roots = {
            s.span_id: s for s in spans if s.name == "serving.predict_batch"
        }
        assert len(roots) == 3
        # Each request's wait hangs off its own root, in its own trace.
        assert sorted(w.parent_id for w in waits) == sorted(roots)
        assert all(w.trace_id == roots[w.parent_id].trace_id for w in waits)
        batches = [s for s in spans if s.name == "batcher.batch"]
        assert sum(s.attrs["batch_size"] for s in batches) == 3

    def test_disabled_tracer_records_nothing(self, checkpoint, dataset, scale):
        service = _service(checkpoint, dataset, scale, trace=False)
        try:
            service.predict(0, 2, 60)
            service.predict(0, 2, 60)
        finally:
            service.close()
        assert service.tracer.enabled is False
        assert len(service.tracer) == 0


class TestBatcherMetrics:
    def test_queue_depth_gauge_is_sampled(self):
        registry = MetricsRegistry()
        with MicroBatcher(lambda items: items, max_batch=4,
                          registry=registry) as batcher:
            batcher.submit("x").result(timeout=5)
        assert "repro.serving.batcher.queue_depth" in registry.gauges

    def test_untraced_submit_costs_no_span_state(self):
        tracer = Tracer(enabled=False)
        with MicroBatcher(lambda items: items, max_batch=4,
                          registry=MetricsRegistry(), tracer=tracer) as batcher:
            assert batcher.submit("x").result(timeout=5) == "x"
        assert len(tracer) == 0


class TestServiceMetrics:
    def test_cache_hit_miss_counters(self, checkpoint, dataset, scale):
        service = _service(checkpoint, dataset, scale, trace=False)
        try:
            registry = service.registry
            before_miss = registry.counters.get("repro.serving.cache.misses", 0)
            before_hit = registry.counters.get("repro.serving.cache.hits", 0)
            service.predict(0, 2, 70)
            service.predict(0, 2, 70)
        finally:
            service.close()
        assert registry.counters["repro.serving.cache.misses"] == before_miss + 1
        assert registry.counters["repro.serving.cache.hits"] == before_hit + 1


class TestBitwiseParity:
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_tracing_never_moves_a_bit(
        self, data, checkpoint, dataset, scale
    ):
        """Identical queries through a traced and an untraced service must
        produce bitwise-equal gaps — tracing observes, never perturbs."""
        L = scale.features.window_minutes
        hi = 1440 - scale.features.gap_minutes
        queries = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, dataset.n_areas - 1),
                    st.integers(0, dataset.n_days - 1),
                    st.integers(L, hi),
                ),
                min_size=1,
                max_size=8,
            ),
            label="queries",
        )
        tracer = Tracer(enabled=True)
        traced = _service(checkpoint, dataset, scale, tracer)
        plain = _service(checkpoint, dataset, scale, trace=False)
        try:
            traced_gaps = [traced.predict(*q).gap for q in queries]
            plain_gaps = [plain.predict(*q).gap for q in queries]
        finally:
            traced.close()
            plain.close()
        assert traced_gaps == plain_gaps
        assert len(tracer) > 0  # the traced run really recorded spans
