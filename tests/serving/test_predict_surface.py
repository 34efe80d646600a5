"""The observable surface of ``PredictionService.predict``, pinned exactly.

One fixed sequence on a fresh service — a miss, a hit, a batch holding a
duplicate, and an orders ``observe`` that invalidates an entry followed
by the same query again — must leave exactly these counters, cache
statistics and span trees behind.  Dashboards, ``scripts/smoke.sh`` and
the benchmark's per-layer metrics read them, so however ``predict`` and
``predict_batch`` share their code, none of this may move.  A single
query through ``predict`` must also answer exactly what
``predict_batch([query])[0]`` answers, gap, version, ``cached`` flag and
intervals included.
"""

import copy

import pytest

from repro.obs import MetricsRegistry, Tracer
from repro.serving import PredictionService, ServingConfig

pytestmark = pytest.mark.serving

Q1 = (0, 2, 60)
Q2 = (1, 2, 60)
CACHE_SIZE = 64


def _service(checkpoint, dataset, scale, tracer):
    return PredictionService.from_checkpoint(
        str(checkpoint),
        copy.deepcopy(dataset),
        scale.features,
        serving_config=ServingConfig(max_batch=8, cache_size=CACHE_SIZE),
        registry=MetricsRegistry(),
        trace=tracer,
    )


def _tree(tracer):
    """Each recorded span as ``(name, parent name, attrs)``, sorted."""
    spans = tracer.spans()
    names = {span.span_id: span.name for span in spans}
    tracer.clear()
    return sorted(
        (span.name, names.get(span.parent_id), sorted(span.attrs.items()))
        for span in spans
    )


def _miss_tree(root, root_attrs, lookup_attrs, rows):
    return sorted([
        (root, None, sorted(root_attrs.items())),
        ("cache.lookup", root, sorted(lookup_attrs.items())),
        ("batcher.queue_wait", root, []),
        ("batcher.batch", root, [("batch_size", 1)]),
        ("batch.featurize", "batcher.batch", [("rows", rows)]),
        ("batch.forward", "batcher.batch", [("rows", rows)]),
        ("cache.fill", "batcher.batch", [("entries", rows)]),
    ])


def _predict_attrs(query, cached):
    area, day, timeslot = query
    return {"area": area, "day": day, "timeslot": timeslot, "cached": cached}


def test_predict_sequence_leaves_exact_metrics_cache_stats_and_spans(
    checkpoint, dataset, scale
):
    tracer = Tracer(enabled=True)
    service = _service(checkpoint, dataset, scale, tracer)
    try:
        miss = service.predict(*Q1)
        assert miss.cached is False
        assert _tree(tracer) == _miss_tree(
            "serving.predict", _predict_attrs(Q1, False), {}, rows=1
        )

        hit = service.predict(*Q1)
        assert hit.cached is True and hit.gap == miss.gap
        assert _tree(tracer) == sorted([
            ("serving.predict", None, sorted(_predict_attrs(Q1, True).items())),
            ("cache.lookup", "serving.predict", []),
        ])

        batch = service.predict_batch([Q2, Q1, Q2])
        assert [result.cached for result in batch] == [False, True, True]
        assert batch[1].gap == miss.gap and batch[2].gap == batch[0].gap
        assert _tree(tracer) == _miss_tree(
            "serving.predict_batch", {"n": 3}, {"n": 3}, rows=1
        )

        reply = service.observe("orders", day=Q1[1], minute=Q1[2] - 1,
                                area_id=Q1[0], valid=3)
        assert reply == {"invalidated": 1, "profiles_dropped": 1}
        assert _tree(tracer) == [("serving.observe", None, [("kind", "orders")])]

        again = service.predict(*Q1)
        assert again.cached is False
        assert _tree(tracer) == _miss_tree(
            "serving.predict", _predict_attrs(Q1, False), {}, rows=1
        )

        counters = service.registry.counters
        assert counters["repro.serving.requests"] == 6
        assert counters["repro.serving.cache.hits"] == 3
        assert counters["repro.serving.cache.misses"] == 3
        assert counters["repro.serving.batch_requests"] == 1
        assert counters["repro.serving.predictions"] == 3
        histograms = service.registry.histograms
        assert histograms["repro.serving.request_seconds"].count == 3
        assert service.cache.stats() == {
            "size": 2,
            "max_size": CACHE_SIZE,
            "hits": 3,
            "misses": 3,
            "evictions": 0,
            "expirations": 0,
            "invalidations": 1,
        }
    finally:
        service.close()


@pytest.mark.parametrize("head", ["point", "quantile"])
def test_predict_equals_a_batch_of_one(
    head, checkpoint, q_checkpoint, dataset, scale
):
    path = checkpoint if head == "point" else q_checkpoint
    single = _service(path, dataset, scale, tracer=False)
    batched = _service(path, dataset, scale, tracer=False)
    try:
        for query in (Q1, Q2, Q1):
            expected = batched.predict_batch([query])[0]
            assert single.predict(*query) == expected
        assert (expected.intervals is None) == (head == "point")
        assert expected.cached is True
    finally:
        single.close()
        batched.close()
