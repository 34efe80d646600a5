"""Property tests: ``predict_batch`` ≡ N sequential ``predict`` calls.

The batched transport plane's core contract: for ANY item list — any
size, any ordering, duplicates, any cache warm/cold mix, observations
invalidating entries between calls — ``predict_batch(items)`` must
return exactly what issuing the items as sequential ``predict`` calls
would have returned, bit for bit, including the ``cached`` flags.  Two
services on private copies of the same city replay a random interleaved
script, one through each path.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataError
from repro.obs import MetricsRegistry
from repro.serving import PredictionService, ServingConfig

pytestmark = pytest.mark.serving


def _make_service(checkpoint, dataset, scale, max_batch=8):
    return PredictionService.from_checkpoint(
        str(checkpoint),
        dataset,
        scale.features,
        serving_config=ServingConfig(max_batch=max_batch, cache_size=256),
        registry=MetricsRegistry(),
    )


def _query_pool(dataset, scale):
    L = scale.features.window_minutes
    hi = 1440 - scale.features.gap_minutes
    return st.tuples(
        st.integers(0, dataset.n_areas - 1),
        st.integers(0, dataset.n_days - 1),
        st.integers(L, hi),
    )


def _observation(dataset):
    """A random valid observation (the three kinds, in-domain values)."""
    return st.one_of(
        st.fixed_dictionaries({
            "kind": st.just("weather"),
            "day": st.integers(0, dataset.n_days - 1),
            "minute": st.integers(0, 1439),
            "values": st.fixed_dictionaries({
                "weather_type": st.integers(0, 3),
                "temperature": st.floats(-5, 35, width=16),
            }),
        }),
        st.fixed_dictionaries({
            "kind": st.just("traffic"),
            "day": st.integers(0, dataset.n_days - 1),
            "minute": st.integers(0, 1439),
            "area": st.integers(0, dataset.n_areas - 1),
            "values": st.fixed_dictionaries({
                "level_counts": st.lists(
                    st.integers(0, 20), min_size=4, max_size=4
                ),
            }),
        }),
        st.fixed_dictionaries({
            "kind": st.just("orders"),
            "day": st.integers(0, dataset.n_days - 1),
            "minute": st.integers(0, 1439),
            "area": st.integers(0, dataset.n_areas - 1),
            "values": st.fixed_dictionaries({
                "valid": st.integers(0, 40),
                "invalid": st.integers(0, 10),
            }),
        }),
    )


def _apply_observation(service, body):
    return service.observe(
        body["kind"], body["day"], body["minute"],
        area_id=body.get("area"), **body["values"],
    )


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_predict_batch_bitwise_equals_sequential_predict(
    data, checkpoint, dataset, scale
):
    pool = data.draw(
        st.lists(_query_pool(dataset, scale), min_size=1, max_size=6,
                 unique=True),
        label="pool",
    )
    max_batch = data.draw(st.integers(1, 8), label="max_batch")
    script = data.draw(
        st.lists(
            st.one_of(
                # A batch call: items sampled from the pool, duplicates
                # welcome, any size (crossing max_batch both ways).
                st.lists(st.sampled_from(pool), min_size=1, max_size=12),
                # An observation mutating state + invalidating entries
                # between batches.
                _observation(dataset),
            ),
            min_size=1, max_size=6,
        ),
        label="script",
    )

    sequential = _make_service(
        checkpoint, copy.deepcopy(dataset), scale, max_batch=max_batch
    )
    batched = _make_service(
        checkpoint, copy.deepcopy(dataset), scale, max_batch=max_batch
    )
    try:
        for step in script:
            if isinstance(step, dict):
                left = _apply_observation(sequential, step)
                right = _apply_observation(batched, step)
                # Same state, same cache contents → same exact-set counts.
                assert left == right, step
                continue
            expected = [sequential.predict(*item) for item in step]
            got = batched.predict_batch(step)
            assert len(got) == len(expected)
            for item, want, have in zip(step, expected, got):
                assert have.gap == want.gap, (item, have.gap, want.gap)
                assert have.version == want.version
                assert have.cached == want.cached, item
    finally:
        sequential.close()
        batched.close()


def test_predict_batch_duplicates_mirror_sequential_cache_hits(
    checkpoint, dataset, scale
):
    """Within one batch, the duplicate of an earlier miss reports
    ``cached=True`` with the identical float — exactly as the second of
    two sequential calls would."""
    service = _make_service(checkpoint, copy.deepcopy(dataset), scale)
    try:
        L = scale.features.window_minutes
        item = (0, 1, L + 30)
        results = service.predict_batch([item, item, item])
        assert results[0].cached is False
        assert results[1].cached is True
        assert results[2].cached is True
        assert results[0].gap == results[1].gap == results[2].gap
        # The whole batch counted one miss and two hits.
        stats = service.cache.stats()
        assert stats["misses"] == 1 and stats["hits"] == 2
        # A later batch over the same key is a pure cache hit.
        again = service.predict_batch([item])
        assert again[0].cached is True and again[0].gap == results[0].gap
    finally:
        service.close()


def test_predict_batch_coalesces_with_concurrent_single_predicts(
    checkpoint, dataset, scale
):
    """A batch group and plain single submissions share the batcher
    thread and return consistent answers."""
    import threading

    service = _make_service(checkpoint, copy.deepcopy(dataset), scale,
                            max_batch=16)
    try:
        L = scale.features.window_minutes
        batch_items = [(0, 1, L + t) for t in range(0, 50, 10)]
        single_item = (1, 2, L + 25)
        out = {}

        def do_batch():
            out["batch"] = service.predict_batch(batch_items)

        def do_single():
            out["single"] = service.predict(*single_item)

        threads = [threading.Thread(target=do_batch),
                   threading.Thread(target=do_single)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert len(out["batch"]) == len(batch_items)
        # Replays agree bitwise with what was computed concurrently.
        for item, result in zip(batch_items, out["batch"]):
            assert service.predict(*item).gap == result.gap
        assert service.predict(*single_item).gap == out["single"].gap
    finally:
        service.close()


def test_predict_batch_validates_every_item_up_front(
    checkpoint, dataset, scale
):
    """One invalid item fails the whole batch before any work happens —
    no partial cache fills, no partial compute."""
    service = _make_service(checkpoint, copy.deepcopy(dataset), scale)
    try:
        L = scale.features.window_minutes
        good = (0, 1, L + 40)
        before = service.cache.stats()
        with pytest.raises(DataError):
            service.predict_batch([good, (dataset.n_areas + 7, 0, L + 5)])
        after = service.cache.stats()
        assert after == before  # not even the valid item was looked up
        # The valid item is still a cold miss afterwards.
        assert service.predict_batch([good])[0].cached is False
    finally:
        service.close()


def test_predict_batch_empty_and_closed(checkpoint, dataset, scale):
    service = _make_service(checkpoint, copy.deepcopy(dataset), scale)
    try:
        assert service.predict_batch([]) == []
    finally:
        service.close()
    with pytest.raises(RuntimeError):
        service.predict_batch([(0, 1, scale.features.window_minutes + 1)])
