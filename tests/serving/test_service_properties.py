"""Property test: batched serving is bitwise-identical to single queries.

For random query mixes, thread interleavings and batching/TTL settings,
every gap the :class:`PredictionService` returns must equal — bit for bit
— what a one-query-at-a-time ``Trainer.predict`` produces from the same
checkpoint.  This is the serving layer's core contract: micro-batching,
deduplication, caching and threading are invisible in the numbers.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GapPredictor, GapQuery, Trainer
from repro.features import FeatureBuilder
from repro.obs import MetricsRegistry
from repro.serving import PredictionService, ServingConfig

pytestmark = pytest.mark.serving


@pytest.fixture(scope="module")
def reference(checkpoint, dataset, scale):
    """Memoized one-at-a-time gaps from an independent trainer instance."""
    trainer = Trainer.from_checkpoint(checkpoint)
    scalers = {
        name: tuple(pair)
        for name, pair in trainer.serving_meta["feature_scalers"].items()
    }
    predictor = GapPredictor(trainer, dataset, scale.features, scalers)
    memo = {}

    def lookup(query):
        if query not in memo:
            example_set = predictor._featurize([GapQuery(*query)])
            memo[query] = float(predictor._trainer.predict(example_set)[0])
        return memo[query]

    return lookup


def _valid_queries(dataset, scale):
    L = scale.features.window_minutes
    hi = 1440 - scale.features.gap_minutes
    return st.tuples(
        st.integers(0, dataset.n_areas - 1),
        st.integers(0, dataset.n_days - 1),
        st.integers(L, hi),
    )


@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_batched_responses_match_single_queries(
    data, checkpoint, dataset, scale, reference
):
    queries = data.draw(
        st.lists(_valid_queries(dataset, scale), min_size=1, max_size=24),
        label="queries",
    )
    max_batch = data.draw(st.integers(1, 8), label="max_batch")
    ttl = data.draw(st.sampled_from([None, 60.0]), label="ttl")
    n_threads = data.draw(st.integers(1, 4), label="n_threads")

    service = PredictionService.from_checkpoint(
        checkpoint,
        dataset,
        scale.features,
        serving_config=ServingConfig(
            max_batch=max_batch,
            cache_ttl_seconds=ttl,
            cache_size=64,
        ),
    )
    try:
        results = {}
        errors = []

        def drive(thread_id):
            try:
                for index, query in enumerate(queries):
                    if index % n_threads == thread_id:
                        results[index] = service.predict(*query)
            except Exception as error:  # pragma: no cover — surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=drive, args=(i,)) for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors

        for index, query in enumerate(queries):
            expected = reference(query)
            got = results[index].gap
            assert got == expected, (
                f"query {query} served {got!r} but single-query "
                f"reference is {expected!r} (batch={max_batch}, "
                f"threads={n_threads})"
            )
    finally:
        service.close()


def test_served_gaps_equal_trainer_predict_on_builder_test_rows(
    checkpoint, dataset, scale
):
    """The online featurizer and the bulk builder standardise the
    environment identically, so serving the whole test split answers
    bit for bit what ``Trainer.predict`` says on ``build_test`` rows."""
    trainer = Trainer.from_checkpoint(checkpoint)
    test_set = FeatureBuilder(dataset, scale.features).build_test(
        trainer.serving_meta["feature_scalers"]
    )
    queries = list(zip(
        test_set.area_ids.tolist(),
        test_set.day_ids.tolist(),
        test_set.time_ids.tolist(),
    ))
    with PredictionService.from_checkpoint(
        checkpoint, dataset, scale.features, registry=MetricsRegistry()
    ) as service:
        served = np.array([r.gap for r in service.predict_batch(queries)])
    assert np.array_equal(served, trainer.predict(test_set))
