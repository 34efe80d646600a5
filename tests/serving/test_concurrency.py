"""Concurrency satellite: hammering threads + live checkpoint hot-swaps.

Eight request threads drive the service while a background thread swaps
between two checkpoints.  Every response must be attributable to exactly
one checkpoint version — its gap bitwise-equal to that version's
single-query reference — with no torn reads, and the cache stats must
add up exactly afterwards.
"""

import threading

import pytest

from repro.core import GapPredictor, GapQuery, Trainer
from repro.serving import PredictionService, ServingConfig

pytestmark = pytest.mark.serving

N_THREADS = 8
QUERIES_PER_THREAD = 40
N_SWAPS = 6


def _reference_gaps(checkpoint_path, dataset, scale, queries):
    trainer = Trainer.from_checkpoint(checkpoint_path)
    scalers = {
        name: tuple(pair)
        for name, pair in trainer.serving_meta["feature_scalers"].items()
    }
    predictor = GapPredictor(trainer, dataset, scale.features, scalers)
    gaps = {}
    for query in queries:
        example_set = predictor._featurize([GapQuery(*query)])
        gaps[query] = float(predictor._trainer.predict(example_set)[0])
    return gaps


def test_hot_swap_under_load(checkpoint, other_checkpoint, dataset, scale):
    pool = [
        (area, day, slot)
        for area in range(dataset.n_areas)
        for day in (2, 5)
        for slot in (30, 95, 240, 611)
    ]
    reference_by_path = {
        checkpoint: _reference_gaps(checkpoint, dataset, scale, pool),
        other_checkpoint: _reference_gaps(other_checkpoint, dataset, scale, pool),
    }

    service = PredictionService.from_checkpoint(
        checkpoint,
        dataset,
        scale.features,
        serving_config=ServingConfig(max_batch=8, cache_size=256),
    )
    # Every version tag the service can ever hand out, mapped to the
    # checkpoint it came from (v0 is the constructor's, v1..vN the swaps).
    version_path = {service.version: checkpoint}
    version_lock = threading.Lock()

    results = []
    results_lock = threading.Lock()
    errors = []
    stop_swapping = threading.Event()

    def hammer(thread_id):
        try:
            local = []
            for i in range(QUERIES_PER_THREAD):
                query = pool[(thread_id * 7 + i) % len(pool)]
                local.append((query, service.predict(*query)))
            with results_lock:
                results.extend(local)
        except Exception as error:  # pragma: no cover — surfaced below
            errors.append(error)

    def swapper():
        try:
            for swap in range(N_SWAPS):
                if stop_swapping.is_set():
                    return
                path = other_checkpoint if swap % 2 == 0 else checkpoint
                version = service.load_checkpoint(path)
                with version_lock:
                    version_path[version] = path
        except Exception as error:  # pragma: no cover
            errors.append(error)

    threads = [
        threading.Thread(target=hammer, args=(i,)) for i in range(N_THREADS)
    ]
    swap_thread = threading.Thread(target=swapper)
    for thread in threads:
        thread.start()
    swap_thread.start()
    for thread in threads:
        thread.join()
    stop_swapping.set()
    swap_thread.join()
    assert not errors, errors

    assert len(results) == N_THREADS * QUERIES_PER_THREAD
    for query, result in results:
        assert result.version in version_path, result.version
        expected = reference_by_path[version_path[result.version]][query]
        assert result.gap == expected, (
            f"{query} served {result.gap!r} under {result.version} but that "
            f"checkpoint's single-query reference is {expected!r}"
        )

    # Cache accounting must be exact: one lookup per request, every miss
    # either filled or superseded, no double counting under contention.
    stats = service.stats()["cache"]
    assert stats["hits"] + stats["misses"] == len(results)
    assert stats["size"] <= 256
    service.close()
