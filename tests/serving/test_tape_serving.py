"""Serving with the execution tape keeps the bitwise determinism contract.

The service's historical guarantee: a gap served alone equals the same gap
served inside any micro-batch, bit for bit (``batch_invariant()``).  The
taped path replaces module dispatch entirely, so these tests pin that a
tape-enabled service returns exactly the bits a tape-disabled one does —
across batch sizes, threads, and the small-block tapes short batches use.
"""

import threading

import numpy as np

from repro.serving import PredictionService, ServingConfig

from .per_row_featurize import signals_per_row


def _make_service(checkpoint, dataset, scale, *, use_tape, max_batch=8):
    return PredictionService.from_checkpoint(
        checkpoint,
        dataset,
        scale.features,
        serving_config=ServingConfig(
            max_batch=max_batch,
            cache_size=1,  # effectively uncached: every query recomputes
            use_tape=use_tape,
        ),
    )


def _queries(dataset, scale, n=40):
    L = scale.features.window_minutes
    hi = 1440 - scale.features.gap_minutes
    out = []
    for i in range(n):
        out.append(
            (
                i % dataset.n_areas,
                (3 * i) % dataset.n_days,
                L + (37 * i) % (hi - L),
            )
        )
    return out


def test_taped_service_matches_module_service(checkpoint, dataset, scale):
    queries = _queries(dataset, scale)
    taped = _make_service(checkpoint, dataset, scale, use_tape=True)
    plain = _make_service(checkpoint, dataset, scale, use_tape=False)
    try:
        assert taped._engine.trainer.use_tape is True
        assert plain._engine.trainer.use_tape is False
        for query in queries:
            got = taped.predict(*query).gap
            want = plain.predict(*query).gap
            assert got == want, query
    finally:
        taped.close()
        plain.close()


def test_taped_service_batch_invariant(checkpoint, dataset, scale):
    """Single-query bits equal concurrently-batched bits with the tape on."""
    queries = _queries(dataset, scale)
    service = _make_service(checkpoint, dataset, scale, use_tape=True)
    try:
        singles = {q: service.predict(*q).gap for q in queries}

        results = {}
        errors = []

        def drive(thread_id, n_threads=4):
            try:
                for index, query in enumerate(queries):
                    if index % n_threads == thread_id:
                        results[query] = service.predict(*query).gap
            except Exception as error:  # pragma: no cover — surfaced below
                errors.append(error)

        threads = [threading.Thread(target=drive, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors, errors
        for query in queries:
            assert results[query] == singles[query], query
    finally:
        service.close()


def test_vectorized_featurize_matches_per_row(checkpoint, dataset, scale):
    """The shared history tables and the row-at-a-time oracle agree
    bitwise on every signal array; the served ExampleSet carries exactly
    the oracle's arrays for the fields the model reads (zeros elsewhere)
    and predicts the same bits as the oracle's arrays do."""
    import dataclasses

    from repro.core import GapQuery
    from repro.features import AreaHistory, signal_arrays

    config = scale.features
    queries = _queries(dataset, scale, n=12)
    oracle = signals_per_row(dataset, config, queries)

    area_ids, day_ids, time_ids = (np.array(column) for column in zip(*queries))
    shared = signal_arrays(len(queries), config.window_minutes)
    for area in np.unique(area_ids):
        rows = np.flatnonzero(area_ids == area)
        AreaHistory(dataset, int(area), dataset.n_days, config.window_minutes).fill(
            shared, rows, day_ids[rows], time_ids[rows], config.gap_minutes
        )
    assert shared.keys() == oracle.keys()
    for name in oracle:
        assert np.array_equal(shared[name], oracle[name]), name

    service = _make_service(checkpoint, dataset, scale, use_tape=False)
    try:
        predictor = service._engine.predictor
        trainer = service._engine.trainer
        served = predictor._featurize([GapQuery(*q) for q in queries])
        read = set(trainer._input_fields())
        for name in oracle:
            want = oracle[name] if name in read else np.zeros_like(oracle[name])
            assert np.array_equal(getattr(served, name), want), name
        slow = dataclasses.replace(served, **oracle)
        assert np.array_equal(trainer.predict(served), trainer.predict(slow))
    finally:
        service.close()
