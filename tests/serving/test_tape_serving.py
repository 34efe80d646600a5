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
    """The grouped featurizer and the row-at-a-time oracle agree bitwise,
    on every signal array in builder-parity "all" mode and on the
    predictions in both field modes ("all" and serving's "model")."""
    from repro.core import GapQuery
    from repro.features.builder import SIGNALS

    queries = [GapQuery(*q) for q in _queries(dataset, scale, n=12)]
    time_ids = np.array([q.timeslot for q in queries], dtype=np.int64)
    service = _make_service(checkpoint, dataset, scale, use_tape=False)
    try:
        predictor = service._engine.predictor
        trainer = service._engine.trainer
        predictor.feature_fields = "all"
        grouped = predictor._signals_grouped(queries, time_ids)
        oracle = signals_per_row(predictor, queries)
        for fast, slow in zip(grouped, oracle):
            for name in SIGNALS:
                assert np.array_equal(fast[name], slow[name]), name
        # The oracle's arrays through the rest of _featurize.
        predictor._signals_grouped = lambda q, t: signals_per_row(predictor, q)
        slow_pred = trainer.predict(predictor._featurize(queries))
        del predictor._signals_grouped
        for fields in ("model", "all"):
            predictor.feature_fields = fields
            fast_pred = trainer.predict(predictor._featurize(queries))
            assert np.array_equal(fast_pred, slow_pred), fields
    finally:
        service.close()
