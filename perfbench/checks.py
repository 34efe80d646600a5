"""Correctness checks the workloads apply to the program's outputs.

Each check compares an output against an independent computation or a
required property and raises :class:`CheckFailed` on the first
violation.  They take plain arrays and lists, so ``test_checks.py`` can
feed them deliberately corrupted outputs.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

#: Served gaps may differ from ``Trainer.predict`` on builder-made rows by
#: float rounding only: the serving featurizer standardises environment
#: features in float64, the builder in float32 (up to ~2e-7 at bench
#: scale).  Anything above this is a real disagreement.
SERVED_VS_BATCH_ATOL = 1e-5


class CheckFailed(AssertionError):
    """An output of the program failed a correctness check."""


def gap_labels(
    invalid_counts: np.ndarray,
    days: Sequence[int],
    slots: Sequence[int],
    horizon: int,
) -> np.ndarray:
    """Paper Definition 2 from raw counts: invalid orders in
    ``[t, t + horizon)`` per (area, day, slot), flattened in the builder's
    item order (area-major, then day, then slot)."""
    days = np.asarray(days)
    slots = np.asarray(slots)
    window = np.arange(horizon)
    counts = invalid_counts[:, days][:, :, slots[:, None] + window[None, :]]
    return counts.sum(axis=-1, dtype=np.int64).reshape(-1)


def historical_average_mae(
    invalid_counts: np.ndarray,
    start_weekday: int,
    train_days: Sequence[int],
    test_days: Sequence[int],
    slots: Sequence[int],
    horizon: int,
) -> float:
    """MAE of predicting each test gap by the mean gap of the same
    (area, weekday, slot) over the training days."""
    train_days = np.asarray(train_days)
    test_days = np.asarray(test_days)
    n_areas = invalid_counts.shape[0]
    train = gap_labels(invalid_counts, train_days, slots, horizon).reshape(
        n_areas, len(train_days), len(slots)
    )
    test = gap_labels(invalid_counts, test_days, slots, horizon).reshape(
        n_areas, len(test_days), len(slots)
    )
    train_weekday = (train_days + start_weekday) % 7
    errors = []
    for column, day in enumerate(test_days):
        same = train_weekday == (day + start_weekday) % 7
        if not same.any():
            raise CheckFailed(f"no training day shares the weekday of day {day}")
        estimate = train[:, same].mean(axis=1)
        errors.append(np.abs(estimate - test[:, column]))
    return float(np.mean(errors))


def check_labels(recomputed: np.ndarray, labels: np.ndarray) -> None:
    """The example set's gap labels equal the ones recomputed from raw counts."""
    recomputed = np.asarray(recomputed, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if recomputed.shape != labels.shape:
        raise CheckFailed(
            f"{labels.shape[0]} labels, recomputed {recomputed.shape[0]}"
        )
    wrong = np.flatnonzero(recomputed != labels)
    if wrong.size:
        i = int(wrong[0])
        raise CheckFailed(
            f"{wrong.size} gap labels differ from the raw counts; first at row "
            f"{i}: label {labels[i]} vs recomputed {recomputed[i]}"
        )


def check_mae_beats_baseline(mae: float, baseline: float) -> None:
    """A trained model must beat the historical-average baseline."""
    if not np.isfinite(mae) or not mae < baseline:
        raise CheckFailed(
            f"test MAE {mae:.4f} is not below the historical-average "
            f"baseline {baseline:.4f}"
        )


def check_batch_answers(
    sent: Sequence[Tuple[int, int, int]], results: Sequence, expect_cold: bool
) -> None:
    """Every sent item got exactly one finite answer.

    ``results`` are objects with ``gap`` and ``cached`` attributes
    (:class:`repro.serving.PredictionResult`).  With ``expect_cold`` every
    item is a query the service has never seen, so none may be cached.
    """
    if len(results) != len(sent):
        raise CheckFailed(f"sent {len(sent)} items, got {len(results)} answers")
    for item, result in zip(sent, results):
        if not np.isfinite(result.gap):
            raise CheckFailed(f"non-finite gap {result.gap} for {item}")
        if expect_cold and result.cached:
            raise CheckFailed(f"never-asked query {item} answered from cache")


def check_http_batch(status: int, payload: dict, n_items: int) -> None:
    """A ``/predict_batch`` reply: status 200 and one finite gap per item."""
    if status != 200:
        raise CheckFailed(f"/predict_batch answered {status}: {payload}")
    results = payload.get("results")
    if not isinstance(results, list) or len(results) != n_items:
        got = len(results) if isinstance(results, list) else results
        raise CheckFailed(f"sent {n_items} items, got {got} results")
    if payload.get("count") != n_items:
        raise CheckFailed(f"count {payload.get('count')} for {n_items} items")
    for result in results:
        if not np.isfinite(result.get("gap", float("nan"))):
            raise CheckFailed(f"result without a finite gap: {result}")


def check_close(
    served: np.ndarray, expected: np.ndarray, atol: float, what: str
) -> None:
    """Served gaps agree with a reference within ``atol``."""
    served = np.asarray(served, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if served.shape != expected.shape:
        raise CheckFailed(f"{what}: {served.shape} vs {expected.shape}")
    diff = np.abs(served - expected)
    if not diff.max(initial=0.0) <= atol:
        i = int(np.argmax(diff))
        raise CheckFailed(
            f"{what}: {int((diff > atol).sum())} gaps differ by more than "
            f"{atol}; worst at row {i}: {served[i]!r} vs {expected[i]!r}"
        )


def check_equal(
    served: Dict[tuple, float], expected: Dict[tuple, float], what: str
) -> None:
    """Served gaps equal a reference bitwise, query by query."""
    if set(served) != set(expected):
        raise CheckFailed(f"{what}: the two sides answered different queries")
    for query, gap in served.items():
        if gap != expected[query]:
            raise CheckFailed(
                f"{what}: query {query} served {gap!r}, reference "
                f"{expected[query]!r}"
            )
