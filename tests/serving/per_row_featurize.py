"""The row-at-a-time featurizer: the oracle for ``GapPredictor``'s grouped one.

For each query it extracts every signal's current vector and, for each
weekday, the mean of that vector over every prior day with that weekday,
one row and one day at a time.  ``GapPredictor._signals_grouped`` must
produce bitwise the same arrays.
"""

import numpy as np

from repro.features.builder import SIGNALS


def signal_vector(profile, timeslot, signal):
    if signal == "sd":
        return profile.supply_demand_vector(timeslot)
    if signal == "lc":
        return profile.last_call_vector(timeslot)
    return profile.waiting_time_vector(timeslot)


def history(predictor, area_id, day, timeslot, signal):
    """Per-weekday mean of a signal's vectors over prior days — (7, 2L)."""
    calendar = predictor.dataset.calendar
    L = predictor.config.window_minutes
    means = np.zeros((7, 2 * L))
    for weekday in range(7):
        prior = calendar.days_with_weekday(weekday, before=day)
        if not prior:
            continue
        vectors = [
            signal_vector(predictor._profile(area_id, m), timeslot, signal)
            for m in prior
        ]
        means[weekday] = np.mean(vectors, axis=0)
    return means


def signals_per_row(predictor, queries):
    """``(now, hist, hist_next)`` signal arrays, every signal filled, in
    the layout ``GapPredictor._signals_grouped`` returns."""
    config = predictor.config
    L = config.window_minutes
    n = len(queries)
    now = {name: np.empty((n, 2 * L), dtype=np.float32) for name in SIGNALS}
    hist = {name: np.empty((n, 7, 2 * L), dtype=np.float32) for name in SIGNALS}
    hist_next = {name: np.empty((n, 7, 2 * L), dtype=np.float32) for name in SIGNALS}
    for i, query in enumerate(queries):
        profile = predictor._profile(query.area_id, query.day)
        shifted = query.timeslot + config.gap_minutes
        for name in SIGNALS:
            now[name][i] = signal_vector(profile, query.timeslot, name)
            hist[name][i] = history(
                predictor, query.area_id, query.day, query.timeslot, name
            )
            hist_next[name][i] = history(
                predictor, query.area_id, query.day, shifted, name
            )
    return now, hist, hist_next
