"""The row-at-a-time featurizer: the oracle for the shared history tables.

For each query it extracts every signal's current vector and, for each
weekday, the mean of that vector over every prior day with that weekday,
one row and one day at a time, from freshly built ``AreaDayProfile``s.
``AreaHistory.fill`` (and so ``GapPredictor._featurize`` and
``FeatureBuilder``) must produce bitwise the same arrays.
"""

import numpy as np

from repro.features import AreaDayProfile, signal_arrays
from repro.features.builder import SIGNALS


def signal_vector(profile, timeslot, signal):
    if signal == "sd":
        return profile.supply_demand_vector(timeslot)
    if signal == "lc":
        return profile.last_call_vector(timeslot)
    return profile.waiting_time_vector(timeslot)


def history(profile, dataset, area_id, day, timeslot, signal):
    """Per-weekday mean of a signal's vectors over prior days — (7, 2L)."""
    calendar = dataset.calendar
    means = np.zeros((7, 2 * profile(area_id, day).window))
    for weekday in range(7):
        prior = calendar.days_with_weekday(weekday, before=day)
        if not prior:
            continue
        vectors = [
            signal_vector(profile(area_id, m), timeslot, signal) for m in prior
        ]
        means[weekday] = np.mean(vectors, axis=0)
    return means


def signals_per_row(dataset, config, queries):
    """All nine ExampleSet signal arrays for ``(area, day, timeslot)``
    queries, as ``signal_arrays`` lays them out."""
    L = config.window_minutes
    profiles = {}

    def profile(area_id, day):
        if (area_id, day) not in profiles:
            profiles[area_id, day] = AreaDayProfile(dataset, area_id, day, L)
        return profiles[area_id, day]

    arrays = signal_arrays(len(queries), L)
    for i, query in enumerate(queries):
        area_id, day, timeslot = (int(v) for v in query)
        shifted = timeslot + config.gap_minutes
        for name in SIGNALS:
            arrays[f"{name}_now"][i] = signal_vector(
                profile(area_id, day), timeslot, name
            )
            arrays[f"{name}_hist"][i] = history(
                profile, dataset, area_id, day, timeslot, name
            )
            arrays[f"{name}_hist_next"][i] = history(
                profile, dataset, area_id, day, shifted, name
            )
    return arrays
