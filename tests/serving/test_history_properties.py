"""Property: the shared per-area history tables are the per-row oracle.

``AreaHistory`` is the one featurizer behind ``FeatureBuilder`` and
``GapPredictor``.  For any area, any days (day 0 and days with no prior
same-weekday day included), timeslots anywhere in ``[L, 1440 - C]`` and
any sequence of orders observations applied to the tables in place, its
nine signal arrays equal the row-at-a-time oracle's bit for bit, and the
updated tables equal tables rebuilt from the mutated city.
"""

import copy

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.features import AreaHistory, signal_arrays
from repro.features.builder import SIGNALS

from .per_row_featurize import signals_per_row


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_shared_tables_match_per_row_oracle(dataset, scale, data):
    config = scale.features
    L, C = config.window_minutes, config.gap_minutes
    city = copy.deepcopy(dataset)
    n_days = city.n_days
    area = data.draw(st.integers(0, city.n_areas - 1), label="area")
    history = AreaHistory(city, area, n_days, L)

    observations = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n_days - 1),
                st.integers(0, 1439),
                st.one_of(st.none(), st.integers(0, 40)),
                st.one_of(st.none(), st.integers(0, 40)),
            ),
            max_size=6,
        ),
        label="observations",
    )
    for day, minute, valid, invalid in observations:
        if valid is not None:
            city.valid_counts[area, day, minute] = valid
        if invalid is not None:
            city.invalid_counts[area, day, minute] = invalid
        history.refresh_counts(city, day)
    rebuilt = AreaHistory(city, area, n_days, L)
    for name in SIGNALS:
        assert np.array_equal(history.tables[name], rebuilt.tables[name]), name

    days = st.one_of(
        st.just(0), st.integers(0, min(6, n_days - 1)), st.integers(0, n_days - 1)
    )
    slots = st.one_of(st.just(L), st.just(1440 - C), st.integers(L, 1440 - C))
    queries = data.draw(
        st.lists(st.tuples(st.just(area), days, slots), min_size=1, max_size=6),
        label="queries",
    )
    _, day_ids, time_ids = (np.array(column) for column in zip(*queries))
    shared = signal_arrays(len(queries), L)
    history.fill(shared, np.arange(len(queries)), day_ids, time_ids, C)
    oracle = signals_per_row(city, config, queries)
    for name in oracle:
        assert np.array_equal(shared[name], oracle[name]), name
