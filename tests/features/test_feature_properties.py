"""Property-based tests for feature-vector invariants.

These hold for *any* timeslot of any simulated area-day:

- the supply-demand vector conserves order counts;
- the last-call vector counts each passenger at most once and never
  exceeds the order counts;
- the waiting-time vector counts at most the passengers whose sessions fit
  in the window;
- per-weekday histories from the summed tables are exact running means.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.features import AreaDayProfile

from .test_history_builder import FlatCity, sd_history

L = 20


def profile_for(dataset, area, day):
    return AreaDayProfile(dataset, area, day, L)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=L, max_value=1440),
)
def test_sd_vector_conserves_orders(dataset_global, area, day, t):
    dataset = dataset_global
    profile = profile_for(dataset, area, day)
    orders = dataset.area_day_orders(area, day)
    in_window = ((orders["ts"] >= t - L) & (orders["ts"] < t)).sum()
    assert profile.supply_demand_vector(t).sum() == in_window


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=L, max_value=1440),
)
def test_lc_counts_unique_passengers(dataset_global, area, day, t):
    dataset = dataset_global
    profile = profile_for(dataset, area, day)
    orders = dataset.area_day_orders(area, day)
    window = orders[(orders["ts"] >= t - L) & (orders["ts"] < t)]
    assert profile.last_call_vector(t).sum() == len(np.unique(window["pid"]))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=L, max_value=1440),
)
def test_lc_bounded_by_sd(dataset_global, area, day, t):
    profile = profile_for(dataset_global, area, day)
    sd = profile.supply_demand_vector(t)
    lc = profile.last_call_vector(t)
    totals_sd = sd[:L] + sd[L:]
    totals_lc = lc[:L] + lc[L:]
    assert (totals_lc <= totals_sd + 1e-9).all()


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=L, max_value=1440),
)
def test_wt_bounded_by_contained_sessions(dataset_global, area, day, t):
    dataset = dataset_global
    profile = profile_for(dataset, area, day)
    sessions = dataset.area_day_sessions(area, day)
    contained = (
        (sessions["first_ts"] >= t - L) & (sessions["last_ts"] < t)
    ).sum()
    assert profile.waiting_time_vector(t).sum() == contained


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=L, max_value=1430),
)
def test_all_vectors_non_negative(dataset_global, area, day, t):
    profile = profile_for(dataset_global, area, day)
    for vector in (
        profile.supply_demand_vector(t),
        profile.last_call_vector(t),
        profile.waiting_time_vector(t),
    ):
        assert (vector >= 0).all()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=1000),
)
def test_history_accumulator_is_running_mean(n_days, start_weekday, seed):
    """AreaHistory's per-weekday history is the exact mean over prior days."""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 50, size=n_days)
    city = FlatCity(counts, start_weekday=start_weekday)
    day = int(rng.integers(0, n_days))
    history = sd_history(city, [day])[0]
    for weekday in range(7):
        prior = city.calendar.days_with_weekday(weekday, before=day)
        expected = counts[prior].mean() if prior else 0.0
        assert history[weekday] == np.float32(expected)
