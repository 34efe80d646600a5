"""Stale-cache satellite: observations invalidate exactly what they stale.

An observation at minute ``m`` sits inside the lookback window of slots
``t`` with ``m < t <= m + L`` only.  Weather is city-wide; traffic and
orders touch one area.  Everything else must stay warm in the cache.
"""

import pytest

from repro.exceptions import DataError
from repro.serving import PredictionService, ServingConfig

pytestmark = pytest.mark.serving


@pytest.fixture()
def service(checkpoint, mutable_dataset, scale):
    svc = PredictionService.from_checkpoint(
        checkpoint,
        mutable_dataset,
        scale.features,
        serving_config=ServingConfig(max_batch=8),
    )
    yield svc
    svc.close()


def _fill(service, queries):
    """Prime the cache and return the gaps keyed by query."""
    return {q: service.predict(*q).gap for q in queries}


def _cached_flags(service, queries):
    return {q: service.predict(*q).cached for q in queries}


# L = 20 at tiny scale; an observation at minute 100 stales slots 101..120.
AFFECTED_SLOTS = (101, 110, 120)
UNAFFECTED_SLOTS = (90, 100, 121, 300)


def test_traffic_observation_invalidates_one_areas_window(service, scale):
    L = scale.features.window_minutes
    assert L == 20  # the slot constants above assume the tiny scale
    day, area, other_area = 3, 2, 1
    queries = [
        (a, day, slot)
        for a in (area, other_area)
        for slot in AFFECTED_SLOTS + UNAFFECTED_SLOTS
    ] + [(area, day + 1, slot) for slot in AFFECTED_SLOTS]
    _fill(service, queries)

    outcome = service.observe(
        "traffic", day=day, minute=100, area_id=area,
        level_counts=[9.0, 3.0, 1.0, 0.0],
    )
    assert outcome["invalidated"] == len(AFFECTED_SLOTS)

    flags = _cached_flags(service, queries)
    for query, cached in flags.items():
        q_area, q_day, q_slot = query
        should_be_stale = (
            q_area == area and q_day == day and q_slot in AFFECTED_SLOTS
        )
        assert cached != should_be_stale, (query, cached)


def test_weather_observation_invalidates_every_area(service, scale):
    day = 4
    queries = [
        (a, day, slot) for a in range(3) for slot in AFFECTED_SLOTS + UNAFFECTED_SLOTS
    ]
    _fill(service, queries)

    outcome = service.observe("weather", day=day, minute=100, temperature=31.5)
    assert outcome["invalidated"] == 3 * len(AFFECTED_SLOTS)

    flags = _cached_flags(service, queries)
    for (q_area, q_day, q_slot), cached in flags.items():
        assert cached != (q_slot in AFFECTED_SLOTS), (q_area, q_slot, cached)


def test_weather_change_also_changes_the_prediction(service):
    # The re-served value must reflect the new data, not just a cold cache.
    before = service.predict(0, 4, 110).gap
    service.observe("weather", day=4, minute=100, temperature=99.0, pm25=999.0)
    after = service.predict(0, 4, 110).gap
    assert after != before


def test_orders_observation_drops_profile_and_later_days(service, scale):
    day, area = 3, 2
    queries = [
        (area, day, 110),        # affected slot on the observed day
        (area, day, 300),        # same day, window does not cover minute 100
        (area, day + 2, 110),    # later day: history may average the mutated day
        (area + 1, day, 110),    # other area: untouched
        (area, day - 1, 110),    # earlier day: untouched
    ]
    _fill(service, queries)

    outcome = service.observe(
        "orders", day=day, minute=100, area_id=area, valid=7, invalid=5
    )
    assert outcome["profiles_dropped"] == 1
    assert outcome["invalidated"] == 2  # (area, day, 110) and (area, day+2, 110)

    flags = _cached_flags(service, queries)
    assert flags[(area, day, 110)] is False
    assert flags[(area, day, 300)] is True
    assert flags[(area, day + 2, 110)] is False
    assert flags[(area + 1, day, 110)] is True
    assert flags[(area, day - 1, 110)] is True


def test_orders_observation_updates_gap_labels(service):
    area, day = 2, 3
    service.observe("orders", day=day, minute=100, area_id=area, invalid=5)
    # Definition 2: the gap over [95, 105) now includes the 5 invalid orders.
    engine_predictor = service._engine.predictor
    assert engine_predictor.actual_gap(area, day, 95) >= 5


def test_observation_validation(service):
    with pytest.raises(DataError):
        service.observe("earthquake", day=0, minute=0)
    with pytest.raises(DataError):
        service.observe("traffic", day=0, minute=0, level_counts=[1, 2, 3, 4])
    with pytest.raises(DataError):
        service.observe("weather", day=0, minute=0)  # no fields
    with pytest.raises(DataError):
        service.observe("weather", day=0, minute=0, humidity=0.5)
    with pytest.raises(DataError):
        service.observe("weather", day=99, minute=0, temperature=1.0)
    with pytest.raises(DataError):
        service.observe("weather", day=0, minute=1440, temperature=1.0)
