"""Tests for the online GapPredictor.

The key consistency property: a prediction for an (area, day, timeslot)
triple that exists in a pre-built ExampleSet must equal the batch
prediction for that item — the on-demand featurization path and the bulk
builder path must agree exactly.
"""

import numpy as np
import pytest

import copy
import sys
import threading

from repro.core import (
    AdvancedDeepSD,
    BasicDeepSD,
    GapPredictor,
    GapQuery,
    Trainer,
    TrainingConfig,
)
from repro.exceptions import DataError
from repro.features import AreaDayProfile
from repro.features import history as history_module

SIGNAL_FIELDS = tuple(
    f"{signal}_{part}"
    for signal in ("sd", "lc", "wt")
    for part in ("now", "hist", "hist_next")
)


@pytest.fixture(scope="module")
def trained(dataset, scale, example_sets):
    train_set, test_set = example_sets
    model = BasicDeepSD(
        dataset.n_areas, scale.features.window_minutes, scale.embeddings,
        dropout=0.1, seed=2,
    )
    trainer = Trainer(model, TrainingConfig(epochs=3, best_k=2, seed=2))
    trainer.fit(train_set, eval_set=test_set)
    return trainer


@pytest.fixture(scope="module")
def predictor(trained, dataset, scale, example_sets):
    train_set, _ = example_sets
    return GapPredictor.from_training(
        trained, dataset, scale.features, train_set
    )


def _advanced_predictor(dataset, scale, train_set):
    """A predictor whose model reads every ExampleSet field (untrained:
    featurization does not depend on the weights)."""
    model = AdvancedDeepSD(
        dataset.n_areas, scale.features.window_minutes, scale.embeddings, seed=3
    )
    return GapPredictor.from_training(model, dataset, scale.features, train_set)


@pytest.fixture(scope="module")
def full_predictor(dataset, scale, example_sets):
    return _advanced_predictor(dataset, scale, example_sets[0])


class TestConsistencyWithBuilder:
    def test_matches_batch_prediction(self, predictor, trained, example_sets):
        _, test_set = example_sets
        batch_predictions = trained.predict(test_set)
        for i in (0, len(test_set) // 2, len(test_set) - 1):
            online = predictor.predict(
                int(test_set.area_ids[i]),
                int(test_set.day_ids[i]),
                int(test_set.time_ids[i]),
            )
            assert online == pytest.approx(batch_predictions[i], rel=1e-5)

    def test_features_match_builder(self, full_predictor, example_sets, dataset):
        """Builder rows and online rows are the same bits: all nine signal
        arrays (the predictor's model reads every one) and the
        standardized environment, for every test item."""
        _, test_set = example_sets
        queries = [
            GapQuery(int(a), int(d), int(t))
            for a, d, t in zip(test_set.area_ids, test_set.day_ids, test_set.time_ids)
        ]
        online_set = full_predictor._featurize(queries)
        assert set(SIGNAL_FIELDS) <= set(full_predictor._trainer._input_fields())
        for name in SIGNAL_FIELDS + ("temperature", "pm25", "weather_types", "gaps"):
            assert np.array_equal(
                getattr(online_set, name), getattr(test_set, name)
            ), name


class TestPredictorAPI:
    def test_predict_many_order(self, predictor, example_sets):
        _, test_set = example_sets
        queries = [
            GapQuery(int(test_set.area_ids[i]), int(test_set.day_ids[i]),
                     int(test_set.time_ids[i]))
            for i in (0, 1, 2)
        ]
        batch = predictor.predict_many(queries)
        singles = [predictor.predict(q.area_id, q.day, q.timeslot) for q in queries]
        np.testing.assert_allclose(batch, singles, rtol=1e-6)

    def test_empty_queries(self, predictor):
        assert predictor.predict_many([]).shape == (0,)

    def test_arbitrary_timeslot_works(self, predictor):
        # Not on any training/test grid: 10:07.
        value = predictor.predict(0, 8, 607)
        assert np.isfinite(value)

    def test_actual_gap_matches_dataset(self, predictor, dataset):
        assert predictor.actual_gap(1, 2, 600) == dataset.gap(1, 2, 600)

    def test_history_tables_cached(self, predictor):
        predictor.predict(0, 8, 500)
        first = predictor._histories[0]
        predictor.predict(0, 3, 520)
        assert predictor._histories[0] is first


class TestValidation:
    def test_bad_area(self, predictor):
        with pytest.raises(DataError):
            predictor.predict(999, 0, 500)

    def test_bad_day(self, predictor):
        with pytest.raises(DataError):
            predictor.predict(0, 999, 500)

    def test_timeslot_too_early(self, predictor):
        with pytest.raises(DataError):
            predictor.predict(0, 0, 5)

    def test_timeslot_too_late(self, predictor):
        with pytest.raises(DataError):
            predictor.predict(0, 0, 1439)

    def test_missing_scalers_rejected(self, trained, dataset, scale):
        with pytest.raises(DataError):
            GapPredictor(trained, dataset, scale.features, {"temperature": (0, 1)})


class TestOrdersRefresh:
    QUERIES = [GapQuery(2, day, slot) for day in range(10) for slot in (30, 110, 600)]

    def _assert_matches_fresh(self, predictor, dataset, scale, train_set):
        fresh = _advanced_predictor(dataset, scale, train_set)
        got = predictor._featurize(self.QUERIES)
        want = fresh._featurize(self.QUERIES)
        for name in SIGNAL_FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_refresh_updates_held_tables(self, dataset, scale, example_sets):
        city = copy.deepcopy(dataset)
        predictor = _advanced_predictor(city, scale, example_sets[0])
        assert predictor.refresh_orders(2, 1) == 0  # nothing held yet
        predictor._featurize(self.QUERIES)
        changes = ((1, 100, 9, 4), (8, 590, 0, 7), (1, 20, 3, 0))
        for day, minute, valid, invalid in changes:
            city.valid_counts[2, day, minute] = valid
            city.invalid_counts[2, day, minute] = invalid
            assert predictor.refresh_orders(2, day) == 1
        self._assert_matches_fresh(predictor, city, scale, example_sets[0])

    def test_observe_during_table_build_is_not_lost(
        self, dataset, scale, example_sets, monkeypatch
    ):
        """An orders observation that lands while the area's tables are
        being built (after the observed day was read) is still in them
        once the build and the observation are done."""
        city = copy.deepcopy(dataset)
        predictor = _advanced_predictor(city, scale, example_sets[0])
        written = threading.Event()
        results = []

        def observe():
            city.valid_counts[2, 1, 100] += 6
            city.invalid_counts[2, 1, 101] += 2
            written.set()
            results.append(predictor.refresh_orders(2, 1))

        observer = threading.Thread(target=observe)

        def profile_then_observe(dataset, area_id, day, window):
            if day == 5 and not observer.is_alive() and not written.is_set():
                observer.start()  # day 1 is already summed into the build
                assert written.wait(5.0)
            return AreaDayProfile(dataset, area_id, day, window)

        monkeypatch.setattr(history_module, "AreaDayProfile", profile_then_observe)
        predictor._featurize(self.QUERIES)
        observer.join(5.0)
        monkeypatch.undo()
        assert results == [1]
        self._assert_matches_fresh(predictor, city, scale, example_sets[0])

    def test_concurrent_featurizes_and_observes_lose_no_update(
        self, dataset, scale, example_sets
    ):
        """More threads than cores, a short switch interval: featurizes
        racing orders observations of the same area leave tables equal to
        a fresh predictor's."""
        city = copy.deepcopy(dataset)
        predictor = _advanced_predictor(city, scale, example_sets[0])
        errors = []

        def observe(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(25):
                    day, minute = int(rng.integers(10)), int(rng.integers(1440))
                    city.valid_counts[2, day, minute] = rng.integers(20)
                    city.invalid_counts[2, day, minute] = rng.integers(20)
                    predictor.refresh_orders(2, day)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        def featurize():
            try:
                for _ in range(5):
                    predictor._featurize(self.QUERIES)
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        threads = [threading.Thread(target=observe, args=(i,)) for i in range(4)]
        threads += [threading.Thread(target=featurize) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        self._assert_matches_fresh(predictor, city, scale, example_sets[0])
