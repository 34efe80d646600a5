"""Tests for historical averages, the environment extractor and the builder."""

import numpy as np
import pytest

from repro.city import ORDER_DTYPE, SESSION_DTYPE, SimulationCalendar
from repro.exceptions import DataError
from repro.features import (
    AreaDayProfile,
    AreaHistory,
    ExampleSet,
    FeatureBuilder,
    Standardizer,
    extract_environment,
    linear_design_matrix,
    signal_arrays,
    tree_design_matrix,
)


class FlatCity:
    """A one-area city with ``counts[day]`` valid orders in every minute of
    each day and no order records: its supply-demand vectors are
    ``counts[day]`` in the valid half and zero elsewhere, and its other
    signals are zero."""

    n_areas = 1

    def __init__(self, counts, start_weekday=0):
        counts = np.asarray(counts, dtype=np.int64)
        self.calendar = SimulationCalendar(
            n_days=len(counts), start_weekday=start_weekday
        )
        self.valid_counts = np.repeat(counts[None, :, None], 1440, axis=2)
        self.invalid_counts = np.zeros_like(self.valid_counts)

    def area_day_orders(self, area_id, day):
        return np.zeros(0, dtype=ORDER_DTYPE)

    def area_day_sessions(self, area_id, day):
        return np.zeros(0, dtype=SESSION_DTYPE)


def sd_history(city, days, slots=None, L=3):
    """``(n, 7)`` valid-half supply-demand history of area 0, checked to be
    flat over the window and zero in the invalid half."""
    days = np.asarray(days)
    slots = np.full(len(days), 30) if slots is None else np.asarray(slots)
    arrays = signal_arrays(len(days), L)
    AreaHistory(city, 0, city.calendar.n_days, L).fill(
        arrays, np.arange(len(days)), days, slots, 10
    )
    hist = arrays["sd_hist"]
    np.testing.assert_array_equal(hist[..., L:], 0.0)
    assert (hist[..., :L] == hist[..., :1]).all()
    return hist[..., 0]


class TestHistoryAccumulator:
    """Per-weekday history means read from ``AreaHistory``'s tables."""

    @pytest.fixture
    def city(self):
        # 21 days starting Monday; every vector entry = day index.
        return FlatCity(np.arange(21))

    def test_no_history_is_zero(self, city):
        np.testing.assert_array_equal(sd_history(city, [0]), np.zeros((1, 7)))

    def test_single_prior_day(self, city):
        # Day 8 (Tuesday): only Tuesday so far is day 1.
        assert sd_history(city, [8])[0, 1] == 1.0

    def test_average_of_two_prior_days(self, city):
        # Day 15 (Tuesday): Tuesdays 1 and 8 -> mean 4.5.
        assert sd_history(city, [15])[0, 1] == 4.5

    def test_unseen_weekday_stays_zero(self, city):
        # Before day 3 (Thursday), no Thursday has occurred.
        assert sd_history(city, [3])[0, 3] == 0.0

    def test_strictly_prior(self):
        # The day itself must not be included: day 7 is a Monday, history
        # for Monday before day 7 is just day 0.
        city = FlatCity(np.arange(21) + 5)
        assert sd_history(city, [7])[0, 0] == 5.0

    def test_matches_manual_average(self, dataset):
        """Every signal's history equals the mean of the prior same-weekday
        days' profile vectors, bit for bit."""
        L, area, day, t = 20, 3, 9, 610
        arrays = signal_arrays(1, L)
        AreaHistory(dataset, area, dataset.n_days, L).fill(
            arrays, np.array([0]), np.array([day]), np.array([t]), 10
        )
        for weekday in range(7):
            prior = dataset.calendar.days_with_weekday(weekday, before=day)
            profiles = [AreaDayProfile(dataset, area, m, L) for m in prior]
            for name, method in (
                ("sd", "supply_demand_vector"),
                ("lc", "last_call_vector"),
                ("wt", "waiting_time_vector"),
            ):
                for field, slot in (("hist", t), ("hist_next", t + 10)):
                    expected = (
                        np.mean([getattr(p, method)(slot) for p in profiles], axis=0)
                        if prior else np.zeros(2 * L)
                    )
                    np.testing.assert_array_equal(
                        arrays[f"{name}_{field}"][0, weekday],
                        expected.astype(np.float32),
                    )

    def test_batch_matches_single(self, city):
        days = np.array([3, 8, 15, 20])
        slots = np.array([30, 300, 1430, 3])
        batch = sd_history(city, days, slots)
        for i in range(len(days)):
            np.testing.assert_array_equal(
                batch[i], sd_history(city, days[i:i + 1], slots[i:i + 1])[0]
            )

    def test_validation(self, city):
        history = AreaHistory(city, 0, 21, 3)
        arrays = signal_arrays(1, 3)
        with pytest.raises(ValueError):
            history.fill(arrays, np.array([0]), np.array([21]), np.array([30]), 10)
        with pytest.raises(DataError):
            history.fill(arrays, np.array([0]), np.array([0]), np.array([2]), 10)
        with pytest.raises(DataError):
            history.fill(arrays, np.array([0]), np.array([0]), np.array([1435]), 10)


class TestEnvironmentExtraction:
    def test_shapes(self, dataset):
        env = extract_environment(
            dataset, np.array([0, 1]), np.array([0, 1]), np.array([300, 500]), 20
        )
        assert env.weather_types.shape == (2, 20)
        assert env.temperature.shape == (2, 20)
        assert env.traffic.shape == (2, 20, 4)

    def test_lag_indexing(self, dataset):
        """Slot ℓ-1 of the window is the condition at minute t-ℓ."""
        env = extract_environment(
            dataset, np.array([1]), np.array([2]), np.array([400]), 20
        )
        assert env.weather_types[0, 0] == dataset.weather.types[2, 399]
        assert env.weather_types[0, 19] == dataset.weather.types[2, 380]
        np.testing.assert_array_equal(
            env.traffic[0, 4], dataset.traffic.at(1, 2, 395)
        )

    def test_validation(self, dataset):
        with pytest.raises(ValueError):
            extract_environment(
                dataset, np.array([0]), np.array([0]), np.array([5]), 20
            )
        with pytest.raises(ValueError):
            extract_environment(
                dataset, np.array([0, 1]), np.array([0]), np.array([300]), 20
            )


class TestStandardizer:
    def test_fit_transform_zero_mean_unit_std(self):
        rng = np.random.default_rng(0)
        values = rng.normal(5.0, 3.0, size=1000)
        scaler = Standardizer.fit(values)
        out = scaler.transform(values)
        assert abs(out.mean()) < 1e-9
        assert abs(out.std() - 1.0) < 1e-9

    def test_inverse_roundtrip(self):
        scaler = Standardizer(mean=2.0, std=4.0)
        values = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(scaler.inverse(scaler.transform(values)), values)

    def test_constant_input_safe(self):
        scaler = Standardizer.fit(np.full(10, 7.0))
        out = scaler.transform(np.full(10, 7.0))
        np.testing.assert_allclose(out, np.zeros(10))


class TestFeatureBuilder:
    def test_item_counts(self, example_sets, scale, dataset):
        train, test = example_sets
        f = scale.features
        expected_train = (
            dataset.n_areas * f.train_days * len(list(f.train_timeslots()))
        )
        expected_test = dataset.n_areas * f.test_days * len(list(f.test_timeslots()))
        assert train.n_items == expected_train
        assert test.n_items == expected_test

    def test_train_test_days_disjoint(self, example_sets, scale):
        train, test = example_sets
        assert train.day_ids.max() < scale.features.train_days
        assert test.day_ids.min() >= scale.features.train_days

    def test_week_ids_consistent_with_calendar(self, example_sets, dataset):
        train, _ = example_sets
        for i in range(0, train.n_items, 37):
            assert train.week_ids[i] == dataset.calendar.day_of_week(
                int(train.day_ids[i])
            )

    def test_gap_labels_match_dataset(self, example_sets, dataset, scale):
        train, _ = example_sets
        for i in range(0, train.n_items, 53):
            expected = dataset.gap(
                int(train.area_ids[i]),
                int(train.day_ids[i]),
                int(train.time_ids[i]),
                horizon=scale.features.gap_minutes,
            )
            assert train.gaps[i] == expected

    def test_now_vector_matches_profile(self, example_sets, dataset, scale):
        from repro.features import AreaDayProfile

        train, _ = example_sets
        i = train.n_items // 2
        profile = AreaDayProfile(
            dataset,
            int(train.area_ids[i]),
            int(train.day_ids[i]),
            scale.features.window_minutes,
        )
        np.testing.assert_allclose(
            train.sd_now[i], profile.supply_demand_vector(int(train.time_ids[i])),
            rtol=1e-6,
        )
        np.testing.assert_allclose(
            train.lc_now[i], profile.last_call_vector(int(train.time_ids[i])),
            rtol=1e-6,
        )

    def test_history_strictly_prior(self, example_sets, dataset, scale):
        """First-occurrence weekdays must have all-zero history."""
        train, _ = example_sets
        first_day_items = train.day_ids == 0
        assert first_day_items.any()
        np.testing.assert_array_equal(
            train.sd_hist[first_day_items], 0.0
        )

    def test_history_matches_manual_average(self, example_sets, dataset, scale):
        _, test = example_sets
        L = scale.features.window_minutes
        from repro.features import AreaDayProfile

        # Find an item on a day with at least one prior same-weekday day.
        candidates = np.flatnonzero(test.day_ids >= 7)
        i = int(candidates[0])
        train = test
        area, day, t = (
            int(train.area_ids[i]),
            int(train.day_ids[i]),
            int(train.time_ids[i]),
        )
        weekday = dataset.calendar.day_of_week(day)
        prior = dataset.calendar.days_with_weekday(weekday, before=day)
        vectors = [
            AreaDayProfile(dataset, area, m, L).supply_demand_vector(t)
            for m in prior
        ]
        np.testing.assert_allclose(
            train.sd_hist[i, weekday], np.mean(vectors, axis=0), rtol=1e-5
        )

    def test_environment_standardized(self, example_sets):
        train, _ = example_sets
        assert abs(train.temperature.mean()) < 0.1
        assert "temperature" in train.scalers
        assert "pm25" in train.scalers

    def test_test_set_uses_train_scalers(self, example_sets):
        train, test = example_sets
        assert train.scalers == test.scalers

    def test_too_few_days_rejected(self, dataset, scale):
        from dataclasses import replace

        config = replace(scale.features, train_days=30)
        with pytest.raises(DataError):
            FeatureBuilder(dataset, config)


class TestExampleSet:
    def test_subset(self, example_sets):
        train, _ = example_sets
        sub = train.subset(np.array([0, 5, 10]))
        assert sub.n_items == 3
        np.testing.assert_array_equal(sub.area_ids, train.area_ids[[0, 5, 10]])
        np.testing.assert_array_equal(sub.sd_hist, train.sd_hist[[0, 5, 10]])
        assert sub.window == train.window

    def test_save_load_roundtrip(self, example_sets, tmp_path):
        train, _ = example_sets
        path = tmp_path / "train.npz"
        train.save(path)
        loaded = ExampleSet.load(path)
        assert loaded.n_items == train.n_items
        np.testing.assert_array_equal(loaded.gaps, train.gaps)
        np.testing.assert_array_equal(loaded.sd_hist_next, train.sd_hist_next)
        assert loaded.scalers == train.scalers
        assert loaded.window == train.window

    def test_len(self, example_sets):
        train, _ = example_sets
        assert len(train) == train.n_items

    def test_mismatched_rows_rejected(self, example_sets):
        import dataclasses

        train, _ = example_sets
        kwargs = {
            f.name: getattr(train, f.name) for f in dataclasses.fields(train)
        }
        kwargs["gaps"] = train.gaps[:-1]
        with pytest.raises(DataError):
            ExampleSet(**kwargs)


class TestDesignMatrices:
    def test_tree_matrix_shape_and_names(self, example_sets):
        train, _ = example_sets
        X, names = tree_design_matrix(train)
        assert X.shape == (train.n_items, len(names))
        assert names[0] == "area_id"
        assert not np.isnan(X).any()

    def test_linear_matrix_one_hot_blocks(self, example_sets):
        train, test = example_sets
        Xtr, Xte, names = linear_design_matrix(train, test)
        assert Xtr.shape[1] == Xte.shape[1] == len(names)
        area_cols = [i for i, n in enumerate(names) if n.startswith("area=")]
        # One-hot: each row has exactly one active area column.
        np.testing.assert_allclose(Xtr[:, area_cols].sum(axis=1), 1.0)

    def test_linear_numeric_standardized(self, example_sets):
        train, test = example_sets
        Xtr, _, names = linear_design_matrix(train, test)
        numeric = [i for i, n in enumerate(names) if "=" not in n]
        means = Xtr[:, numeric].mean(axis=0)
        assert np.abs(means).max() < 1e-6
