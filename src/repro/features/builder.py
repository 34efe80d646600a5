"""ExampleSet construction — the paper's train/test item protocol.

Section VI-A: for each area on each training day, one item is generated
every ``train_stride_minutes`` from ``train_start_minute`` to the end of the
day; test items are generated every two hours between 7:30 and 23:30 on the
test days.  Each item carries:

- identity features (AreaID, TimeID, WeekID);
- the three real-time vectors ``V_sd``, ``V_lc``, ``V_wt`` at ``t``;
- the per-weekday historical vectors at ``t`` *and* at ``t + C`` (the
  ingredients of the empirical estimates ``E^{d,t}`` and ``E^{d,t+10}``);
- the weather and traffic windows;
- the gap label over ``[t, t+C)``.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Dict, Tuple

import numpy as np

from ..config import FeatureConfig
from ..exceptions import DataError
from ..obs import get_logger, get_registry
from .environment import Standardizer, extract_environment
from .history import AreaHistory, signal_arrays
from .vectors import SIGNALS

if TYPE_CHECKING:  # pragma: no cover
    from ..city.dataset import CityDataset

_log = get_logger(__name__)


def apply_environment_scalers(example_set: "ExampleSet") -> None:
    """Standardize temperature/PM2.5 in place with the set's own scalers.

    Shared by the bulk builder (after fitting scalers on train) and the
    online query featurizer (:class:`repro.core.GapPredictor`), which reuses
    the training set's scalers — both paths must transform identically for
    online predictions to match batch predictions bitwise.  The builder
    hands in float32 values and the featurizer float64 ones, so both are
    cast to float32 first (with Python-float scalers, NumPy then does the
    arithmetic in float32 for both).
    """
    for name in ("temperature", "pm25"):
        mean, std = (float(v) for v in example_set.scalers[name])
        values = getattr(example_set, name).astype(np.float32, copy=False)
        setattr(example_set, name, (values - mean) / std)


@dataclass
class ExampleSet:
    """A featurized set of prediction items.

    Array shapes (``n`` items, window ``L``):

    ==================  =================  =========================================
    field               shape              content
    ==================  =================  =========================================
    area_ids            (n,)               AreaID
    time_ids            (n,)               TimeID — minute of day ``t``
    week_ids            (n,)               WeekID — 0 = Monday … 6 = Sunday
    day_ids             (n,)               absolute simulated day index
    sd_now/lc_now/...   (n, 2L)            real-time vectors at ``t``
    sd_hist/...         (n, 7, 2L)         per-weekday history at ``t``
    sd_hist_next/...    (n, 7, 2L)         per-weekday history at ``t + C``
    weather_types       (n, L)             weather type codes over the window
    temperature/pm25    (n, L)             standardized weather scalars
    traffic             (n, L, 4)          congestion level counts
    gaps                (n,)               label: invalid orders in [t, t+C)
    ==================  =================  =========================================
    """

    area_ids: np.ndarray
    time_ids: np.ndarray
    week_ids: np.ndarray
    day_ids: np.ndarray
    sd_now: np.ndarray
    sd_hist: np.ndarray
    sd_hist_next: np.ndarray
    lc_now: np.ndarray
    lc_hist: np.ndarray
    lc_hist_next: np.ndarray
    wt_now: np.ndarray
    wt_hist: np.ndarray
    wt_hist_next: np.ndarray
    weather_types: np.ndarray
    temperature: np.ndarray
    pm25: np.ndarray
    traffic: np.ndarray
    gaps: np.ndarray
    window: int
    n_areas: int
    scalers: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = len(self.area_ids)
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray) and len(value) != n:
                raise DataError(
                    f"field {f.name} has {len(value)} rows, expected {n}"
                )

    @property
    def n_items(self) -> int:
        return len(self.area_ids)

    def __len__(self) -> int:
        return self.n_items

    def subset(self, indices: np.ndarray) -> "ExampleSet":
        """A new ExampleSet with only the selected items."""
        kwargs = {}
        for f in fields(self):
            value = getattr(self, f.name)
            kwargs[f.name] = value[indices] if isinstance(value, np.ndarray) else value
        return ExampleSet(**kwargs)

    def save(self, path: str | os.PathLike) -> None:
        """Serialize to a compressed npz archive."""
        arrays = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if isinstance(getattr(self, f.name), np.ndarray)
        }
        scaler_names = sorted(self.scalers)
        np.savez_compressed(
            os.fspath(path),
            window=np.array([self.window]),
            n_areas=np.array([self.n_areas]),
            scaler_names=np.array(scaler_names),
            scaler_values=np.array(
                [self.scalers[name] for name in scaler_names]
            ).reshape(-1, 2),
            **arrays,
        )

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ExampleSet":
        """Load an ExampleSet written by :meth:`save`."""
        with np.load(os.fspath(path), allow_pickle=False) as archive:
            scalers = {
                str(name): (float(mean), float(std))
                for name, (mean, std) in zip(
                    archive["scaler_names"], archive["scaler_values"]
                )
            }
            kwargs = {
                f.name: archive[f.name]
                for f in fields(cls)
                if f.name in archive.files
                and f.name not in ("window", "n_areas", "scalers")
            }
            return cls(
                window=int(archive["window"][0]),
                n_areas=int(archive["n_areas"][0]),
                scalers=scalers,
                **kwargs,
            )


class FeatureBuilder:
    """Builds train and test :class:`ExampleSet` objects from a city.

    Each area's real-time and historical vectors come from one
    :class:`~repro.features.history.AreaHistory`; the areas are built one
    after another into the same table arrays.
    """

    def __init__(self, dataset: "CityDataset", config: FeatureConfig | None = None):
        self.dataset = dataset
        self.config = config or FeatureConfig()
        if dataset.n_days < self.config.n_days:
            raise DataError(
                f"dataset has {dataset.n_days} days, split needs {self.config.n_days}"
            )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def build(self) -> Tuple[ExampleSet, ExampleSet]:
        """Build (train, test) with environment scalers fit on train."""
        registry = get_registry()
        _log.event(
            "featurize.start",
            level=logging.DEBUG,
            areas=self.dataset.n_areas,
            train_days=self.config.train_days,
            test_days=self.config.test_days,
            window=self.config.window_minutes,
        )
        with registry.timer("repro.featurize.train_seconds") as train_timer:
            train = self._build_items(self._train_items())
        with registry.timer("repro.featurize.test_seconds") as test_timer:
            test = self._build_items(self._test_items())
        for name in ("temperature", "pm25"):
            scaler = Standardizer.fit(getattr(train, name))
            for example_set in (train, test):
                example_set.scalers[name] = (scaler.mean, scaler.std)
        for example_set in (train, test):
            apply_environment_scalers(example_set)
        registry.counter("repro.featurize.items", train.n_items + test.n_items)
        _log.event(
            "featurize.done",
            train_items=train.n_items,
            test_items=test.n_items,
            seconds=train_timer.elapsed + test_timer.elapsed,
        )
        return train, test

    def build_test(self, scalers: Dict[str, Tuple[float, float]]) -> ExampleSet:
        """Build only the test split, standardized with *given* scalers.

        The scenario matrix runner (:mod:`repro.scenarios`) backtests models
        trained on the steady city against transformed cities; like serving,
        it must featurize with the *training* run's environment scalers, not
        scalers refit on the shifted distribution — a model never sees refit
        scalers in production.
        """
        registry = get_registry()
        with registry.timer("repro.featurize.test_seconds"):
            test = self._build_items(self._test_items())
        for name in ("temperature", "pm25"):
            test.scalers[name] = (float(scalers[name][0]), float(scalers[name][1]))
        apply_environment_scalers(test)
        registry.counter("repro.featurize.items", test.n_items)
        return test

    def _train_items(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        days = np.arange(self.config.train_days)
        slots = np.array(list(self.config.train_timeslots()))
        return self._cross(days, slots)

    def _test_items(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        days = np.arange(
            self.config.train_days, self.config.train_days + self.config.test_days
        )
        slots = np.array(list(self.config.test_timeslots()))
        return self._cross(days, slots)

    def _cross(
        self, days: np.ndarray, slots: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(area, day, slot) triples in lexicographic item order."""
        n_areas = self.dataset.n_areas
        area_ids = np.repeat(np.arange(n_areas), len(days) * len(slots))
        day_ids = np.tile(np.repeat(days, len(slots)), n_areas)
        time_ids = np.tile(slots, n_areas * len(days))
        return area_ids, day_ids, time_ids

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def _build_items(
        self, items: Tuple[np.ndarray, np.ndarray, np.ndarray]
    ) -> ExampleSet:
        dataset, config = self.dataset, self.config
        area_ids, day_ids, time_ids = items
        n = len(area_ids)
        L = config.window_minutes
        n_days = int(day_ids.max()) + 1

        signals = signal_arrays(n, L)
        # One area's tables at a time, all in the same arrays: they are the
        # featurizer's largest allocation (about a megabyte per day).
        history = None
        for area in np.unique(area_ids):
            rows = np.flatnonzero(area_ids == area)
            history = AreaHistory(dataset, int(area), n_days, L, reuse=history)
            history.fill(
                signals, rows, day_ids[rows], time_ids[rows], config.gap_minutes
            )

        environment = extract_environment(dataset, area_ids, day_ids, time_ids, L)
        week_ids = (
            (day_ids.astype(np.int64) + dataset.calendar.start_weekday) % 7
        )
        gaps = dataset.gaps(area_ids, day_ids, time_ids, horizon=config.gap_minutes)

        return ExampleSet(
            area_ids=area_ids.astype(np.int64),
            time_ids=time_ids.astype(np.int64),
            week_ids=week_ids,
            day_ids=day_ids.astype(np.int64),
            **signals,
            weather_types=environment.weather_types,
            temperature=environment.temperature.astype(np.float32),
            pm25=environment.pm25.astype(np.float32),
            traffic=environment.traffic.astype(np.float32),
            gaps=gaps.astype(np.float32),
            window=L,
            n_areas=dataset.n_areas,
        )
