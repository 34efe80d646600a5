"""Online gap prediction for arbitrary (area, day, timeslot) queries.

The :class:`~repro.core.trainer.Trainer` predicts over pre-built
ExampleSets; a deployed scheduler instead asks "what is the gap going to be
in area a over the next ten minutes, *now*?".  :class:`GapPredictor` serves
that query shape: it featurizes on demand from a :class:`CityDataset`
(profiles and per-weekday histories are built lazily per area and cached)
and runs the trained model.

This is the component the paper's conclusion describes deploying inside
Didi's scheduling system.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import FeatureConfig
from ..exceptions import DataError
from ..features.builder import SIGNALS, ExampleSet, apply_environment_scalers
from ..features.environment import extract_environment
from ..features.vectors import AreaDayProfile
from .batching import make_batch
from .trainer import Trainer

if TYPE_CHECKING:  # pragma: no cover
    from ..city.dataset import CityDataset
    from ..nn import Module


@dataclass(frozen=True)
class GapQuery:
    """One prediction request."""

    area_id: int
    day: int
    timeslot: int


class GapPredictor:
    """Featurize-and-predict service around a trained DeepSD model.

    Parameters
    ----------
    model:
        A trained :class:`BasicDeepSD` / :class:`AdvancedDeepSD` (or a
        :class:`Trainer`, whose best-k ensemble is then used).
    dataset:
        The city whose order/weather/traffic streams feed the features.
    config:
        Featurization constants — must match what the model was trained on.
    scalers:
        The training ExampleSet's environment scalers
        (``{"temperature": (mean, std), "pm25": (mean, std)}``); pass the
        training set's ``scalers`` attribute.
    """

    def __init__(
        self,
        model: "Module | Trainer",
        dataset: "CityDataset",
        config: FeatureConfig,
        scalers: Dict[str, Tuple[float, float]],
        *,
        max_profiles: Optional[int] = None,
    ) -> None:
        if isinstance(model, Trainer):
            self._trainer = model
        else:
            self._trainer = Trainer(model)
        self.dataset = dataset
        self.config = config
        for required in ("temperature", "pm25"):
            if required not in scalers:
                raise DataError(f"scalers must contain {required!r}")
        self.scalers = dict(scalers)
        # Warm featurization state: per-(area, day) profiles, LRU-bounded
        # when ``max_profiles`` is set (long-running serving processes) and
        # guarded by a lock so observation ingestion can drop entries while
        # another thread featurizes.
        if max_profiles is not None and max_profiles <= 0:
            raise DataError(f"max_profiles must be positive, got {max_profiles}")
        self.max_profiles = max_profiles
        self._profiles: "OrderedDict[Tuple[int, int], AreaDayProfile]" = OrderedDict()
        self._profiles_lock = threading.Lock()
        # Which signal arrays _featurize fills: "all" keeps the builder-
        # parity contract (every signal array populated); "model" fills
        # only the arrays named in the model's ``input_fields`` and leaves
        # the rest zero — predictions are unaffected (the model never
        # reads them) and a model without history inputs skips prior-day
        # profile builds entirely.  The serving layer opts into "model".
        self.feature_fields = "all"

    @classmethod
    def from_training(
        cls,
        model: "Module | Trainer",
        dataset: "CityDataset",
        config: FeatureConfig,
        train_set: ExampleSet,
    ) -> "GapPredictor":
        """Build a predictor reusing the training set's scalers."""
        return cls(model, dataset, config, train_set.scalers)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def predict(self, area_id: int, day: int, timeslot: int) -> float:
        """Predicted gap for ``[timeslot, timeslot + C)`` in one area."""
        return float(self.predict_many([GapQuery(area_id, day, timeslot)])[0])

    def predict_many(self, queries: Sequence[GapQuery]) -> np.ndarray:
        """Predicted gaps for a batch of queries (one pass per call)."""
        if not queries:
            return np.empty(0)
        example_set = self._featurize(queries)
        return self._trainer.predict(example_set)

    def actual_gap(self, area_id: int, day: int, timeslot: int) -> int:
        """Ground truth for the same interval (for backtesting)."""
        return self.dataset.gap(
            area_id, day, timeslot, horizon=self.config.gap_minutes
        )

    # ------------------------------------------------------------------
    # Featurization
    # ------------------------------------------------------------------

    def _profile(self, area_id: int, day: int) -> AreaDayProfile:
        key = (area_id, day)
        with self._profiles_lock:
            profile = self._profiles.get(key)
            if profile is not None:
                self._profiles.move_to_end(key)
                return profile
        # Build outside the lock: profiles are deterministic functions of the
        # dataset, so a racing double-build just wastes one construction.
        profile = AreaDayProfile(
            self.dataset, area_id, day, self.config.window_minutes
        )
        with self._profiles_lock:
            self._profiles[key] = profile
            self._profiles.move_to_end(key)
            if self.max_profiles is not None:
                while len(self._profiles) > self.max_profiles:
                    self._profiles.popitem(last=False)
        return profile

    def drop_profiles(self, area_id: int, day: int) -> int:
        """Forget cached profiles for ``(area_id, day)``.

        Call after mutating the dataset's order stream for that area/day so
        the next featurization rebuilds from the fresh data.  Returns the
        number of entries dropped.
        """
        with self._profiles_lock:
            return 1 if self._profiles.pop((area_id, day), None) is not None else 0

    def _validate(self, query: GapQuery) -> None:
        L = self.config.window_minutes
        if not 0 <= query.area_id < self.dataset.n_areas:
            raise DataError(f"area {query.area_id} outside the city")
        if not 0 <= query.day < self.dataset.n_days:
            raise DataError(f"day {query.day} outside the simulation")
        if not L <= query.timeslot <= 1440 - self.config.gap_minutes:
            raise DataError(
                f"timeslot {query.timeslot} must be in "
                f"[{L}, {1440 - self.config.gap_minutes}] so the lookback "
                "window and the prediction interval fit inside the day"
            )

    @staticmethod
    def _signal_vectors(
        profile: AreaDayProfile, timeslots: np.ndarray, signal: str
    ) -> np.ndarray:
        if signal == "sd":
            return profile.supply_demand_vectors(timeslots)
        if signal == "lc":
            return profile.last_call_vectors(timeslots)
        return profile.waiting_time_vectors(timeslots)

    def _signals_grouped(self, queries: Sequence[GapQuery], time_ids: np.ndarray):
        """Batched extraction: group by (area, day).

        In ``feature_fields="model"`` mode, only arrays named in the
        model's ``input_fields`` are computed; the rest stay zero (the
        model never reads them, so predictions are unaffected).  A model
        that reads no history arrays — the basic network — then never
        touches prior-day profiles at all, which is the bulk of the
        cold-path cost.

        Each computed element is bitwise-identical to a row-at-a-time
        extraction (``tests/serving/per_row_featurize.py``): the batched
        vector extractions are pure gathers (row-independent),
        and ``np.mean`` over the leading axis of a stacked ``(k, T, 2L)``
        array reduces in the same sequential order as over ``(k, 2L)``.
        """
        config = self.config
        L = config.window_minutes
        n = len(queries)
        if self.feature_fields == "model":
            fields = set(self._trainer._input_fields())
        else:
            fields = {
                f"{name}_{part}"
                for name in SIGNALS
                for part in ("now", "hist", "hist_next")
            }
        need = {
            name: (
                f"{name}_now" in fields,
                f"{name}_hist" in fields,
                f"{name}_hist_next" in fields,
            )
            for name in SIGNALS
        }
        now = {name: np.zeros((n, 2 * L), dtype=np.float32) for name in SIGNALS}
        hist = {name: np.zeros((n, 7, 2 * L), dtype=np.float32) for name in SIGNALS}
        hist_next = {
            name: np.zeros((n, 7, 2 * L), dtype=np.float32) for name in SIGNALS
        }
        history_signals = [
            name for name in SIGNALS if need[name][1] or need[name][2]
        ]

        groups: Dict[Tuple[int, int], List[int]] = {}
        for i, query in enumerate(queries):
            groups.setdefault((query.area_id, query.day), []).append(i)

        calendar = self.dataset.calendar
        for (area_id, day), indices in groups.items():
            rows = np.array(indices, dtype=np.int64)
            ts = time_ids[rows]
            profile = self._profile(area_id, day)
            for name in SIGNALS:
                if need[name][0]:
                    now[name][rows] = self._signal_vectors(profile, ts, name)
            if not history_signals:
                continue
            # hist wants vectors at t, hist_next at t + C; one batched
            # extraction over the concatenation serves both.
            ts_both = np.concatenate([ts, ts + config.gap_minutes])
            for weekday in range(7):
                prior = calendar.days_with_weekday(weekday, before=day)
                if not prior:
                    continue
                profiles = [self._profile(area_id, m) for m in prior]
                for name in history_signals:
                    stack = np.stack(
                        [self._signal_vectors(p, ts_both, name) for p in profiles]
                    )
                    mean = np.mean(stack, axis=0)
                    if need[name][1]:
                        hist[name][rows, weekday] = mean[: len(rows)]
                    if need[name][2]:
                        hist_next[name][rows, weekday] = mean[len(rows):]
        return now, hist, hist_next

    def _featurize(self, queries: Sequence[GapQuery]) -> ExampleSet:
        for query in queries:
            self._validate(query)
        config = self.config
        L = config.window_minutes
        area_ids = np.array([q.area_id for q in queries], dtype=np.int64)
        day_ids = np.array([q.day for q in queries], dtype=np.int64)
        time_ids = np.array([q.timeslot for q in queries], dtype=np.int64)
        week_ids = np.array(
            [self.dataset.calendar.day_of_week(q.day) for q in queries],
            dtype=np.int64,
        )

        now, hist, hist_next = self._signals_grouped(queries, time_ids)

        environment = extract_environment(
            self.dataset, area_ids, day_ids, time_ids, L
        )

        gaps = self.dataset.gaps(
            area_ids, day_ids, time_ids, horizon=config.gap_minutes
        )
        example_set = ExampleSet(
            area_ids=area_ids,
            time_ids=time_ids,
            week_ids=week_ids,
            day_ids=day_ids,
            sd_now=now["sd"], sd_hist=hist["sd"], sd_hist_next=hist_next["sd"],
            lc_now=now["lc"], lc_hist=hist["lc"], lc_hist_next=hist_next["lc"],
            wt_now=now["wt"], wt_hist=hist["wt"], wt_hist_next=hist_next["wt"],
            weather_types=environment.weather_types,
            temperature=environment.temperature,
            pm25=environment.pm25,
            traffic=environment.traffic.astype(np.float32),
            gaps=gaps.astype(np.float32),
            window=L,
            n_areas=self.dataset.n_areas,
            scalers=dict(self.scalers),
        )
        apply_environment_scalers(example_set)
        return example_set
