"""Online gap prediction for arbitrary (area, day, timeslot) queries.

The :class:`~repro.core.trainer.Trainer` predicts over pre-built
ExampleSets; a deployed scheduler instead asks "what is the gap going to be
in area a over the next ten minutes, *now*?".  :class:`GapPredictor` serves
that query shape: it featurizes on demand from a :class:`CityDataset`
through the same per-area :class:`~repro.features.history.AreaHistory`
tables the training featurizer uses (built on an area's first query and
kept) and runs the trained model.

This is the component the paper's conclusion describes deploying inside
Didi's scheduling system.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Sequence, Tuple

import numpy as np

from ..config import FeatureConfig
from ..exceptions import DataError
from ..features.builder import ExampleSet, apply_environment_scalers
from ..features.environment import extract_environment
from ..features.history import AreaHistory, signal_arrays
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
        # Warm featurization state: one AreaHistory per area, built on the
        # area's first query.  One lock covers building, reading and
        # updating them, so an orders observation never meets a half-built
        # or half-read table.
        self._histories: Dict[int, AreaHistory] = {}
        self._histories_lock = threading.Lock()

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

    def _history(self, area_id: int) -> AreaHistory:
        """The area's tables; the caller holds ``_histories_lock``."""
        history = self._histories.get(area_id)
        if history is None:
            history = AreaHistory(
                self.dataset, area_id, self.dataset.n_days, self.config.window_minutes
            )
            self._histories[area_id] = history
        return history

    def refresh_orders(self, area_id: int, day: int) -> int:
        """Re-read ``(area_id, day)``'s per-minute order counts.

        Call after writing the dataset's ``valid_counts``/``invalid_counts``
        for that area and day: the area's tables, if held, take the new
        counts in place (that day's real-time vectors and every later
        day's history).  Returns 1 if the area's tables were held, else 0.
        """
        with self._histories_lock:
            history = self._histories.get(area_id)
            if history is None:
                return 0
            history.refresh_counts(self.dataset, day)
            return 1

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

        # Only the signal arrays the model reads are filled; the rest stay
        # zero.
        signals = signal_arrays(len(queries), L)
        wanted = {
            name: signals[name]
            for name in self._trainer._input_fields()
            if name in signals
        }
        with self._histories_lock:
            for area in np.unique(area_ids):
                rows = np.flatnonzero(area_ids == area)
                self._history(int(area)).fill(
                    wanted, rows, day_ids[rows], time_ids[rows], config.gap_minutes
                )

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
            **signals,
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
