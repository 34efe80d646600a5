"""Per-weekday historical averages — Section V-A, first stage.

For each signal (supply-demand, last-call, waiting-time) the advanced model
consumes the seven *historical vectors* ``H^(Mon),d,t … H^(Sun),d,t``: the
average of the real-time vectors ``V^{m,t}`` over all prior days ``m < d``
that fall on each day of week.  The network then combines them with learned
softmax weights into the empirical estimate ``E^{d,t}``.

:class:`AreaHistory` holds, for one area, the same-weekday cumulative sums
of every day's :class:`~repro.features.vectors.AreaDayProfile` tables.  The
training featurizer (:class:`~repro.features.builder.FeatureBuilder`) and
the online one (:class:`~repro.core.predictor.GapPredictor`) both read
their real-time and historical vectors from it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

from ..city.calendar import DAYS_PER_WEEK
from .vectors import SIGNALS, AreaDayProfile, check_timeslots, window_vectors

if TYPE_CHECKING:  # pragma: no cover
    from ..city.dataset import CityDataset


def signal_arrays(n: int, window: int) -> Dict[str, np.ndarray]:
    """Zeroed float32 arrays for the nine ExampleSet signal fields of ``n``
    items: ``{signal}_now`` ``(n, 2L)``, ``{signal}_hist`` and
    ``{signal}_hist_next`` ``(n, 7, 2L)``."""
    arrays = {}
    for name in SIGNALS:
        arrays[f"{name}_now"] = np.zeros((n, 2 * window), dtype=np.float32)
        for part in ("hist", "hist_next"):
            arrays[f"{name}_{part}"] = np.zeros(
                (n, DAYS_PER_WEEK, 2 * window), dtype=np.float32
            )
    return arrays


class AreaHistory:
    """Same-weekday cumulative sums of one area's profile tables.

    Parameters
    ----------
    dataset:
        The simulated city.
    area_id:
        Which area.
    n_days:
        Days ``0 … n_days-1`` are summed; items may ask for any of them.
    window:
        The paper's L.
    reuse:
        A previous :class:`AreaHistory` whose arrays this one takes over and
        overwrites when its ``n_days`` and ``window`` match, so a pass over
        every area allocates its tables once.

    ``tables[signal][d]`` is the sum of :attr:`AreaDayProfile.tables`
    ``[signal]`` over days ``d, d-7, d-14, … ≥ 0``.  Every profile table
    holds integer counts in float64, so these sums, and the differences
    and window gathers taken from them, are exact:

    - the real-time vector at ``(d, t)`` comes from ``C[d] - C[d-7]``, the
      day's own table;
    - the historical vector for weekday ``w`` comes from ``C[m]``, with
      ``m`` the last day before ``d`` on weekday ``w``, divided by the
      number of days summed into it.  The one division and the float32
      cast are the only roundings, as in a mean of the days' vectors.
    """

    def __init__(
        self,
        dataset: "CityDataset",
        area_id: int,
        n_days: int,
        window: int,
        reuse: Optional["AreaHistory"] = None,
    ) -> None:
        self.area_id = area_id
        self.window = window
        self.start_weekday = dataset.calendar.start_weekday
        self.tables: Dict[str, np.ndarray] = {}
        if reuse is not None and (reuse.n_days, reuse.window) == (n_days, window):
            self.tables = reuse.tables
        for day in range(n_days):
            base = AreaDayProfile(dataset, area_id, day, window).tables
            for name in SIGNALS:
                if name not in self.tables:
                    self.tables[name] = np.empty((n_days,) + base[name].shape)
                table = self.tables[name]
                if day < DAYS_PER_WEEK:
                    table[day] = base[name]
                else:
                    np.add(base[name], table[day - DAYS_PER_WEEK], out=table[day])

    @property
    def n_days(self) -> int:
        return len(self.tables["sd"])

    def refresh_counts(self, dataset: "CityDataset", day: int) -> None:
        """Re-read ``day``'s per-minute order counts from ``dataset``.

        Only the ``"sd"`` table reads the counts; the last-call and
        waiting-time tables come from the order records and sessions, which
        an orders observation leaves alone.  The change is added to every
        sum that includes ``day``: ``C[day], C[day+7], …``.
        """
        sd = self.tables["sd"]
        fresh = np.stack(
            [dataset.valid_counts[self.area_id, day],
             dataset.invalid_counts[self.area_id, day]]
        )
        held = sd[day] - sd[day - DAYS_PER_WEEK] if day >= DAYS_PER_WEEK else sd[day]
        sd[day::DAYS_PER_WEEK] += fresh - held

    def fill(
        self,
        arrays: Dict[str, np.ndarray],
        rows: np.ndarray,
        days: np.ndarray,
        timeslots: np.ndarray,
        gap_minutes: int,
    ) -> None:
        """Write item vectors into ``arrays[field][rows]``.

        ``arrays`` maps ExampleSet signal fields (``sd_now``, ``sd_hist``,
        ``sd_hist_next``, …) to float32 arrays; only the fields present are
        computed.  Item ``i`` is ``(days[i], timeslots[i])``; its ``hist``
        is taken at ``t`` and its ``hist_next`` at ``t + gap_minutes``.
        """
        L = self.window
        days = np.asarray(days, dtype=np.int64)
        timeslots = check_timeslots(timeslots, L)
        check_timeslots(timeslots + gap_minutes, L)
        if days.size and (days.min() < 0 or days.max() >= self.n_days):
            raise ValueError(f"days must lie in [0, {self.n_days})")
        week = DAYS_PER_WEEK
        has_prior_week = (days >= week)[:, None]
        now_days = np.stack([days, np.maximum(days - week, 0)], axis=1)
        # Last day before d on each weekday w, and how many days of that
        # weekday its sum holds.  A weekday with no such day yet reads the
        # day-0 sums (finite, non-negative) and divides them by inf: its
        # history is exactly zero.
        lags = (days[:, None] + self.start_weekday - np.arange(week) - 1) % week + 1
        last = days[:, None] - lags
        divisor = np.where(last >= 0, last // week + 1, np.inf)[:, None, :, None]
        last = np.maximum(last, 0)[:, None, :]
        both_slots = np.stack([timeslots, timeslots + gap_minutes], axis=1)[:, :, None]

        for name in SIGNALS:
            table = self.tables[name]
            now = arrays.get(f"{name}_now")
            if now is not None:
                pair = window_vectors(name, table, now_days, timeslots[:, None], L)
                now[rows] = np.where(
                    has_prior_week, pair[:, 0] - pair[:, 1], pair[:, 0]
                )
            hist = arrays.get(f"{name}_hist")
            hist_next = arrays.get(f"{name}_hist_next")
            if hist is None and hist_next is None:
                continue
            # (n, 2, 7, 2L): [item, t or t + C, weekday]
            means = window_vectors(name, table, last, both_slots, L)
            means /= divisor
            if hist is not None:
                hist[rows] = means[:, 0]
            if hist_next is not None:
                hist_next[rows] = means[:, 1]
