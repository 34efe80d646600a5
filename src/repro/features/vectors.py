"""Real-time feature vectors — Definitions 5, 6 and 7 of the paper.

For an area ``a`` at timeslot ``t`` on day ``d`` with window size ``L``:

- **supply-demand vector** ``V_sd`` (2L dims): the first L dims count the
  *valid* orders at each past minute ``t-ℓ`` (ℓ = 1…L), the last L dims the
  *invalid* orders;
- **last-call vector** ``V_lc``: counts passengers whose *last* call in
  ``[t-L, t)`` happened at ``t-ℓ``, split by whether that call was answered;
- **waiting-time vector** ``V_wt``: counts passengers by how long they
  waited between their first and last call inside the window, split by
  whether they were eventually served.  Waits are indexed 0…L-1 minutes
  (index 0 = served/gave up at the first call).

:class:`AreaDayProfile` precomputes per-minute structures for one
(area, day) so that extracting vectors for many timeslots is vectorised:

- the last-call vector needs, for each minute ``m`` and lag ``ℓ``, the
  number of orders at ``m`` whose passenger did not call again before
  ``m + ℓ``.  We bucket orders by their *next-call gap* and store suffix
  sums over the gap axis;
- the waiting-time vector needs counts of sessions by (first minute, wait,
  served); we store cumulative sums over the first-minute axis.

:func:`window_vectors` is the one extraction of Definitions 5–7 from those
tables.  It reads a table with a leading day axis, so it serves one
profile's tables and the summed tables of
:class:`repro.features.history.AreaHistory` alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..exceptions import DataError

if TYPE_CHECKING:  # pragma: no cover
    from ..city.dataset import CityDataset

from ..city.calendar import MINUTES_PER_DAY

#: The three real-time signals, in ExampleSet field order.
SIGNALS = ("sd", "lc", "wt")


def check_timeslots(timeslots, window: int) -> np.ndarray:
    """``timeslots`` as a 1-D int64 array, each in ``[window, 1440]``."""
    timeslots = np.asarray(timeslots, dtype=np.int64)
    if timeslots.ndim != 1:
        raise ValueError("timeslots must be a 1-D array")
    if timeslots.size and (
        timeslots.min() < window or timeslots.max() > MINUTES_PER_DAY
    ):
        raise DataError(
            f"timeslots must lie in [{window}, {MINUTES_PER_DAY}] so "
            "the lookback window fits in the day"
        )
    return timeslots


def window_vectors(
    signal: str, table: np.ndarray, days, timeslots, window: int
) -> np.ndarray:
    """One signal's vectors at ``(days[i], timeslots[i])`` from its table.

    ``table`` is the signal's :attr:`AreaDayProfile.tables` entry with a
    leading day axis; ``days`` and ``timeslots`` are integer arrays of one
    broadcast shape ``S`` with every timeslot in ``[window, 1440]``.
    Returns float64 ``S + (2L,)``.  Every vector is a gather (``V_wt`` a
    difference of two), so the vectors of a sum of days' tables are the
    sum of the days' vectors.
    """
    L = window
    days = np.asarray(days)[..., None, None]
    timeslots = np.asarray(timeslots)[..., None, None]
    steps = np.arange(L)
    # Flat offsets into the contiguous table: row [day, half] starts at
    # (2 * day + half) * per_half.
    flat = table.reshape(-1)
    per_half = table[0, 0].size
    start = (2 * days + np.arange(2)[:, None]) * per_half
    if signal == "wt":
        # Sessions with first call in [t-L, t-w) have their last call
        # (first + w) inside the window: table[day, half, w, t-w] minus
        # table[day, half, w, t-L].
        start = start + steps * table.shape[-1]
        out = flat.take(start + (timeslots - steps)) - flat.take(
            start + (timeslots - L)
        )
    elif signal == "lc":
        # table[day, half, t-ℓ, ℓ-1] for ℓ = 1…L.
        out = flat.take(start + (timeslots - 1 - steps) * L + steps)
    else:
        # table[day, half, t-ℓ].
        out = flat.take(start + (timeslots - 1 - steps))
    return out.reshape(out.shape[:-2] + (2 * L,))


class AreaDayProfile:
    """Precomputed per-minute signals for one (area, day).

    Parameters
    ----------
    dataset:
        The simulated city.
    area_id, day:
        Which area-day to profile.
    window:
        The paper's L — maximum lookback of any vector (paper: 20 minutes).

    :attr:`tables` maps each signal to its base table.  Half 0 of each is
    the valid/served part, half 1 the invalid/unserved part, and every
    entry is an integer count stored as float64:

    - ``"sd"`` ``(2, 1440)``: orders per minute;
    - ``"lc"`` ``(2, 1440, L)``: ``[v, m, ℓ-1]`` orders at minute ``m``
      whose passenger's next call is at least ``ℓ`` minutes later;
    - ``"wt"`` ``(2, L, 1441)``: ``[s, w, m]`` sessions with wait exactly
      ``w`` minutes and first call strictly before minute ``m``.
    """

    def __init__(self, dataset: "CityDataset", area_id: int, day: int, window: int):
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.area_id = area_id
        self.day = day
        self.window = window
        self.tables = {
            "sd": np.stack(
                [dataset.valid_counts[area_id, day],
                 dataset.invalid_counts[area_id, day]]
            ).astype(np.float64),
            "lc": self._last_call_table(dataset.area_day_orders(area_id, day)),
            "wt": self._waiting_time_table(dataset.area_day_sessions(area_id, day)),
        }

    # ------------------------------------------------------------------
    # Precomputation
    # ------------------------------------------------------------------

    def _last_call_table(self, orders: np.ndarray) -> np.ndarray:
        """Suffix counts over each order's next-call gap.

        Gaps are clamped to ``L + 1`` ("no further call before any horizon
        ≤ L", which also stands for no next call at all); the suffix sum
        over the gap axis at column ``ℓ`` counts gaps ``≥ ℓ``.
        """
        L = self.window
        n = len(orders)
        ts = orders["ts"].astype(np.int64)

        # Next call minute of the same passenger: orders of one passenger
        # are contiguous once sorted by (pid, ts).
        next_gap = np.full(n, L + 1, dtype=np.int64)  # "infinite"
        if n:
            sorter = np.lexsort((ts, orders["pid"]))
            sorted_ts = ts[sorter]
            sorted_pid = orders["pid"][sorter]
            next_gap_sorted = np.full(n, L + 1, dtype=np.int64)
            same_pid = sorted_pid[1:] == sorted_pid[:-1]
            gaps = sorted_ts[1:] - sorted_ts[:-1]
            next_gap_sorted[:-1][same_pid] = np.minimum(gaps[same_pid], L + 1)
            next_gap[sorter] = next_gap_sorted

        table = np.zeros((2, MINUTES_PER_DAY, L + 2), dtype=np.int64)
        np.add.at(table, ((~orders["valid"]).astype(np.int64), ts, next_gap), 1)
        suffix = table[..., ::-1].cumsum(axis=-1)[..., ::-1]
        return suffix[..., 1:L + 1].astype(np.float64)

    def _waiting_time_table(self, sessions: np.ndarray) -> np.ndarray:
        """Cumulative session counts over the first-call minute."""
        L = self.window
        first = sessions["first_ts"].astype(np.int64)
        wait = (sessions["last_ts"] - sessions["first_ts"]).astype(np.int64)
        unserved = (~sessions["served"]).astype(np.int64)
        in_range = wait < L  # longer waits cannot fit inside any window

        table = np.zeros((2, L, MINUTES_PER_DAY + 1), dtype=np.int64)
        np.add.at(
            table,
            (unserved[in_range], wait[in_range], first[in_range] + 1),
            1,
        )
        return table.cumsum(axis=-1).astype(np.float64)

    # ------------------------------------------------------------------
    # Vector extraction (batched over timeslots)
    # ------------------------------------------------------------------

    def _vectors(self, signal: str, timeslots) -> np.ndarray:
        timeslots = check_timeslots(timeslots, self.window)
        return window_vectors(
            signal, self.tables[signal][None], 0, timeslots, self.window
        )

    def supply_demand_vectors(self, timeslots: np.ndarray) -> np.ndarray:
        """``V_sd`` (Definition 5) for each timeslot — shape ``(T, 2L)``.

        Dimension ℓ-1 counts valid orders at ``t-ℓ``; dimension L+ℓ-1
        counts invalid orders at ``t-ℓ``.
        """
        return self._vectors("sd", timeslots)

    def last_call_vectors(self, timeslots: np.ndarray) -> np.ndarray:
        """``V_lc`` (Definition 6) for each timeslot — shape ``(T, 2L)``.

        Dimension ℓ-1 counts passengers whose last call in the window was a
        *valid* order at ``t-ℓ``; dimension L+ℓ-1 the invalid ones.  "Last
        call" means no further call by the same passenger before ``t``,
        i.e. the order's next-call gap is at least ℓ.
        """
        return self._vectors("lc", timeslots)

    def waiting_time_vectors(self, timeslots: np.ndarray) -> np.ndarray:
        """``V_wt`` (Definition 7) for each timeslot — shape ``(T, 2L)``.

        Dimension w counts passengers whose whole session (first to last
        call) fit inside ``[t-L, t)`` with a wait of exactly w minutes and
        who were eventually served; dimension L+w the unserved ones.
        """
        return self._vectors("wt", timeslots)

    # Single-timeslot conveniences -------------------------------------

    def supply_demand_vector(self, timeslot: int) -> np.ndarray:
        """``V_sd`` at one timeslot (length 2L)."""
        return self.supply_demand_vectors(np.array([timeslot]))[0]

    def last_call_vector(self, timeslot: int) -> np.ndarray:
        """``V_lc`` at one timeslot (length 2L)."""
        return self.last_call_vectors(np.array([timeslot]))[0]

    def waiting_time_vector(self, timeslot: int) -> np.ndarray:
        """``V_wt`` at one timeslot (length 2L)."""
        return self.waiting_time_vectors(np.array([timeslot]))[0]
