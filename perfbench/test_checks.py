"""Self-tests of the benchmark's correctness checks.

Each check must pass on a correct output and fail on a deliberately
corrupted one.  Run from the root of a checkout::

    python3 -m pytest perfbench/test_checks.py -q
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import common  # noqa: E402

common.require_program()

import run  # noqa: E402
import wl_fleet  # noqa: E402

HORIZON = 10
SLOTS = [30, 60, 90]
TRAIN_DAYS = list(range(14))
TEST_DAYS = list(range(14, 21))


@pytest.fixture
def counts():
    rng = np.random.default_rng(0)
    return rng.poisson(0.4, size=(3, 21, 1440)).astype(np.int32)


def loop_labels(counts, days, slots):
    """The definition written as a loop: the reference for gap_labels."""
    return np.array(
        [
            counts[area, day, slot:slot + HORIZON].sum()
            for area in range(counts.shape[0])
            for day in days
            for slot in slots
        ]
    )


def test_gap_labels_match_the_definition(counts):
    np.testing.assert_array_equal(
        checks.gap_labels(counts, TEST_DAYS, SLOTS, HORIZON),
        loop_labels(counts, TEST_DAYS, SLOTS),
    )


def test_shifted_gap_label_fails(counts):
    labels = loop_labels(counts, TEST_DAYS, SLOTS).astype(np.float32)
    recomputed = checks.gap_labels(counts, TEST_DAYS, SLOTS, HORIZON)
    checks.check_labels(recomputed, labels)
    labels[7] += 1.0
    with pytest.raises(checks.CheckFailed, match="row 7"):
        checks.check_labels(recomputed, labels)


def test_historical_average_is_the_weekday_mean(counts):
    # Days 14..20 are Monday..Sunday; each has days d-7 and d-14 in training.
    mae = checks.historical_average_mae(
        counts, 0, TRAIN_DAYS, TEST_DAYS, SLOTS, HORIZON
    )
    gaps = loop_labels(counts, range(21), SLOTS).reshape(3, 21, len(SLOTS))
    estimate = (gaps[:, 0:7] + gaps[:, 7:14]) / 2.0
    assert mae == pytest.approx(np.abs(estimate - gaps[:, 14:21]).mean())


def test_mae_above_baseline_fails():
    checks.check_mae_beats_baseline(3.7, 5.2)
    with pytest.raises(checks.CheckFailed):
        checks.check_mae_beats_baseline(5.3, 5.2)
    with pytest.raises(checks.CheckFailed):
        checks.check_mae_beats_baseline(float("nan"), 5.2)


def result(gap, cached=False):
    return SimpleNamespace(gap=gap, cached=cached)


def test_missing_batch_row_fails():
    sent = [(0, 1, 30), (1, 1, 30), (2, 1, 30)]
    answers = [result(1.5), result(2.0), result(0.5)]
    checks.check_batch_answers(sent, answers, expect_cold=True)
    with pytest.raises(checks.CheckFailed, match="3 items"):
        checks.check_batch_answers(sent, answers[:2], expect_cold=True)


def test_cached_answer_to_a_new_query_fails():
    sent = [(0, 1, 30), (1, 1, 30)]
    with pytest.raises(checks.CheckFailed, match="cache"):
        checks.check_batch_answers(
            sent, [result(1.5), result(2.0, cached=True)], expect_cold=True
        )


def test_missing_http_batch_row_fails():
    payload = {"results": [{"gap": 1.0}, {"gap": 2.0}], "count": 2}
    checks.check_http_batch(200, payload, 2)
    short = {"results": [{"gap": 1.0}], "count": 1}
    with pytest.raises(checks.CheckFailed, match="got 1 results"):
        checks.check_http_batch(200, short, 2)
    with pytest.raises(checks.CheckFailed, match="503"):
        checks.check_http_batch(503, {"error": "unavailable"}, 2)


def test_stale_served_gap_fails():
    expected = {(0, 3, 40): 1.25, (1, 3, 40): 2.5, (1, 4, 40): 0.75}
    checks.check_equal(dict(expected), expected, "fleet")
    stale = dict(expected)
    stale[(1, 4, 40)] = 0.7500000000000001
    with pytest.raises(checks.CheckFailed, match=r"\(1, 4, 40\)"):
        checks.check_equal(stale, expected, "fleet")


def test_served_gap_off_by_more_than_rounding_fails():
    expected = np.array([1.0, 2.0, 3.0])
    checks.check_close(expected + 1e-7, expected, checks.SERVED_VS_BATCH_ATOL, "x")
    served = expected.copy()
    served[1] += 1e-3
    with pytest.raises(checks.CheckFailed, match="row 1"):
        checks.check_close(served, expected, checks.SERVED_VS_BATCH_ATOL, "x")


def test_applied_observation_changes_the_reference_city():
    """The reference city used against the fleet must actually carry the
    observations; a reference that ignored them would hide stale gaps."""
    from repro.city import simulate_city
    from repro.config import get_scale

    dataset = simulate_city(get_scale("tiny").simulation)
    area, day, minute = 1, 2, 300
    before = dataset.gap(area, day, minute, horizon=HORIZON)
    value = int(dataset.invalid_counts[area, day, minute]) + 3
    wl_fleet.apply_observation(
        dataset,
        {"kind": "orders", "area": area, "day": day, "minute": minute,
         "values": {"valid": 0, "invalid": value}},
    )
    rebuilt = wl_fleet.dataclasses.replace(dataset)
    assert rebuilt.gap(area, day, minute, horizon=HORIZON) == before + 3


def test_failed_operation_is_counted():
    tally = common.Tally()
    with tally.operation():
        pass
    with pytest.raises(checks.CheckFailed):
        with tally.operation():
            raise checks.CheckFailed("/predict answered 503")
    assert (tally.attempted, tally.failed) == (2, 1)


def test_order_replay_asks_once_per_order_in_time_order():
    n_areas, n_days = 3, 2
    orders = np.zeros((n_areas, n_days, 1440), dtype=np.int32)
    orders[0, 1, common.FIRST_SLOT] = 2
    orders[2, 1, common.FIRST_SLOT] = 1
    orders[1, 1, common.FIRST_SLOT + 5] = 3
    city = SimpleNamespace(
        valid_counts=orders, invalid_counts=orders, n_days=n_days
    )

    class StartAtDayOne:
        """A generator whose first two draws start the replay at day 1,
        slot FIRST_SLOT."""

        def __init__(self):
            self._draws = iter([1, common.FIRST_SLOT])

        def integers(self, *args):
            return next(self._draws)

        def shuffle(self, values):
            pass

    replay = wl_fleet.OrderReplay(city, StartAtDayOne())
    assert replay.last == (0, 1, common.FIRST_SLOT)
    asked = replay.queries(4) + replay.queries(8)
    slot = common.FIRST_SLOT
    assert asked[:6] == [(0, 1, slot)] * 4 + [(2, 1, slot)] * 2
    assert asked[6:] == [(1, 1, slot + 5)] * 6
    assert replay.last == (1, 1, slot + 5)


def test_runner_knows_every_manifest_workload():
    """A traced run fills its per-layer metrics from every workload, so the
    runner must know exactly the workloads ``BENCHMARK.json`` lists."""
    with open(os.path.join(common.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        listed = [workload["name"] for workload in json.load(handle)["workloads"]]
    assert sorted(run.WORKLOADS) == sorted(listed)
    assert run.manifest_metrics(trace=False)["setup_s"] == "s"
    assert "trace.overhead_pct" in run.manifest_metrics(trace=True)
