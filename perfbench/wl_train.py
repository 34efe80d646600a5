"""Workload ``train``: offline training of AdvancedDeepSD at bench scale.

Set-up simulates the bench city and featurizes it.  One round is one
``Trainer.fit`` of :data:`EPOCHS` epochs with per-epoch evaluation on the
test split, ensembling the best :data:`BEST_K` epochs, followed by
scoring the ensemble on the test split :data:`SCORES` times.  The run repeats whole rounds
until ``seconds`` have passed.  ``--seed`` seeds the model's initial
weights, dropout and the minibatch shuffle, so every round of one run
computes the same model.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from repro.city import simulate_city
from repro.config import get_scale
from repro.core import AdvancedDeepSD, Trainer, TrainingConfig
from repro.features import FeatureBuilder
from repro.obs import configure_tracing

import checks
import common

#: Long enough that the first epoch of a fit, which also traces the
#: execution tapes, is under 5 % of the epochs a run times, so the p95
#: epoch latency falls among steady epochs; short enough that a run ends
#: soon after its measuring time.  The ensemble keeps the paper's best 10.
EPOCHS = 30
BEST_K = 10
#: Ensemble scorings of the test split per round, timed one by one.
SCORES = 4


def run(started: float, seed: int, seconds: float, trace: bool) -> dict:
    scale = get_scale(common.SCALE)
    features = scale.features
    t = time.perf_counter()
    dataset = simulate_city(scale.simulation)
    simulate_s = time.perf_counter() - t
    t = time.perf_counter()
    train_set, test_set = FeatureBuilder(dataset, features).build()
    build_s = time.perf_counter() - t
    setup_s = time.perf_counter() - started

    test_days = range(features.train_days, features.n_days)
    test_slots = list(features.test_timeslots())
    checks.check_labels(
        checks.gap_labels(
            dataset.invalid_counts, test_days, test_slots, features.gap_minutes
        ),
        test_set.gaps,
    )
    baseline_mae = checks.historical_average_mae(
        dataset.invalid_counts,
        dataset.calendar.start_weekday,
        range(features.train_days),
        test_days,
        test_slots,
        features.gap_minutes,
    )

    tracer = configure_tracing(enabled=False, capacity=1 << 17)
    # Epoch latencies, apart for traced rounds: the median over epochs is
    # robust to short stalls of a shared machine.
    epoch_ms = {False: [], True: []}
    predict_s = []
    reference = None
    rounds = 0
    t_run = time.perf_counter()
    # A traced run alternates untraced and traced rounds, so the tracing
    # overhead is measured on the same process, city and seed.
    while (
        time.perf_counter() - t_run < seconds
        or rounds == 0
        or (trace and rounds % 2)
    ):
        traced = trace and rounds % 2 == 1
        tracer.enabled = traced
        with common.TALLY.operation():
            model = AdvancedDeepSD(
                dataset.n_areas,
                features.window_minutes,
                scale.embeddings,
                dropout=common.DROPOUT,
                seed=seed,
            )
            trainer = Trainer(
                model,
                TrainingConfig(epochs=EPOCHS, best_k=BEST_K, seed=seed),
            )
            marks = []
            t_fit = time.perf_counter()
            trainer.fit(
                train_set,
                eval_set=test_set,
                callback=lambda epoch, history: marks.append(time.perf_counter()),
            )
            # An epoch: the span between two callbacks, one training pass
            # and the epoch's evaluation + best-k update.
            previous = t_fit
            for mark in marks:
                epoch_ms[traced].append(1000.0 * (mark - previous))
                previous = mark
            for _ in range(SCORES):
                t = time.perf_counter()
                predictions = trainer.predict(test_set)
                predict_s.append(time.perf_counter() - t)
                if reference is None:
                    reference = predictions
                elif not np.array_equal(predictions, reference):
                    raise checks.CheckFailed(
                        "fits with the same seed and data scored differently"
                    )
        rounds += 1
    tracer.enabled = False
    # Peak memory of set-up and the measured loop, before any check runs.
    peak_rss_mb = common.own_peak_rss_mb()

    mae = float(np.abs(reference - test_set.gaps).mean())
    checks.check_mae_beats_baseline(mae, baseline_mae)
    items = train_set.n_items

    if trace:
        spans = common.SpanTotals()
        spans.add(common.spans_of(tracer))
        minibatches = spans.count["train.forward"]
        metrics = {
            "city.simulate_s": (simulate_s, "s"),
            "features.build_s": (build_s, "s"),
            "trainer.epoch_s": (spans.mean_ms("train.epoch") / 1000.0, "s"),
            "trainer.gather_ms": (
                1000.0 * spans.seconds["train.batch_gather"] / minibatches, "ms"
            ),
            "trainer.forward_ms": (spans.mean_ms("train.forward"), "ms"),
            "trainer.backward_ms": (spans.mean_ms("train.backward"), "ms"),
            "trainer.optim_ms": (spans.mean_ms("train.optim.step"), "ms"),
            "trainer.eval_s": (statistics.median(predict_s), "s"),
            "trace.overhead_pct": (
                common.overhead_pct(
                    1.0 / statistics.median(epoch_ms[False]),
                    1.0 / statistics.median(epoch_ms[True]),
                ),
                "%",
            ),
        }
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (
                1000.0 * items / statistics.median(epoch_ms[False]), "items/s"
            ),
            "latency_p50_ms": (float(np.quantile(epoch_ms[False], 0.50)), "ms"),
            "latency_p95_ms": (float(np.quantile(epoch_ms[False], 0.95)), "ms"),
            "observe_p50_ms": (1000.0 * statistics.median(predict_s), "ms"),
            "test_mae": (mae, "orders"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    return {
        "attempted": common.TALLY.attempted,
        "failed": common.TALLY.failed,
        "metrics": metrics,
        "notes": {
            "baseline_mae": baseline_mae,
            "epoch_samples": len(epoch_ms[False]) + len(epoch_ms[True]),
            "train_items": train_set.n_items,
        },
    }
