"""Shared plumbing for the benchmark workloads.

Everything here runs inside the checkout the benchmark was started from:
the program is imported from ``<checkout>/src``, and every file the
benchmark writes goes under ``perfbench/.work/`` (git-ignored).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH_DIR, ".work")

#: The scale every workload runs at: 20 areas, 14 training + 7 test days.
SCALE = "bench"
DROPOUT = 0.1
#: The checkpoint the serving workloads load: AdvancedDeepSD trained for
#: a few epochs with a fixed seed (the served model is part of the
#: program under test, not a workload input).
FIXTURE_EPOCHS = 8
FIXTURE_BEST_K = 8
FIXTURE_MODEL_SEED = 1
#: Every query's lookback window must fit in the day: slots [L, 1440 - C].
#: Slot ``WARM_SLOT`` is reserved for the set-up calls that warm the
#: per-(area, day) profiles, so the measured streams never ask it.
WARM_SLOT = 20
FIRST_SLOT = 21
LAST_SLOT = 1430
#: ``predict_batch`` calls per round of the serving workloads.
BATCH_CALLS = 12


class BenchError(RuntimeError):
    """The benchmark cannot run here (for example, no program source)."""


class Tally:
    """Operations the run attempted and how many of them failed, kept
    outside the workload so ``run.py`` can report them when a check stops
    the run part-way."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def operation(self):
        """Count one operation; it failed if its block raises."""
        self.attempted += 1
        try:
            yield
        except Exception:
            self.failed += 1
            raise


TALLY = Tally()


def require_program() -> None:
    """Put ``<checkout>/src`` on the import path, or fail loudly."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(
            f"no program source at {SRC}: run the benchmark from the root "
            "of a full checkout"
        )
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def work_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    os.makedirs(path, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Fixture: the city and checkpoint the serving workloads load
# ----------------------------------------------------------------------


def _source_digest() -> str:
    """Digest of the program source, so a fixture is never reused across
    code changes (the checkpoint must come from the program under test)."""
    digest = hashlib.blake2b(digest_size=8)
    digest.update(
        f"{SCALE}:{FIXTURE_EPOCHS}:{FIXTURE_BEST_K}:{DROPOUT}:{FIXTURE_MODEL_SEED}"
        .encode()
    )
    for base, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def fixture() -> Dict[str, object]:
    """Paths of the fixture city and checkpoint, building them if needed.

    Returns ``{"city": path, "checkpoint": dir, "build_s": seconds}``;
    ``build_s`` is 0.0 when an existing fixture was reused.  The build
    runs in a child process, so the caller's peak memory stays its own.
    """
    target = os.path.join(WORK, "fixture", _source_digest())
    paths = {
        "city": os.path.join(target, "city.npz"),
        "checkpoint": os.path.join(target, "ckpt"),
        "build_s": 0.0,
    }
    if not os.path.isfile(os.path.join(paths["checkpoint"], "latest.json")):
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), target], check=True
        )
        paths["build_s"] = time.perf_counter() - started
    return paths


def _build_fixture(target: str) -> None:
    """A bench-scale city at the preset seed and an AdvancedDeepSD
    checkpoint trained on it by :class:`repro.core.Trainer` — the same
    path as ``repro train --checkpoint-dir``.  Written to a staging
    directory and renamed into place, so a killed build leaves nothing
    that looks complete."""
    from repro.city import simulate_city
    from repro.config import get_scale
    from repro.core import AdvancedDeepSD, Trainer, TrainingConfig
    from repro.features import FeatureBuilder

    root = os.path.dirname(target)
    os.makedirs(root, exist_ok=True)
    for stale in os.listdir(root):
        shutil.rmtree(os.path.join(root, stale), ignore_errors=True)
    staging = f"{target}.tmp"
    os.makedirs(staging)
    scale = get_scale(SCALE)
    dataset = simulate_city(scale.simulation)
    dataset.save(os.path.join(staging, "city.npz"))
    train_set, test_set = FeatureBuilder(dataset, scale.features).build()
    model = AdvancedDeepSD(
        dataset.n_areas,
        scale.features.window_minutes,
        scale.embeddings,
        dropout=DROPOUT,
        seed=FIXTURE_MODEL_SEED,
    )
    Trainer(
        model,
        TrainingConfig(
            epochs=FIXTURE_EPOCHS, best_k=FIXTURE_BEST_K, seed=FIXTURE_MODEL_SEED
        ),
    ).fit(train_set, eval_set=test_set, checkpoint_dir=os.path.join(staging, "ckpt"))
    os.replace(staging, target)


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------


def batch_sizes(rng: np.random.Generator) -> np.ndarray:
    """One batch size from each of :data:`BATCH_CALLS` equal strata of
    [1, 64]: every round spans the same spread, the sizes are seeded."""
    strata = np.arange(BATCH_CALLS) * 64 + rng.integers(0, 64, size=BATCH_CALLS)
    return 1 + strata // BATCH_CALLS


def decode_query(index: int, n_days: int) -> tuple:
    """The (area, day, slot) query numbered ``index`` in the space of
    measured queries, which leaves out the warm-up slot."""
    n_slots = LAST_SLOT - FIRST_SLOT + 1
    return (
        int(index // (n_days * n_slots)),
        int(index // n_slots % n_days),
        FIRST_SLOT + int(index % n_slots),
    )


def query_space(n_areas: int, n_days: int) -> int:
    return n_areas * n_days * (LAST_SLOT - FIRST_SLOT + 1)


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def own_peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, read from /proc."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> List[int]:
    """Live direct children of ``pid`` (scanned from /proc)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


# ----------------------------------------------------------------------
# Spans recorded by the program's tracer
# ----------------------------------------------------------------------


class SpanTotals:
    """Running per-name totals of completed spans: count, seconds, and
    the sum of one numeric attribute (rows, items, ...)."""

    def __init__(self) -> None:
        self.count: Dict[str, int] = {}
        self.seconds: Dict[str, float] = {}
        self.attr_sum: Dict[str, float] = {}

    def add(self, spans, attr: Optional[str] = None) -> None:
        for span in spans:
            self.count[span.name] = self.count.get(span.name, 0) + 1
            self.seconds[span.name] = self.seconds.get(span.name, 0.0) + span.duration
            if attr is not None and attr in span.attrs:
                self.attr_sum[span.name] = (
                    self.attr_sum.get(span.name, 0.0) + float(span.attrs[attr])
                )

    def mean_ms(self, name: str) -> float:
        return 1000.0 * self.seconds[name] / self.count[name]

    def per_attr_us(self, name: str) -> float:
        return 1e6 * self.seconds[name] / self.attr_sum[name]


def spans_of(tracer) -> list:
    """Every span the tracer recorded; raises if its ring wrapped, since
    lost spans would bias every mean taken from the rest."""
    if tracer.dropped:
        raise BenchError(
            f"tracer ring wrapped ({tracer.dropped} spans lost); give it "
            "more capacity"
        )
    return tracer.spans()


def overhead_pct(untraced_rate: float, traced_rate: float) -> float:
    """Tracing overhead: how much slower the traced rounds ran, in %."""
    return 100.0 * (untraced_rate / traced_rate - 1.0)


def write_result(name: str, payload: dict) -> None:
    """Keep a copy of each run's result next to the other run outputs."""
    path = os.path.join(work_dir("results"), f"{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)


if __name__ == "__main__":
    require_program()
    _build_fixture(sys.argv[1])
