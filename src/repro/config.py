"""Configuration objects for simulation, featurization and experiments.

Three layers of configuration:

- :class:`SimulationConfig` — how the synthetic city is generated;
- :class:`FeatureConfig` — the paper's featurization constants (window size
  L, gap horizon C, embedding widths, train/test item protocol);
- :class:`ExperimentScale` — bundled presets (``paper``, ``bench``,
  ``tiny``) trading fidelity against CPU time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .exceptions import ConfigError


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of the synthetic city simulation."""

    n_areas: int = 58
    n_days: int = 52
    start_weekday: int = 0
    seed: int = 20170301
    base_demand_rate: float = 2.2
    supply_headroom: float = 1.6
    supply_lag_minutes: int = 15
    idle_persistence: float = 0.9
    max_idle_pool: int = 100
    retry_probability: float = 0.72
    retry_min_delay: int = 1
    retry_max_delay: int = 4
    retry_max_attempts: int = 4
    weather_coupling: float = 1.0
    traffic_coupling: float = 1.0
    events_per_week: float = 0.0

    def __post_init__(self) -> None:
        if self.n_areas <= 0:
            raise ConfigError(f"n_areas must be positive, got {self.n_areas}")
        if self.events_per_week < 0:
            raise ConfigError("events_per_week must be non-negative")
        if self.n_days <= 0:
            raise ConfigError(f"n_days must be positive, got {self.n_days}")
        if not 0 <= self.start_weekday < 7:
            raise ConfigError("start_weekday must be in [0, 7)")
        if self.base_demand_rate <= 0:
            raise ConfigError("base_demand_rate must be positive")


@dataclass(frozen=True)
class FeatureConfig:
    """The paper's featurization constants (Sections II, IV, VI).

    Attributes
    ----------
    window_minutes:
        L — how many past minutes feed the real-time vectors (paper: 20).
    gap_minutes:
        C — length of the prediction interval (paper: 10).
    train_days / test_days:
        Chronological split: the first ``train_days`` days are training,
        the following ``test_days`` are test (paper: 24 / 28).
    train_start_minute / train_stride_minutes:
        One training item per area every ``train_stride_minutes`` from
        ``train_start_minute`` to the end of day (paper: every 5 minutes
        from 0:20).
    test_start_minute / test_end_minute / test_stride_minutes:
        Test items every ``test_stride_minutes`` between the bounds
        (paper: every 2 hours from 7:30 to 23:30).
    projection_dim:
        Width of the projection space in the extended blocks (paper: 16).
    """

    window_minutes: int = 20
    gap_minutes: int = 10
    train_days: int = 24
    test_days: int = 28
    train_start_minute: int = 20
    train_stride_minutes: int = 5
    test_start_minute: int = 450   # 7:30
    test_end_minute: int = 1410    # 23:30
    test_stride_minutes: int = 120
    projection_dim: int = 16

    def __post_init__(self) -> None:
        if self.window_minutes <= 0 or self.gap_minutes <= 0:
            raise ConfigError("window_minutes and gap_minutes must be positive")
        if self.train_start_minute < self.window_minutes:
            raise ConfigError(
                "train_start_minute must be >= window_minutes so the lookback "
                "window fits inside the day"
            )
        if self.train_days <= 0 or self.test_days <= 0:
            raise ConfigError("train_days and test_days must be positive")
        if self.test_start_minute < self.window_minutes:
            raise ConfigError("test_start_minute must be >= window_minutes")
        if self.test_end_minute + self.gap_minutes > 1440:
            raise ConfigError("test_end_minute + gap_minutes must fit in the day")
        if self.train_stride_minutes <= 0 or self.test_stride_minutes <= 0:
            raise ConfigError("strides must be positive")

    @property
    def n_days(self) -> int:
        return self.train_days + self.test_days

    def train_timeslots(self) -> range:
        """Timeslots at which training items are generated each day."""
        return range(
            self.train_start_minute,
            1440 - self.gap_minutes + 1,
            self.train_stride_minutes,
        )

    def test_timeslots(self) -> range:
        """Timeslots at which test items are generated each day."""
        return range(
            self.test_start_minute,
            self.test_end_minute + 1,
            self.test_stride_minutes,
        )


@dataclass(frozen=True)
class EmbeddingConfig:
    """Embedding widths from the paper's Table I."""

    area_dim: int = 8
    time_dim: int = 6
    week_dim: int = 3
    weather_type_dim: int = 3
    time_vocab: int = 1440
    week_vocab: int = 7
    weather_type_vocab: int = 10

    def __post_init__(self) -> None:
        for name in ("area_dim", "time_dim", "week_dim", "weather_type_dim"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")


@dataclass(frozen=True)
class ExperimentScale:
    """A named bundle of simulation + feature configuration."""

    name: str
    simulation: SimulationConfig
    features: FeatureConfig
    embeddings: EmbeddingConfig = field(default_factory=EmbeddingConfig)

    def __post_init__(self) -> None:
        if self.simulation.n_days < self.features.n_days:
            raise ConfigError(
                f"simulation covers {self.simulation.n_days} days but the "
                f"feature split needs {self.features.n_days}"
            )


def paper_scale(seed: int = 20170301) -> ExperimentScale:
    """The paper's full protocol: 58 areas, 24+28 days, 5-minute items.

    Simulation and featurization take seconds and a training epoch about
    ten seconds on a CPU, so a full fit takes minutes.  Memory is the
    constraint: peak RSS is about 4 GB, most of it the materialized
    per-weekday history blocks of the train set.
    """
    return ExperimentScale(
        name="paper",
        simulation=SimulationConfig(n_areas=58, n_days=52, seed=seed),
        features=FeatureConfig(),
    )


def bench_scale(seed: int = 20170301) -> ExperimentScale:
    """Reduced scale for the benchmark harness: same protocol ratios.

    20 areas, 14 train + 7 test days, one training item every 30 minutes and
    one test item every 2 hours.  Small enough to train DeepSD on a CPU in
    minutes, large enough for the paper's comparisons to be meaningful.

    The training grid starts at 0:30 so that every test timeslot (7:30,
    9:30, …) is also a training timeslot — the paper's 5-minute training
    grid covers its test slots the same way, and TimeID embeddings are only
    trained for timeslots that occur in training items.
    """
    return ExperimentScale(
        name="bench",
        simulation=SimulationConfig(n_areas=20, n_days=21, seed=seed),
        features=FeatureConfig(
            train_days=14,
            test_days=7,
            train_start_minute=30,
            train_stride_minutes=30,
            test_stride_minutes=120,
        ),
    )


def tiny_scale(seed: int = 7) -> ExperimentScale:
    """Minimal scale for unit/integration tests (seconds, not minutes)."""
    return ExperimentScale(
        name="tiny",
        simulation=SimulationConfig(
            n_areas=6, n_days=10, seed=seed, base_demand_rate=1.2
        ),
        features=FeatureConfig(
            train_days=7,
            test_days=3,
            train_start_minute=30,
            train_stride_minutes=60,
            test_stride_minutes=240,
        ),
    )


SCALES = {
    "paper": paper_scale,
    "bench": bench_scale,
    "tiny": tiny_scale,
}


def get_scale(name: str, seed: int | None = None) -> ExperimentScale:
    """Look up a preset scale by name."""
    try:
        factory = SCALES[name]
    except KeyError:
        raise ConfigError(f"unknown scale {name!r}; known: {sorted(SCALES)}") from None
    return factory() if seed is None else factory(seed)


def with_seed(scale: ExperimentScale, seed: int) -> ExperimentScale:
    """Copy of ``scale`` with a different simulation seed."""
    return replace(scale, simulation=replace(scale.simulation, seed=seed))
