"""Fixtures for serving tests: a tiny city plus trained checkpoints.

The session-scoped checkpoints are the expensive part (two short training
runs); tests that mutate the dataset via ``observe`` take a deep copy so
the shared simulation stays pristine.
"""

import copy

import pytest

from repro.city import simulate_city
from repro.config import tiny_scale
from repro.core import BasicDeepSD, Trainer, TrainingConfig
from repro.core.quantiles import attach_quantile_head, fit_quantile_head
from repro.features import FeatureBuilder


@pytest.fixture(scope="session")
def scale():
    return tiny_scale()


@pytest.fixture(scope="session")
def dataset(scale):
    return simulate_city(scale.simulation)


@pytest.fixture(scope="session")
def train_set(dataset, scale):
    return FeatureBuilder(dataset, scale.features).build()[0]


def _train_checkpoint(dataset, scale, train_set, directory, seed):
    model = BasicDeepSD(
        dataset.n_areas, scale.features.window_minutes, scale.embeddings, seed=seed
    )
    trainer = Trainer(model, TrainingConfig(epochs=2, best_k=2, seed=seed))
    trainer.fit(train_set, checkpoint_dir=str(directory), checkpoint_every=1)
    return trainer.last_checkpoint


@pytest.fixture(scope="session")
def checkpoint(dataset, scale, train_set, tmp_path_factory):
    """Primary trained checkpoint (seed 1)."""
    return _train_checkpoint(
        dataset, scale, train_set, tmp_path_factory.mktemp("ckpt_a"), seed=1
    )


@pytest.fixture(scope="session")
def other_checkpoint(dataset, scale, train_set, tmp_path_factory):
    """A second, differently-initialized checkpoint for hot-swap tests."""
    return _train_checkpoint(
        dataset, scale, train_set, tmp_path_factory.mktemp("ckpt_b"), seed=2
    )


@pytest.fixture(scope="session")
def q_checkpoint(dataset, scale, train_set, tmp_path_factory):
    """A trained checkpoint with a P10/P50/P90 head attached."""
    directory = tmp_path_factory.mktemp("ckpt_quantile")
    model = BasicDeepSD(
        dataset.n_areas, scale.features.window_minutes, scale.embeddings, seed=3
    )
    trainer = Trainer(model, TrainingConfig(epochs=2, best_k=2, seed=3))
    trainer.fit(train_set, checkpoint_dir=str(directory), checkpoint_every=1)
    head = fit_quantile_head(trainer, train_set, epochs=60)
    attach_quantile_head(trainer.last_checkpoint, head)
    return trainer.last_checkpoint


@pytest.fixture()
def mutable_dataset(dataset):
    """A private copy safe to mutate through ``PredictionService.observe``."""
    return copy.deepcopy(dataset)
