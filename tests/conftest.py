"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.model.params import (
    CostModel,
    ModelConfig,
    OperationMix,
    TreeShape,
    paper_default_config,
)
from repro.simulator.config import SimulationConfig


@pytest.fixture
def rng():
    """A deterministic RNG for sampling-based tests."""
    return random.Random(0xBEEF)


@pytest.fixture
def call_at():
    """``call_at(sim, delay, action)`` runs ``action`` after ``delay``.

    The call is a process that runs once and ends, so it costs one
    event and keeps its place in the FIFO order of equal-time events.
    """
    def schedule(sim, delay, action):
        def body():
            action()
            yield from ()
        return sim.spawn(body(), delay=delay)
    return schedule


@pytest.fixture
def paper_config() -> ModelConfig:
    """The Section 5.3 analytical configuration."""
    return paper_default_config()


@pytest.fixture
def memory_config() -> ModelConfig:
    """A fully-cached variant (disk cost 1)."""
    return paper_default_config(disk_cost=1.0)


@pytest.fixture
def small_shape_config() -> ModelConfig:
    """A small 3-level tree for fast analytical tests."""
    return ModelConfig(
        mix=OperationMix(q_search=0.3, q_insert=0.5, q_delete=0.2),
        costs=CostModel(disk_cost=2.0, in_memory_levels=1),
        shape=TreeShape.from_fanouts((8.0, 5.0)),
        order=11,
    )


@pytest.fixture
def quick_sim() -> SimulationConfig:
    """A small, fast simulator configuration."""
    return SimulationConfig(
        algorithm="naive-lock-coupling",
        arrival_rate=0.1,
        n_items=3_000,
        n_operations=400,
        warmup_operations=50,
        seed=11,
    )
