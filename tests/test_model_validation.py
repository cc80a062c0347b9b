"""Tests for the measured model configuration."""

import pytest

from repro.model.validation import measured_model_config
from repro.simulator.config import SimulationConfig


@pytest.fixture(scope="module")
def quick_config():
    return SimulationConfig(
        algorithm="naive-lock-coupling", arrival_rate=0.1,
        n_items=3_000, n_operations=500, warmup_operations=50, seed=21)


class TestMeasuredModelConfig:
    def test_shape_matches_simulator_tree(self, quick_config):
        config = measured_model_config(quick_config)
        assert config.order == quick_config.order
        assert config.mix == quick_config.mix
        assert config.height >= 3

    def test_deterministic(self, quick_config):
        a = measured_model_config(quick_config)
        b = measured_model_config(quick_config)
        assert a.shape == b.shape
