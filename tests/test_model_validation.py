"""Tests for the measured model configuration."""

import pytest

from repro.btree import collect_statistics
from repro.btree.builder import warm_tree
from repro.model.params import TreeShape
from repro.model.validation import measured_model_config
from repro.simulator.config import SimulationConfig, run_seeds


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

    def test_shape_is_the_tree_the_runs_start_from(self, quick_config):
        """The measured tree is the one ``warm_tree`` lends the runs of
        ``quick_config``: grown from the run's derived build seed, not
        from the configuration's seed itself."""
        tree, _levels = warm_tree(run_seeds(quick_config.seed)[0],
                                  quick_config.n_items, quick_config.order,
                                  quick_config.mix.insert_share,
                                  quick_config.key_space)
        try:
            lent = TreeShape.from_statistics(collect_statistics(tree))
        finally:
            tree.rollback()
        assert measured_model_config(quick_config).shape == lent
