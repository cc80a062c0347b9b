"""Unit tests for model inputs (mix, cost model, tree shape)."""

import pytest

from repro.btree import build_tree, collect_statistics
from repro.errors import ConfigurationError
from repro.model.params import (
    CostModel,
    ModelConfig,
    OperationMix,
    PAPER_MIX,
    TreeShape,
    paper_default_config,
)


class TestOperationMix:
    def test_paper_mix(self):
        assert PAPER_MIX.q_search == 0.3
        assert PAPER_MIX.q_update == pytest.approx(0.7)
        assert PAPER_MIX.insert_share == pytest.approx(5.0 / 7.0)
        assert PAPER_MIX.delete_share == pytest.approx(2.0 / 7.0)
        assert PAPER_MIX.grows()

    def test_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            OperationMix(0.5, 0.5, 0.5)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            OperationMix(1.2, -0.1, -0.1)

    def test_pure_search(self):
        mix = OperationMix(1.0, 0.0, 0.0)
        assert mix.q_update == 0.0
        assert mix.insert_share == 0.0
        assert mix.delete_share == 0.0
        assert not mix.grows()


class TestCostModel:
    def test_paper_costs(self):
        costs = CostModel(disk_cost=5.0, in_memory_levels=2)
        h = 5
        # Top two levels cached, lower three on disk.
        assert costs.se(5, h) == 1.0
        assert costs.se(4, h) == 1.0
        assert costs.se(3, h) == 5.0
        assert costs.se(1, h) == 5.0
        assert costs.modify(h) == 10.0      # 2 * Se(1)
        assert costs.sp(1, h) == 15.0       # 3 * Se(1)
        assert costs.sp(5, h) == 3.0
        assert costs.mg(1, h) == 15.0

    def test_all_cached(self):
        costs = CostModel(disk_cost=5.0, in_memory_levels=10)
        assert all(costs.se(level, 5) == 1.0 for level in range(1, 6))

    def test_disk_cost_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(disk_cost=0.5)

    def test_nonpositive_search_time_rejected(self):
        with pytest.raises(ConfigurationError):
            CostModel(node_search_time=0.0)


class TestTreeShape:
    def test_ideal_paper_shape(self):
        shape = TreeShape.ideal(40_000, 13)
        assert shape.height == 5
        assert 4 <= shape.root_fanout <= 9
        assert shape.fanout(2) == pytest.approx(0.69 * 13, rel=0.02)

    def test_ideal_tiny(self):
        shape = TreeShape.ideal(5, 13)
        assert shape.height == 1
        assert shape.root_fanout == 1.0

    def test_ideal_root_fanout_clamped(self):
        """Configurations whose top level would have fanout < 2 clamp to
        the real-tree minimum of 2."""
        shape = TreeShape.ideal(40_000, 43)
        assert shape.root_fanout >= 2.0

    def test_nodes_at_and_arrival_share(self):
        shape = TreeShape.from_fanouts((8.0, 4.0))
        assert shape.height == 3
        assert shape.nodes_at(3) == 1.0
        assert shape.nodes_at(2) == 4.0
        assert shape.nodes_at(1) == 32.0
        assert shape.arrival_share(1) == pytest.approx(1.0 / 32.0)
        assert shape.arrival_share(3) == 1.0

    def test_from_statistics_matches_tree(self):
        tree = build_tree(3_000, order=7, seed=1)
        stats = collect_statistics(tree)
        shape = TreeShape.from_statistics(stats)
        assert shape.height == tree.height
        assert shape.root_fanout == stats.root_fanout

    def test_fanout_bounds_checked(self):
        shape = TreeShape.from_fanouts((8.0,))
        with pytest.raises(ConfigurationError):
            shape.fanout(1)
        with pytest.raises(ConfigurationError):
            shape.fanout(3)

    def test_mismatched_fanout_count_rejected(self):
        with pytest.raises(ConfigurationError):
            TreeShape(height=3, _fanouts=(8.0,))

    def test_fanout_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            TreeShape.from_fanouts((0.5,))


class TestModelConfig:
    def test_paper_default(self):
        config = paper_default_config()
        assert config.height == 5
        assert config.order == 13
        assert config.costs.disk_cost == 5.0

    def test_with_disk_cost(self):
        config = paper_default_config().with_disk_cost(10.0)
        assert config.costs.disk_cost == 10.0
        assert config.order == 13  # untouched

    def test_tiny_order_rejected(self):
        with pytest.raises(ConfigurationError):
            ModelConfig(mix=PAPER_MIX, costs=CostModel(),
                        shape=TreeShape.ideal(100, 13), order=2)
