"""Unit tests for the Naive Lock-coupling analysis (Theorems 1-5)."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.model.lock_coupling import analyze_lock_coupling
from repro.model.occupancy import OccupancyModel
from repro.model.params import (
    CostModel,
    ModelConfig,
    OperationMix,
    TreeShape,
    paper_default_config,
)


class TestLowLoadLimits:
    def test_response_approaches_serial_time(self, paper_config):
        """As lambda -> 0 the response times approach the no-contention
        service times of Theorem 5."""
        p = analyze_lock_coupling(paper_config, 1e-6)
        costs, h = paper_config.costs, paper_config.height
        serial_search = sum(costs.se(level, h) for level in range(1, h + 1))
        assert p.response("search") == pytest.approx(serial_search, rel=1e-3)
        serial_delete = costs.modify(h) + sum(
            costs.se(level, h) for level in range(2, h + 1))
        assert p.response("delete") == pytest.approx(serial_delete, rel=1e-3)
        # Inserts additionally pay the expected split work.
        assert p.response("insert") > serial_delete

    def test_pure_search_has_no_waiting(self):
        """q_s = 1: no writers anywhere, so waits vanish at any load."""
        config = paper_default_config(
            mix=OperationMix(1.0, 0.0, 0.0))
        p = analyze_lock_coupling(config, 0.5)
        assert all(level.rho_w == 0.0 for level in p.levels)
        assert all(level.R == 0.0 for level in p.levels)
        costs, h = config.costs, config.height
        serial = sum(costs.se(level, h) for level in range(1, h + 1))
        assert p.response("search") == pytest.approx(serial)


class TestLoadBehaviour:
    def test_response_monotone_in_arrival_rate(self, paper_config):
        rates = (0.05, 0.15, 0.3, 0.45, 0.55)
        for op in ("search", "insert", "delete"):
            responses = [analyze_lock_coupling(paper_config, r).response(op)
                         for r in rates]
            assert all(a < b for a, b in zip(responses, responses[1:]))

    def test_root_utilization_monotone(self, paper_config):
        rhos = [analyze_lock_coupling(paper_config, r).root_writer_utilization
                for r in (0.1, 0.2, 0.3, 0.4, 0.5)]
        assert all(a < b for a, b in zip(rhos, rhos[1:]))

    def test_root_is_the_bottleneck(self, paper_config):
        """Lock-coupling makes the root the most utilised queue
        (paper Theorem 2)."""
        p = analyze_lock_coupling(paper_config, 0.4)
        assert p.root_writer_utilization == pytest.approx(
            p.max_writer_utilization)

    def test_saturation_produces_unstable_prediction(self, paper_config):
        p = analyze_lock_coupling(paper_config, 5.0)
        assert not p.stable
        assert p.saturated_level is not None
        assert p.response("insert") == math.inf
        assert p.root_writer_utilization == math.inf

    def test_insert_costlier_than_search(self, paper_config):
        p = analyze_lock_coupling(paper_config, 0.3)
        assert p.response("insert") > p.response("search")

    def test_w_wait_exceeds_r_wait(self, paper_config):
        p = analyze_lock_coupling(paper_config, 0.3)
        for level in p.levels:
            assert level.W >= level.R


class TestStructure:
    def test_level_solutions_cover_all_levels(self, paper_config):
        p = analyze_lock_coupling(paper_config, 0.2)
        assert [level.level for level in p.levels] == [1, 2, 3, 4, 5]

    def test_arrival_rates_thin_by_fanout(self, paper_config):
        """Proposition 2: each level's arrival rate is the level above
        divided by the fanout."""
        p = analyze_lock_coupling(paper_config, 0.2)
        for below, above in zip(p.levels, p.levels[1:]):
            ratio = ((above.lambda_r + above.lambda_w)
                     / (below.lambda_r + below.lambda_w))
            assert ratio == pytest.approx(
                paper_config.shape.fanout(above.level), rel=1e-9)

    def test_reader_writer_split_follows_mix(self, paper_config):
        p = analyze_lock_coupling(paper_config, 0.2)
        mix = paper_config.mix
        for level in p.levels:
            assert level.lambda_r / (level.lambda_r + level.lambda_w) \
                == pytest.approx(mix.q_search)

    def test_single_level_tree(self):
        config = ModelConfig(
            mix=OperationMix(0.3, 0.5, 0.2),
            costs=CostModel(disk_cost=1.0),
            shape=TreeShape(height=1), order=13)
        p = analyze_lock_coupling(config, 0.05)
        assert p.stable
        assert len(p.levels) == 1


class TestOptions:
    def test_custom_occupancy(self, paper_config):
        """Higher split probabilities raise insert response times."""
        calm = analyze_lock_coupling(
            paper_config, 0.2,
            occupancy=OccupancyModel.uniform(0.01, paper_config.height))
        hot = analyze_lock_coupling(
            paper_config, 0.2,
            occupancy=OccupancyModel.uniform(0.4, paper_config.height))
        assert hot.response("insert") > calm.response("insert")

    def test_hyperexponential_predicts_more_waiting(self, paper_config):
        """Ignoring the service-time variance underestimates the lock
        waits: above the leaves, Theorem 3's wait exceeds Theorem 4's
        exponential approximation on the same queue solution (the
        leaves use Theorem 4 itself)."""
        prediction = analyze_lock_coupling(paper_config, 0.45)
        for level in prediction.levels:
            drain = level.rho_w * level.r_u + (1.0 - level.rho_w) * level.r_e
            exponential = (level.rho_w / (1.0 - level.rho_w)
                           * (1.0 / level.mu_w + drain))
            if level.level == 1:
                assert level.R == pytest.approx(exponential)
            else:
                assert level.R > exponential

    def test_nonpositive_rate_rejected(self, paper_config):
        with pytest.raises(ConfigurationError):
            analyze_lock_coupling(paper_config, 0.0)

    def test_disk_cost_slows_everything(self, paper_config):
        slow = analyze_lock_coupling(paper_config.with_disk_cost(10.0), 0.1)
        fast = analyze_lock_coupling(paper_config.with_disk_cost(1.0), 0.1)
        for op in ("search", "insert", "delete"):
            assert slow.response(op) > fast.response(op)
