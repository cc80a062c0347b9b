"""Unit tests for the simulator configuration and service-time sampler."""

import random

import pytest

from repro.btree import MergePolicy, build_tree
from repro.errors import ConfigurationError
from repro.model.params import CostModel
from repro.simulator.config import SimulationConfig
from repro.simulator.costs import ServiceTimeSampler


class TestSimulationConfig:
    def test_defaults_match_paper(self):
        config = SimulationConfig()
        assert config.order == 13
        assert config.n_items == 40_000
        assert config.n_operations == 10_000
        assert config.costs.disk_cost == 5.0
        assert config.mix.q_search == 0.3

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(algorithm="three-phase-locking")

    def test_two_phase_locking_is_supported(self):
        config = SimulationConfig(algorithm="two-phase-locking",
                                  arrival_rate=0.01)
        assert config.algorithm == "two-phase-locking"

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(arrival_rate=0.0)

    def test_unknown_recovery_rejected(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(recovery="three-phase")

    def test_recovery_requires_optimistic(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(algorithm="link-type",
                             recovery="leaf-only-recovery")
        SimulationConfig(algorithm="optimistic-descent",
                         recovery="leaf-only-recovery")

    def test_merge_at_half_rejected_concurrently(self):
        merge_at_half = MergePolicy("merge-at-half", 1, 2)
        with pytest.raises(ConfigurationError):
            SimulationConfig(merge_policy=merge_at_half)
        with pytest.raises(ConfigurationError):
            build_tree(100, merge_policy=merge_at_half)

    def test_with_rate_and_seed(self):
        config = SimulationConfig()
        assert config.with_rate(0.7).arrival_rate == 0.7
        assert config.with_seed(9).seed == 9
        assert config.with_rate(0.7).order == config.order

    def test_scaled(self):
        config = SimulationConfig(n_operations=10_000,
                                  warmup_operations=500)
        small = config.scaled(0.1)
        assert small.n_operations == 1_000
        assert small.warmup_operations == 50
        tiny = config.scaled(0.0001)
        assert tiny.n_operations == 100  # floor

    def test_population_floor(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(max_population=0)


class TestServiceTimeSampler:
    def _sampler(self, disk_cost=5.0, in_memory=2, height_keys=5_000):
        rng = random.Random(1)
        tree = build_tree(height_keys, order=13, seed=1)
        costs = CostModel(disk_cost=disk_cost, in_memory_levels=in_memory)
        return ServiceTimeSampler(costs, tree, rng), tree, costs

    def _mean(self, draw, n=20_000):
        return sum(draw() for _ in range(n)) / n

    def test_search_means_follow_dilation(self):
        sampler, tree, costs = self._sampler()
        h = tree.height
        mean_root = self._mean(lambda: sampler.search(h))
        mean_leaf = self._mean(lambda: sampler.search(1))
        assert mean_root == pytest.approx(costs.se(h, h), rel=0.05)
        assert mean_leaf == pytest.approx(costs.se(1, h), rel=0.05)
        assert mean_leaf > mean_root

    def test_modify_and_split_means(self):
        sampler, tree, costs = self._sampler()
        h = tree.height
        assert self._mean(sampler.modify) == pytest.approx(
            costs.modify(h), rel=0.05)
        assert self._mean(lambda: sampler.split(1)) == pytest.approx(
            costs.sp(1, h), rel=0.05)
        assert self._mean(lambda: sampler.merge(1)) == pytest.approx(
            costs.mg(1, h), rel=0.05)

    def test_half_split_plus_post_approximates_full_split(self):
        """Link-type splits charge the node-local half under the node
        lock and the parent post under the parent lock; together they
        stay close to the lock-coupling Sp(i)."""
        sampler, tree, costs = self._sampler()
        h = tree.height
        combined = self._mean(
            lambda: sampler.half_split(1) + sampler.parent_post(2))
        assert combined == pytest.approx(costs.sp(1, h), rel=0.1)

    def test_transaction_remainder_mean(self):
        sampler, _tree, _costs = self._sampler()
        mean = self._mean(lambda: sampler.transaction_remainder(100.0),
                          n=30_000)
        assert mean == pytest.approx(100.0, rel=0.05)

    def test_zero_mean_is_zero(self):
        sampler, _tree, _costs = self._sampler()
        assert sampler.transaction_remainder(0.0) == 0.0

    def test_samples_are_exponential(self):
        """SCV of the samples ~ 1 (the paper's exponential services)."""
        sampler, _tree, _costs = self._sampler()
        xs = [sampler.search(1) for _ in range(30_000)]
        mean = sum(xs) / len(xs)
        var = sum((x - mean) ** 2 for x in xs) / (len(xs) - 1)
        assert var / mean**2 == pytest.approx(1.0, rel=0.1)
