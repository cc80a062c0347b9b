"""Unit tests for the full-version extensions: Two-Phase Locking and
LRU buffering (both promised in the paper's conclusions)."""

import pytest

from repro.errors import ConfigurationError
from repro.model import (
    analyze_link,
    analyze_lock_coupling,
    analyze_optimistic,
    analyze_two_phase,
    max_throughput,
    paper_default_config,
)
from repro.model.buffering import (
    buffered_config,
    buffered_cost_model,
    pages_for_top_levels,
    plan_buffer,
)
from repro.model.params import CostModel


class TestTwoPhaseLocking:
    def test_far_worse_than_naive_lock_coupling(self, paper_config):
        """2PL is the restrictive baseline: lock-coupling's early
        releases buy an order of magnitude of throughput."""
        two_phase = max_throughput(analyze_two_phase, paper_config)
        naive = max_throughput(analyze_lock_coupling, paper_config)
        assert naive > 8.0 * two_phase

    def test_full_ordering(self, paper_config):
        """2PL < Naive LC < Optimistic < Link — the complete spectrum."""
        peaks = [max_throughput(analyzer, paper_config)
                 for analyzer in (analyze_two_phase, analyze_lock_coupling,
                                  analyze_optimistic, analyze_link)]
        assert all(a < b for a, b in zip(peaks, peaks[1:]))

    def test_holds_compose_down_the_path(self, paper_config):
        """A level-i lock is held for the whole remaining descent, so
        hold times grow (rather than shrink) toward the root."""
        p = analyze_two_phase(paper_config, 0.01)
        holds = [1.0 / level.mu_w for level in p.levels]
        assert all(a < b for a, b in zip(holds, holds[1:]))

    def test_matches_naive_at_the_leaf_queue(self, paper_config):
        """Leaf-level writer service is the same leaf work in both
        protocols (plus 2PL's split charge)."""
        rate = 0.01
        two_phase = analyze_two_phase(paper_config, rate)
        naive = analyze_lock_coupling(paper_config, rate)
        assert 1.0 / two_phase.level(1).mu_w \
            >= 1.0 / naive.level(1).mu_w

    def test_response_monotone_and_saturates(self, paper_config):
        responses = [analyze_two_phase(paper_config, r).response("search")
                     for r in (0.005, 0.015, 0.03)]
        assert all(a < b for a, b in zip(responses, responses[1:]))
        assert not analyze_two_phase(paper_config, 0.1).stable

    def test_nonpositive_rate_rejected(self, paper_config):
        with pytest.raises(ConfigurationError):
            analyze_two_phase(paper_config, 0.0)


class TestBufferPlan:
    def test_zero_buffer_all_misses(self, paper_config):
        plan = plan_buffer(paper_config.shape, 0)
        assert all(h == 0.0 for h in plan.hit_rates)

    def test_huge_buffer_all_hits(self, paper_config):
        plan = plan_buffer(paper_config.shape, 10**6)
        assert all(h == 1.0 for h in plan.hit_rates)

    def test_allocation_is_top_down(self, paper_config):
        """The root caches before level 4, level 4 before level 3..."""
        frames = pages_for_top_levels(paper_config.shape, 2)
        plan = plan_buffer(paper_config.shape, frames)
        h = paper_config.height
        assert plan.hit_rates[h - 1] == 1.0
        assert plan.hit_rates[h - 2] == pytest.approx(1.0, abs=0.02)
        assert plan.hit_rates[0] == 0.0

    def test_partial_level_gets_fractional_hits(self, paper_config):
        shape = paper_config.shape
        frames = shape.nodes_at(5) + shape.nodes_at(4) + \
            0.5 * shape.nodes_at(3)
        plan = plan_buffer(shape, frames)
        assert plan.hit_rates[2] == pytest.approx(0.5)

    def test_hit_rates_monotone_in_level(self, paper_config):
        plan = plan_buffer(paper_config.shape, 40)
        assert all(a <= b for a, b in
                   zip(plan.hit_rates, plan.hit_rates[1:]))

    def test_hit_rates_monotone_in_buffer_size(self, paper_config):
        # Overall hit rate: a uniformly chosen descent access.
        plans = [plan_buffer(paper_config.shape, frames)
                 for frames in (0, 10, 100, 1_000, 10_000)]
        overall = [sum(plan.hit_rates) / len(plan.hit_rates)
                   for plan in plans]
        assert all(a <= b for a, b in zip(overall, overall[1:]))

    def test_negative_buffer_rejected(self, paper_config):
        with pytest.raises(ConfigurationError):
            plan_buffer(paper_config.shape, -1)


class TestBufferedCostModel:
    def test_dilations_interpolate_disk_cost(self, paper_config):
        costs = buffered_cost_model(paper_config.costs, paper_config.shape,
                                    buffer_pages=40)
        h = paper_config.height
        assert costs.se(h, h) == pytest.approx(1.0)          # root cached
        assert costs.se(1, h) == pytest.approx(
            paper_config.costs.disk_cost)                    # leaves cold
        assert 1.0 <= costs.se(3, h) <= paper_config.costs.disk_cost

    def test_reduces_to_fixed_levels_at_matching_budget(self):
        """A buffer holding exactly the top two levels reproduces the
        paper's in_memory_levels=2 setting (within the fractional tail)."""
        config = paper_default_config()
        frames = pages_for_top_levels(config.shape, 2)
        buffered = buffered_config(config, frames)
        h = config.height
        for level in (h, h - 1):
            assert buffered.costs.se(level, h) == pytest.approx(1.0,
                                                                abs=0.05)
        for level in (1, 2):
            assert buffered.costs.se(level, h) == pytest.approx(
                config.costs.se(level, h), rel=0.05)

    def test_throughput_saturates_with_buffer(self):
        config = paper_default_config(disk_cost=10.0)
        peaks = [
            max_throughput(analyze_lock_coupling,
                           buffered_config(config, frames))
            for frames in (0, 7, 600, 10_000)
        ]
        assert all(a < b for a, b in zip(peaks, peaks[1:]))
        # Diminishing returns: the first 7 frames (the top levels) are
        # worth vastly more *per frame* than the rest of the pool.
        per_frame_first = (peaks[1] - peaks[0]) / 7
        per_frame_rest = (peaks[3] - peaks[1]) / (10_000 - 7)
        assert per_frame_first > 50 * per_frame_rest

    def test_explicit_dilations_validated(self):
        with pytest.raises(ConfigurationError):
            CostModel(level_dilations=(0.5, 1.0))

    def test_dilation_level_bounds_checked(self):
        costs = CostModel(level_dilations=(2.0, 1.0))
        with pytest.raises(ConfigurationError):
            costs.se(3, 2)

    def test_pages_for_top_levels_validation(self, paper_config):
        with pytest.raises(ConfigurationError):
            pages_for_top_levels(paper_config.shape, -1)
