"""Unit tests for the operation mixes and key pickers of repro.workload."""

from collections import Counter

import pytest

from repro.errors import ConfigurationError
from repro.simulator import SimulationConfig
from repro.workload import (
    HotspotKeys,
    INSERT_ONLY,
    PAPER_MIX,
    READ_HEAVY,
    UPDATE_HEAVY,
    UniformKeys,
    WorkloadRuntime,
)


def draw_operations(mix, rng, n):
    """``n`` operation draws from ``mix`` through the run-time sampler."""
    runtime = WorkloadRuntime(SimulationConfig(mix=mix), rng)
    return [runtime.draw_operation(rng) for _ in range(n)]


class TestMixes:
    @pytest.mark.parametrize("mix", [PAPER_MIX, READ_HEAVY, UPDATE_HEAVY,
                                     INSERT_ONLY])
    def test_named_mixes_are_valid(self, mix):
        assert mix.q_search + mix.q_insert + mix.q_delete \
            == pytest.approx(1.0)

    def test_draw_frequencies_match_mix(self, rng):
        counts = Counter(draw_operations(PAPER_MIX, rng, 30_000))
        assert counts["search"] / 30_000 == pytest.approx(0.3, abs=0.02)
        assert counts["insert"] / 30_000 == pytest.approx(0.5, abs=0.02)
        assert counts["delete"] / 30_000 == pytest.approx(0.2, abs=0.02)

    def test_insert_only_never_draws_others(self, rng):
        draws = set(draw_operations(INSERT_ONLY, rng, 1_000))
        assert draws == {"insert"}


class TestUniformKeys:
    def test_range(self, rng):
        picker = UniformKeys(100, rng)
        keys = [picker.pick() for _ in range(2_000)]
        assert all(0 <= k < 100 for k in keys)
        assert len(set(keys)) > 80  # covers most of the space

    def test_empty_space_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            UniformKeys(0, rng)


class TestHotspotKeys:
    def test_hot_fraction_receives_hot_probability(self, rng):
        picker = HotspotKeys(1_000, rng, hot_fraction=0.2,
                             hot_probability=0.8)
        hits = sum(1 for _ in range(20_000) if picker.pick() < 200)
        assert hits / 20_000 == pytest.approx(0.8, abs=0.02)

    def test_cold_keys_land_outside(self, rng):
        picker = HotspotKeys(1_000, rng, hot_fraction=0.1,
                             hot_probability=0.0)
        assert all(picker.pick() >= 100 for _ in range(1_000))

    def test_parameter_validation(self, rng):
        with pytest.raises(ConfigurationError):
            HotspotKeys(100, rng, hot_fraction=0.0)
        with pytest.raises(ConfigurationError):
            HotspotKeys(100, rng, hot_probability=1.5)

